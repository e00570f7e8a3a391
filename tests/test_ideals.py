import tracemalloc
from fractions import Fraction

import pytest

from oklab.errors import (ResourceLimitError, UnsupportedIdealError,
                          ValidationError)
from oklab.ideals import (BodyFamily, ExplicitFamily, PowersFamily,
                          analytic_spread, bhattacharya_limit,
                          body_to_family, family_mixed_multiplicities,
                          family_positivity,
                          fixed_ideal_mixed_multiplicities, ideal_contains,
                          maximal_ideal, mixed_volume_via_ideals,
                          monomial_ideal, power, product, quotient_dim,
                          quotient_dim_by_mpower)
from oklab.polytope import convex_hull

F = Fraction


def V(*coords):
    return tuple(F(c) for c in coords)


def test_antichain_reduction():
    ideal = monomial_ideal(2, [(2, 0), (1, 0), (1, 1)])
    assert ideal.min_gens == ((1, 0),)


def test_product_and_power():
    m = maximal_ideal(2)
    assert power(m, 2).min_gens == ((0, 2), (1, 1), (2, 0))
    x = monomial_ideal(2, [(1, 0)])
    y = monomial_ideal(2, [(0, 1)])
    assert product(x, y).min_gens == ((1, 1),)
    p = product(monomial_ideal(2, [(2, 0), (1, 1)]), y)
    assert p.min_gens == ((1, 2), (2, 1))
    assert power(m, 0).is_unit


def test_membership_and_containment():
    m2 = power(maximal_ideal(2), 2)
    assert m2.contains_monomial((1, 1))
    assert not m2.contains_monomial((1, 0))
    assert ideal_contains(maximal_ideal(2), m2)
    assert not ideal_contains(m2, maximal_ideal(2))


def test_quotient_dim_staircases():
    R = monomial_ideal(2, [(0, 0)])
    m = maximal_ideal(2)
    assert quotient_dim(R, power(m, 5)) == 15
    xa = monomial_ideal(2, [(3, 0)])
    assert quotient_dim(xa, product(power(m, 4), xa)) == 10
    assert quotient_dim(power(m, 2), power(m, 5)) == 12


def test_quotient_dim_shift_invariance():
    m = maximal_ideal(2)
    num = power(m, 2)
    den = power(m, 6)
    base = quotient_dim(num, den)
    shift = monomial_ideal(2, [(3, 1)])
    assert quotient_dim(product(shift, num), product(shift, den)) == base


def test_quotient_dim_rejects_non_containment():
    m = maximal_ideal(2)
    with pytest.raises(ValidationError):
        quotient_dim(power(m, 3), power(m, 2))


def test_quotient_dim_rejects_infinite():
    x = monomial_ideal(2, [(1, 0)])
    R = monomial_ideal(2, [(0, 0)])
    with pytest.raises(ValidationError):
        quotient_dim(R, x, c_cap=16)


def test_quotient_dim_by_mpower_matches_generic():
    m = maximal_ideal(2)
    num = power(m, 2)
    for c in (1, 3, 5):
        assert quotient_dim_by_mpower(num, c) == \
            quotient_dim(num, product(power(m, c), num)), c


def test_quotient_grid_guard_counts_what_it_holds(monkeypatch):
    monkeypatch.setenv("OKLAB_MEMORY_LIMIT_MB", "4")
    unit = monomial_ideal(2, [(0, 0)])
    with pytest.raises(ResourceLimitError):
        quotient_dim_by_mpower(unit, 1020)  # m^1020: 1021^2 grid points
    # The largest power the guard admits stays within the limit.
    tracemalloc.start()
    try:
        assert quotient_dim_by_mpower(unit, 913) == 913 * 914 // 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 1024 * 1024


def test_bhattacharya_limits():
    m = maximal_ideal(2)
    est = bhattacharya_limit(PowersFamily(m), [PowersFamily(m)], (1, 1))
    assert abs(est - 1.5) < 1e-6
    x = monomial_ideal(2, [(1, 0)])
    est2 = bhattacharya_limit(PowersFamily(m), [PowersFamily(x)], (1, 1))
    assert abs(est2 - 0.5) < 1e-6


def test_bhattacharya_homogeneity():
    m = maximal_ideal(2)
    a = bhattacharya_limit(PowersFamily(m), [PowersFamily(m)], (1, 1),
                           n_max=30)
    b = bhattacharya_limit(PowersFamily(m), [PowersFamily(m)], (2, 2),
                           n_max=30)
    assert abs(b - 4 * a) < 1e-6


def test_fixed_ideal_mixed_multiplicities():
    m = maximal_ideal(2)
    mm = fixed_ideal_mixed_multiplicities(m, [m])
    assert mm[(1, 0)] == 1 and mm[(0, 1)] == 1
    mm2 = fixed_ideal_mixed_multiplicities(m, [monomial_ideal(2, [(1, 0)])])
    assert mm2[(1, 0)] == 1
    assert mm2.get((0, 1), 0) == 0


def test_family_mixed_multiplicities_powers_constant_ladder():
    m = maximal_ideal(2)
    rep = family_mixed_multiplicities(PowersFamily(m), [PowersFamily(m)],
                                      (1, 0))
    assert rep.value == 1 and rep.provenance == "exact"
    assert all(v == 1 for _, v in rep.ladder)
    rep2 = family_mixed_multiplicities(PowersFamily(m), [PowersFamily(m)],
                                       (0, 1))
    assert rep2.value == 1


def test_family_mixed_multiplicities_type_validation():
    m = maximal_ideal(2)
    with pytest.raises(ValidationError):
        family_mixed_multiplicities(PowersFamily(m), [PowersFamily(m)],
                                    (1, 1))


def test_analytic_spread():
    m = maximal_ideal(2)
    assert analytic_spread(m) == 2
    assert analytic_spread(power(m, 2)) == 2
    assert analytic_spread(monomial_ideal(2, [(2, 0)])) == 1
    with pytest.raises(UnsupportedIdealError):
        analytic_spread(monomial_ideal(2, [(1, 0), (0, 2)]))


def test_body_family_pieces():
    point = convex_hull([V(0, 0)])
    fam = body_to_family(point, 1)
    assert fam.ideal(3).min_gens == ((0, 0, 3),)
    seg = convex_hull([V(0, 0), V(1, 0)])
    fam2 = body_to_family(seg, 1)
    assert fam2.ideal(2).min_gens == ((0, 0, 2), (1, 0, 1), (2, 0, 0))
    square = convex_hull([V(0, 0), V(1, 0), V(0, 1), V(1, 1)])
    fam3 = body_to_family(square, 2)
    assert fam3.ideal(1).min_gens == ((0, 0, 2), (0, 1, 1), (1, 0, 1),
                                      (1, 1, 0))


def test_body_family_h_too_small():
    square = convex_hull([V(0, 0), V(1, 0), V(0, 1), V(1, 1)])
    with pytest.raises(ValidationError):
        body_to_family(square, 1)


def test_body_family_growth_bound():
    seg = convex_hull([V(0, 0), V(1, 0)])
    fam = body_to_family(seg, 1)
    for n in range(1, 5):
        assert fam.ideal(n).homogeneous_degree == n * fam.h


def test_explicit_family_closure_check():
    m = maximal_ideal(2)
    good = ExplicitFamily([power(m, n) for n in range(5)])
    good.check(bound=4)
    # J_1 * J_1 = m^2 is not inside J_2 = m^3.
    bad = ExplicitFamily([monomial_ideal(2, [(0, 0)]), m, power(m, 3)])
    with pytest.raises(ValidationError):
        bad.check(bound=2)


def test_family_positivity():
    seg1 = convex_hull([V(0, 0), V(1, 0)])
    seg2 = convex_hull([V(0, 0), V(0, 1)])
    f1, f2 = body_to_family(seg1, 1), body_to_family(seg2, 1)
    assert family_positivity([f1, f2], (0, 1, 1)) == (True, None)
    ok, cert = family_positivity([f1, f1], (0, 1, 1))
    assert not ok and cert == (1, 2)


def test_mixed_volume_via_ideals_rectangle():
    seg1 = convex_hull([V(0, 0), V(1, 0)])
    seg2 = convex_hull([V(0, 0), V(0, 1)])
    out = mixed_volume_via_ideals([seg1, seg2], (1, 1))
    assert out["geometric_side"] == 1
    assert abs(out["ideal_side"] - 1) < 0.05
    assert out["geometric_positive"] and out["family_positive"]


def test_mixed_volume_via_ideals_degenerate():
    seg1 = convex_hull([V(0, 0), V(1, 0)])
    out = mixed_volume_via_ideals([seg1, seg1], (1, 1))
    assert out["geometric_side"] == 0
    assert abs(out["ideal_side"]) < 1e-9
    assert not out["geometric_positive"]
    assert out["geometric_certificate"] == (1, 2)
    assert not out["family_positive"]

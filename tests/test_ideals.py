import itertools
import math
import tracemalloc
from fractions import Fraction
from operator import add

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import bhattacharya_reference as ref
from oklab import ideals
from oklab.errors import (RegularityNotReachedError, ResourceLimitError,
                          UnsupportedIdealError, ValidationError)
from oklab.ideals import (_FAR, BodyFamily, ExplicitFamily, PowersFamily,
                          _bhattacharya_value, _mpower_colengths,
                          _numerator_colengths, _numerator_grid,
                          _suffix_colengths,
                          analytic_spread,
                          bhattacharya_limit, family_mixed_multiplicities,
                          family_positivity,
                          fixed_ideal_mixed_multiplicities, ideal_contains,
                          maximal_ideal, mixed_volume_via_ideals,
                          monomial_ideal, power, product, quotient_dim,
                          quotient_dim_by_mpower)
from oklab.polytope import compositions, convex_hull

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


def test_quotient_dim_rejects_infinite(monkeypatch):
    x = monomial_ideal(2, [(1, 0)])
    R = monomial_ideal(2, [(0, 0)])
    with pytest.raises(ValidationError):
        quotient_dim(R, x)
    # R/(x) in 3 variables holds the plane x = 0: a validation error at
    # once, before any grid is sized against a small memory guard.
    monkeypatch.setenv("OKLAB_MEMORY_LIMIT_MB", "64")
    with pytest.raises(ValidationError):
        quotient_dim(monomial_ideal(3, [(0, 0, 0)]),
                     monomial_ideal(3, [(1, 0, 0)]))


def _brute_quotient_dim(num, den):
    """#(num / den) by membership tests on the box [0, M]^d, M the largest
    generator coordinate; None when the quotient is infinite.

    Raising a coordinate a_i >= M changes neither membership, so a
    quotient monomial with some a_i >= M lies on a ray of quotient
    monomials, and reducing each such coordinate to M keeps it in the
    quotient: the quotient is infinite iff it meets the face a_i = M
    of the box, and otherwise lies in [0, M)^d.
    """
    top = max(max(g) for g in num.min_gens + den.min_gens)
    count = 0
    for a in itertools.product(range(top + 1), repeat=num.num_vars):
        if num.contains_monomial(a) and not den.contains_monomial(a):
            if top in a:
                return None
            count += 1
    return count


@st.composite
def _num_over_den(draw):
    """num and a den <= num in 2-3 variables, finite and infinite."""
    d = draw(st.integers(2, 3))
    point = st.tuples(*[st.integers(0, 3)] * d)
    num = draw(st.lists(point, min_size=1, max_size=3))
    den = [tuple(map(add, draw(st.sampled_from(num)), draw(point)))
           for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):  # pure powers over each generator: finite
        k = draw(st.integers(1, 3))
        den += [g[:i] + (g[i] + k,) + g[i + 1:]
                for g in num for i in range(d)]
    return monomial_ideal(d, num), monomial_ideal(d, den)


@settings(max_examples=300)
@given(_num_over_den())
@example((monomial_ideal(3, [(0, 0, 0)]), monomial_ideal(3, [(1, 0, 0)])))
def test_quotient_dim_matches_brute_force(pair):
    num, den = pair
    want = _brute_quotient_dim(num, den)
    if want is None:
        with pytest.raises(ValidationError):
            quotient_dim(num, den)
    else:
        assert quotient_dim(num, den) == want


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
    fam = BodyFamily(point, 1)
    assert fam.ideal(3).min_gens == ((0, 0, 3),)
    seg = convex_hull([V(0, 0), V(1, 0)])
    fam2 = BodyFamily(seg, 1)
    assert fam2.ideal(2).min_gens == ((0, 0, 2), (1, 0, 1), (2, 0, 0))
    square = convex_hull([V(0, 0), V(1, 0), V(0, 1), V(1, 1)])
    fam3 = BodyFamily(square, 2)
    assert fam3.ideal(1).min_gens == ((0, 0, 2), (0, 1, 1), (1, 0, 1),
                                      (1, 1, 0))


def test_body_family_h_too_small():
    square = convex_hull([V(0, 0), V(1, 0), V(0, 1), V(1, 1)])
    with pytest.raises(ValidationError):
        BodyFamily(square, 1)


def test_body_family_fractional_h():
    # J_n sits in degree n h, so h = 3/2 would give J_1 no generators of
    # integral degree; it is rejected by name, not as an ungraded family.
    seg = convex_hull([V(0), V(1)])
    with pytest.raises(ValidationError, match=r"h = 3/2 must be an integer"):
        BodyFamily(seg, F(3, 2))
    assert BodyFamily(seg, F(2)).h == 2


def test_body_family_growth_bound():
    seg = convex_hull([V(0, 0), V(1, 0)])
    fam = BodyFamily(seg, 1)
    for n in range(1, 5):
        assert fam.ideal(n).homogeneous_degree == n * fam.h


def test_explicit_family_closure_check():
    m = maximal_ideal(2)
    unit = monomial_ideal(2, [(0, 0)])
    assert ExplicitFamily([unit, m, power(m, 2)]).ideal(2) == power(m, 2)
    # J_1 * J_1 = m^2 is not inside J_2 = m^3.
    with pytest.raises(ValidationError, match="J_1 J_1 is not inside J_2"):
        ExplicitFamily([unit, m, power(m, 3)])
    # Every pair up to J_5 holds, but J_1 * J_5 = m^6 is not inside m^7.
    with pytest.raises(ValidationError, match="J_1 J_5 is not inside J_6"):
        ExplicitFamily([power(m, n) for n in (0, 1, 2, 3, 4, 5, 7)])
    with pytest.raises(ValidationError, match="start at the unit ideal"):
        ExplicitFamily([m, m])
    with pytest.raises(ValidationError, match="different rings"):
        ExplicitFamily([unit, maximal_ideal(3)])


def _sums_lie_in(pieces, i, j):
    """Whether every sum of a generator of pieces[i] and one of pieces[j]
    lies in pieces[i + j]: J_i J_j <= J_{i+j}, pair by pair."""
    return all(pieces[i + j].contains_monomial(tuple(map(add, g, h)))
               for g in pieces[i].min_gens for h in pieces[j].min_gens)


_BODY_COORD = st.integers(1, 3).flatmap(
    lambda q: st.integers(0, 2 * q).map(lambda k: F(k, q)))


@st.composite
def _rational_bodies(draw):
    """A body in 1 or 2 dimensions, in [0, 2]^dim, whose vertices have
    denominators 1-3."""
    dim = draw(st.integers(1, 2))
    return convex_hull(draw(st.lists(st.tuples(*[_BODY_COORD] * dim),
                                     min_size=1, max_size=4)))


@settings(max_examples=40, deadline=None)
@given(_rational_bodies())
def test_body_families_are_graded_by_construction(body):
    # BodyFamily checks nothing (its docstring holds the proof); the
    # pairwise check it once made is the oracle, for every i + j <= 5.
    fam = BodyFamily(body, math.ceil(max(sum(v) for v in body.vertices)))
    pieces = [fam.ideal(n) for n in range(6)]
    assert pieces[0].is_unit
    assert all(_sums_lie_in(pieces, i, j)
               for i in range(1, 3) for j in range(i, 6 - i))


@st.composite
def _perturbed_powers(draw):
    """J_0..J_L (L <= 6) of the powers family of a random m-primary ideal,
    with one piece J_k (k >= 1) replaced by J_k m^t, t in 0..2."""
    base = _m_primary(draw)
    pieces = [power(base, n) for n in range(draw(st.integers(1, 7)))]
    if len(pieces) > 1:
        k = draw(st.integers(1, len(pieces) - 1))
        t = draw(st.integers(0, 2))
        pieces[k] = product(pieces[k], power(maximal_ideal(2), t))
    return pieces


@settings(max_examples=60, deadline=None)
@given(_perturbed_powers())
def test_explicit_family_accepts_exactly_the_graded_lists(pieces):
    top = len(pieces) - 1
    graded = all(_sums_lie_in(pieces, i, n - i)
                 for n in range(2, top + 1) for i in range(1, n // 2 + 1))
    if graded:
        assert ExplicitFamily(pieces).ideals == pieces
    else:
        with pytest.raises(ValidationError, match="not graded"):
            ExplicitFamily(pieces)


def test_family_positivity():
    seg1 = convex_hull([V(0, 0), V(1, 0)])
    seg2 = convex_hull([V(0, 0), V(0, 1)])
    f1, f2 = BodyFamily(seg1, 1), BodyFamily(seg2, 1)
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


_LATTICE_POLYGON = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                            min_size=1, max_size=4).map(
    lambda pts: convex_hull([V(*p) for p in pts]))


@settings(max_examples=20)
@given(st.lists(_LATTICE_POLYGON, min_size=1, max_size=3), st.data())
def test_positivity_verdicts_agree_on_lattice_polygons(bodies, data):
    # The paper's characterization: MV(K_1^d_1, ...) > 0 iff every subset
    # J has sum_J d_j <= dim(sum_J K_j), and the analytic spreads of the
    # body families see the same dimensions.  The verdicts do not read
    # the ladder, so one rung twice keeps the example cheap.
    dvec = data.draw(st.sampled_from(compositions(2, len(bodies))))
    out = mixed_volume_via_ideals(bodies, dvec, p_schedule=(1, 1))
    assert out["geometric_positive"] == (out["geometric_side"] > 0)
    assert out["family_positive"] == out["geometric_positive"]
    assert out["family_certificate"] == out["geometric_certificate"]


def test_mixed_volume_via_ideals_degenerate():
    seg1 = convex_hull([V(0, 0), V(1, 0)])
    out = mixed_volume_via_ideals([seg1, seg1], (1, 1))
    assert out["geometric_side"] == 0
    assert abs(out["ideal_side"]) < 1e-9
    assert not out["geometric_positive"]
    assert out["geometric_certificate"] == (1, 2)
    assert not out["family_positive"]


def test_quotient_dim_rejects_zero_denominator():
    with pytest.raises(ValidationError):
        quotient_dim(maximal_ideal(2), monomial_ideal(2, []))


def test_quotient_dim_guard_counts_what_it_holds(monkeypatch):
    monkeypatch.setenv("OKLAB_MEMORY_LIMIT_MB", "1")
    unit = monomial_ideal(2, [(0, 0)])
    m = maximal_ideal(2)
    # R / m^c needs the box c x c, one byte a point: c = 1024 sits at the
    # 1 MiB limit and is counted, one step larger is refused.
    assert quotient_dim(unit, power(m, 1024)) == 1024 * 1025 // 2
    with pytest.raises(ResourceLimitError):
        quotient_dim(unit, power(m, 1025))
    # The count holds one grid at a time.  At the limit itself numpy's
    # index temporaries add a few KiB over the box, so the peak is
    # measured on a box 5% below it, with a two-generator denominator.
    den = monomial_ideal(2, [(1000, 0), (0, 1000)])
    tracemalloc.start()
    try:
        assert quotient_dim(unit, den) == 1000 * 1000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1024 * 1024


def test_bhattacharya_grid_guard_counts_what_it_holds(monkeypatch):
    monkeypatch.setenv("OKLAB_MEMORY_LIMIT_MB", "1")
    m = maximal_ideal(2)
    ifam, jfams = PowersFamily(m), [PowersFamily(m)]
    for n in (456, 457):  # build the antichains outside the traced region
        jfams[0].ideal(n)
    with pytest.raises(ResourceLimitError):
        _bhattacharya_value(ifam, jfams, (1, 457))  # 458^2 points
    # The largest box the guard admits (457^2 points, 5 bytes each) stays
    # within the limit: dim m^456 / m^457 = 457.
    tracemalloc.start()
    try:
        assert _bhattacharya_value(ifam, jfams, (1, 456)) == 457
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1024 * 1024


def test_bhattacharya_rejects_non_m_primary_at_once():
    xy = monomial_ideal(3, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValidationError, match="not m-primary"):
        _bhattacharya_value(PowersFamily(xy),
                            [PowersFamily(maximal_ideal(3))], (4, 4))


# -- property oracles ---------------------------------------------------------

def exponents(d, hi):
    return st.tuples(*[st.integers(0, hi)] * d)


@st.composite
def m_primary_ideals(draw, d):
    """m^c, or pure powers of every variable plus a few mixed generators."""
    if draw(st.booleans()):
        return power(maximal_ideal(d), draw(st.integers(1, 2)))
    pure = [tuple(e * (i == j) for j in range(d))
            for i, e in enumerate(draw(st.lists(st.integers(1, 3),
                                                min_size=d, max_size=d)))]
    return monomial_ideal(d, pure + draw(st.lists(exponents(d, 2),
                                                  max_size=3)))


@st.composite
def colength_cases(draw):
    d = draw(st.sampled_from((2, 3)))
    ideal_i = draw(m_primary_ideals(d))
    ideals_j = draw(st.lists(
        st.one_of(st.just(maximal_ideal(d)),
                  st.lists(exponents(d, 2), min_size=1, max_size=3).map(
                      lambda gens: monomial_ideal(d, gens))),
        max_size=2))
    hi = 4 if d == 2 else 2
    point = draw(st.tuples(*[st.integers(0, hi)] * (1 + len(ideals_j))))
    return ideal_i, ideals_j, point


@settings(max_examples=150)
@given(colength_cases())
# The box is tight on every axis: J = R and I = m^2 put (1, 0) and (0, 1)
# on the edge of a 2 x 2 box.
@example((power(maximal_ideal(2), 2), [], (1,)))
def test_bhattacharya_value_matches_antichain_reference(case):
    ideal_i, ideals_j, point = case
    d = ideal_i.num_vars
    num = monomial_ideal(d, [(0,) * d])
    for j, n in zip(ideals_j, point[1:]):
        num = product(num, power(j, n))
    want = quotient_dim(num, product(power(ideal_i, point[0]), num))
    got = _bhattacharya_value(PowersFamily(ideal_i),
                              [PowersFamily(j) for j in ideals_j], point)
    assert got == want


@settings(max_examples=150)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(exponents(d, 3), max_size=4),
    st.one_of(
        st.lists(exponents(d, 3), max_size=4),
        # skewed sizes: a power of m, or up to 30 mixed-degree generators
        st.integers(0, 12).map(lambda a: power(maximal_ideal(d), a).min_gens),
        st.lists(exponents(d, 9), max_size=30)))))
@example((3, [(2, 0, 0), (0, 0, 2)], power(maximal_ideal(3), 12).min_gens))
def test_product_matches_brute_force(case):
    d, gens1, gens2 = case
    sums = {tuple(x + y for x, y in zip(g, h)) for g in gens1 for h in gens2}
    minimal = sorted(p for p in sums
                     if not any(q != p and all(a <= b for a, b in zip(q, p))
                                for q in sums))
    got = product(monomial_ideal(d, gens1), monomial_ideal(d, gens2))
    assert got.min_gens == tuple(minimal)
    assert product(monomial_ideal(d, gens2),
                   monomial_ideal(d, gens1)) == got


@settings(max_examples=100)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    exponents(d, 2), min_size=1, max_size=3).map(
        lambda gens: monomial_ideal(d, gens))),
    st.lists(st.integers(0, 12), min_size=1, max_size=8))
def test_powers_family_matches_power(base, queries):
    fam = PowersFamily(base)
    for n in queries:
        assert fam.ideal(n) == power(base, n), n


@st.composite
def table_cases(draw):
    """m^a with J-factors (zero and non-m-primary ones included), one J-part
    and several powers n_0 of m^a, zero colengths at n_0 = 0 included."""
    d = draw(st.sampled_from((2, 3)))
    s = draw(st.integers(0, 2))
    a = draw(st.integers(1, 3))
    ideals_j = draw(st.lists(
        st.one_of(st.just(maximal_ideal(d)),
                  st.lists(exponents(d, 2), max_size=3).map(
                      lambda gens: monomial_ideal(d, gens))),
        min_size=s, max_size=s))
    n = draw(st.tuples(*[st.integers(0, 3 if d == 2 else 2)] * s))
    n0s = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5,
                        unique=True))
    return d, a, ideals_j, n, n0s


@settings(max_examples=150)
@given(table_cases())
def test_mpower_colengths_match_pointwise_values(case):
    d, a, ideals_j, n, n0s = case
    jfams = [PowersFamily(j) for j in ideals_j]
    got = _numerator_colengths([f.ideal(k) for f, k in zip(jfams, n)], d,
                               [a * k for k in n0s])
    ifam = PowersFamily(power(maximal_ideal(d), a))
    assert got == [_bhattacharya_value(ifam, jfams, (k,) + n) for k in n0s]


@st.composite
def equigenerated_numerators(draw):
    """0-2 factors, each generated in one degree (0 included), and powers
    c of m, 0 included; an empty box when every c and degree is 0."""
    d = draw(st.sampled_from((1, 2, 3)))
    factors = []
    for _ in range(draw(st.integers(0, 2))):
        deg = draw(st.integers(0, 3))
        factors.append(monomial_ideal(d, draw(st.lists(
            st.sampled_from(compositions(deg, d)), min_size=1,
            max_size=4))))
    cs = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    return d, factors, cs


@settings(max_examples=150)
@given(equigenerated_numerators())
@example((2, [], [0]))
@example((1, [monomial_ideal(1, [(0,)])], [0, 0]))
@example((3, [maximal_ideal(3), power(maximal_ideal(3), 2)], [0, 3]))
def test_suffix_colengths_match_gap_grid(case):
    d, factors, cs = case
    num = _numerator_grid(factors, (max(cs),) * d)
    gap = np.full(num.shape, _FAR, dtype=np.int32)
    np.copyto(gap, 0, where=num)
    k = sum(j.homogeneous_degree for j in factors)
    assert _suffix_colengths(num, k, cs) == _mpower_colengths(gap, cs)


@st.composite
def fit_cases(draw):
    """I = m^a, the unit ideal or an m-primary non-power; 0-2 J-factors."""
    d = draw(st.sampled_from((2, 3)))
    ideal_i = draw(st.one_of(
        st.integers(0, 3 if d == 2 else 2).map(
            lambda a: power(maximal_ideal(d), a)),
        m_primary_ideals(d)))
    ideals_j = draw(st.lists(
        st.one_of(st.just(maximal_ideal(d)),
                  st.lists(exponents(d, 2), min_size=1, max_size=3).map(
                      lambda gens: monomial_ideal(d, gens))),
        max_size=2 if d == 2 else 1))
    return ideal_i, ideals_j


@settings(max_examples=80)
@given(fit_cases())
@example((power(maximal_ideal(2), 2), []))
@example((monomial_ideal(3, [(0, 0, 0)]), [maximal_ideal(3)]))
@example((monomial_ideal(2, [(0, 2), (1, 1), (3, 0)]),
          [monomial_ideal(2, [(1, 0)])]))
def test_fixed_mixed_multiplicities_match_pointwise_fit(case):
    ideal_i, ideals_j = case
    assert fixed_ideal_mixed_multiplicities(ideal_i, ideals_j) == \
        ref.fixed_ideal_mixed_multiplicities(ideal_i, ideals_j)


def test_mpower_table_guard_counts_what_it_holds(monkeypatch):
    monkeypatch.setenv("OKLAB_MEMORY_LIMIT_MB", "1")
    m = maximal_ideal(2)
    factors = [power(m, 200), power(m, 100)]
    cs = [0, 1, 50, 157]
    with pytest.raises(ResourceLimitError):
        _numerator_colengths(factors, 2, cs + [158])  # 458^2 points
    # The largest table box the guard admits (457^2 points, 5 bytes each)
    # stays within the limit: dim m^300 / m^(300 + c) for every c at once.
    tracemalloc.start()
    try:
        got = _numerator_colengths(factors, 2, cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1024 * 1024
    assert got == [sum(k + 1 for k in range(300, 300 + c)) for c in cs]
    # A fit's tables are the boxes of its own points: with no J, the
    # largest is m^(8a), 456^2 points at a = 57, and one step larger
    # raises.
    assert fixed_ideal_mixed_multiplicities(power(m, 57), []) == \
        {(1,): 57 ** 2}
    with pytest.raises(ResourceLimitError):
        fixed_ideal_mixed_multiplicities(power(m, 58), [])


def test_suffix_table_guard_counts_what_it_holds(monkeypatch):
    # num = m^40 in three variables is generated in one degree, so its
    # colengths are read from fiber suffixes; the guard still counts 5
    # bytes a point, the most any count of the box holds.
    monkeypatch.setenv("OKLAB_MEMORY_LIMIT_MB", "1")
    factors = [power(maximal_ideal(3), 40)]
    cs = [0, 1, 19]
    with pytest.raises(ResourceLimitError):
        _numerator_colengths(factors, 3, cs + [20])  # 60^3 points
    # The largest box the guard admits, 59^3 points, stays within the
    # limit: dim m^40 / m^(40 + c) for every c at once.
    tracemalloc.start()
    try:
        got = _numerator_colengths(factors, 3, cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1024 * 1024
    assert got == [sum((k + 1) * (k + 2) // 2 for k in range(40, 40 + c))
                   for c in cs]


def test_gap_table_guard_counts_what_it_holds(monkeypatch):
    # A numerator generated in two degrees takes the gap grid: the grid,
    # its int32 gap grid and one bool temporary, 5 bytes a point.
    num = monomial_ideal(2, [(300, 0), (100, 100), (0, 300)])
    cs = [0, 1, 157]
    want = [quotient_dim(num, product(power(maximal_ideal(2), c), num))
            for c in cs]
    monkeypatch.setenv("OKLAB_MEMORY_LIMIT_MB", "1")
    with pytest.raises(ResourceLimitError):
        _numerator_colengths([num], 2, cs + [158])  # 458^2 points
    tracemalloc.start()
    try:
        got = _numerator_colengths([num], 2, cs)  # 457^2 points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1024 * 1024
    assert got == want


def _m_primary(draw):
    """A random m-primary ideal in 2 variables: two pure powers plus up
    to two monomials below them."""
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gens = [(a, 0), (0, b)] + draw(st.lists(
        st.tuples(st.integers(0, a - 1), st.integers(0, b - 1)),
        max_size=2))
    return monomial_ideal(2, gens)


_SEGMENT_END = st.builds(F, st.integers(0, 3), st.integers(1, 3)).filter(
    lambda x: x <= 1)


@st.composite
def _homogeneous_families(draw):
    """(I, J): I a powers family of an m-primary ideal, J a powers
    family or the family of a segment in [0, 1] with h = 1, whose end
    points have denominators 1-3."""
    ifam = PowersFamily(_m_primary(draw))
    if draw(st.booleans()):
        return ifam, PowersFamily(_m_primary(draw))
    ends = draw(st.lists(_SEGMENT_END, min_size=1, max_size=2))
    return ifam, BodyFamily(convex_hull([(x,) for x in ends]), 1)


@settings(max_examples=60, deadline=None)
@given(_homogeneous_families())
@example((PowersFamily(maximal_ideal(2)),
          BodyFamily(convex_hull([V(F(1, 2)), V(1)]), 1)))
def test_rung_at_a_multiple_of_the_homogeneity_index(fams):
    # The certificate behind the ladder: the rung e(I_p | J_p) / p^d,
    # counted directly at p = 2D, equals the rung at p = D.  The example
    # has D = 2, and its rungs at p = 1 and 2 differ (x against x m).
    ifam, jfam = fams
    D = math.lcm(ifam.homogeneity, jfam.homogeneity)

    def rung(p):
        mm = fixed_ideal_mixed_multiplicities(ifam.ideal(p), [jfam.ideal(p)])
        return {t: v / p ** 2 for t, v in mm.items()}

    assert rung(2 * D) == rung(D)


@pytest.fixture
def counted_rungs(monkeypatch):
    """The I of every fixed-ideal fit a test makes, in call order."""
    calls = []
    real = ideals.fixed_ideal_mixed_multiplicities

    def spy(i, js):
        calls.append(i)
        return real(i, js)

    monkeypatch.setattr(ideals, "fixed_ideal_mixed_multiplicities", spy)
    return calls


def test_certified_ladder_counts_one_rung(counted_rungs):
    # Powers families have D = 1: every rung is read from rung(1), which
    # is counted even when 1 is not in the schedule.
    m = maximal_ideal(2)
    report = family_mixed_multiplicities(
        PowersFamily(m), [PowersFamily(power(m, 2))], (0, 1), (2, 4))
    assert report.ladder == ((2, 2), (4, 2)) and report.provenance == "exact"
    assert counted_rungs == [m]


def test_explicit_family_ladder_counts_every_rung(counted_rungs):
    m = maximal_ideal(2)
    explicit = ExplicitFamily([power(m, n) for n in range(5)])
    report = family_mixed_multiplicities(
        PowersFamily(m), [explicit], (1, 0), (1, 2, 4))
    assert [v for _, v in report.ladder] == [1, 1, 1]
    assert counted_rungs == [m, power(m, 2), power(m, 4)]


def test_family_positivity_of_a_zero_powers_family():
    zero = PowersFamily(monomial_ideal(2, []))
    with pytest.raises(ValidationError, match="some family is zero"):
        family_positivity([zero], (0, 1))


def test_family_positivity_past_the_largest_p():
    # The second body has vertex denominators 101 and 103, so D = 10403:
    # its J_D would take about 10^8 membership tests.  The spreads are
    # found by doubling from p = 1 instead, and no ideal past p = 64 is
    # built.
    tri = convex_hull([V(0, 0), V(1, 0), V(0, 1)])
    big = convex_hull([V(0, 0), V(F(100, 101), 0), V(0, F(102, 103))])
    fams = [BodyFamily(tri, 1), BodyFamily(big, 1)]
    assert fams[1].homogeneity == 10403

    def bounded(real):
        def ideal(n):
            assert n <= 64, f"J_{n} built"
            return real(n)
        return ideal

    for fam in fams:
        fam.ideal = bounded(fam.ideal)
    assert family_positivity(fams, (0, 1, 1)) == (True, None)


def test_certified_rung_past_the_largest_p():
    # D = 10403 is past _P_MAX, so rung(D) is not the value: no J_p with
    # p > 64 is built, and the answer is the ladder's, as it was before
    # rung(D) became the value.
    tri = convex_hull([V(0, 0), V(1, 0), V(0, 1)])
    big = convex_hull([V(0, 0), V(F(100, 101), 0), V(0, F(102, 103))])
    fams = [BodyFamily(tri, 1), BodyFamily(big, 1)]

    def bounded(real):
        def ideal(n):
            assert n <= 64, f"J_{n} built"
            return real(n)
        return ideal

    for fam in fams:
        fam.ideal = bounded(fam.ideal)
    report = family_mixed_multiplicities(
        PowersFamily(maximal_ideal(3)), fams, (0, 1, 1), (1, 2))
    assert report.ladder == ((1, 0), (2, F(1, 2)))
    assert (report.value, report.provenance) == (1.0, "extrapolated")


@pytest.mark.parametrize("error", [ResourceLimitError,
                                   RegularityNotReachedError])
def test_certified_rung_out_of_reach_leaves_the_ladder(monkeypatch, error):
    # J is the body family of [2/3, 1], D = 3.  When rung(3) hits the
    # memory guard or the fit cap, the ladder's answer stands.
    m = maximal_ideal(2)
    real = ideals.fixed_ideal_mixed_multiplicities

    def refuse_rung_3(i, js):
        if i == power(m, 3):
            raise error("out of reach")
        return real(i, js)

    monkeypatch.setattr(ideals, "fixed_ideal_mixed_multiplicities",
                        refuse_rung_3)
    seg = convex_hull([V(F(2, 3)), V(1)])
    report = family_mixed_multiplicities(
        PowersFamily(m), [BodyFamily(seg, 1)], (0, 1), (1, 2))
    assert report.ladder == ((1, 0), (2, 0))
    assert (report.value, report.provenance) == (0, "ladder")

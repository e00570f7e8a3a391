"""Acceptance criteria with pinned tolerances.

Each test pins the tolerance it promises; runtime budgets are enforced
with wall-clock assertions where the criterion includes one.
"""

import math
import random
import time
from fractions import Fraction

import invariants_reference as inv_ref

from oklab.algebra import MonomialAlgebra
from oklab.ideals import (PowersFamily, bhattacharya_limit, maximal_ideal,
                          mixed_volume_via_ideals, monomial_ideal)
from oklab.lattice import (group_generated, hermite_normal_form,
                           rational_rank, subgroup_index)
from oklab.polytope import (cone_fiber, convex_hull, integral_volume,
                            minkowski_polynomial, mixed_volume,
                            scaled_minkowski_sum, standard_lattice,
                            volume_in_dim)
from oklab.semigroup import BoundRule, GradedSemigroup, StaircaseSpec

F = Fraction


def nonpoly_semigroup():
    return GradedSemigroup.from_staircase(StaircaseSpec(
        s=2,
        lower=BoundRule("ceil_sqrt_quadratic", quadratic=((4, 0), (0, 4))),
        upper=BoundRule("linear", forms=((F(2), F(2)),))))


def min_algebra():
    return MonomialAlgebra.from_staircase(StaircaseSpec(
        s=2,
        lower=BoundRule("linear", forms=((F(0), F(0)),)),
        upper=BoundRule("min", forms=((F(1), F(0)), (F(0), F(1))))))


# 1. Non-polyhedral staircase: exact counts along a Pythagorean ray and
#    volume estimates along two rays, under a 10 s budget.
def test_nonpolyhedral_staircase_suite():
    start = time.monotonic()
    sg = nonpoly_semigroup()
    ray = sg.veronese_ray((3, 4))
    for k in (1, 2, 5, 20, 100, 200):
        assert ray.piece_size((k,)) == 4 * k + 1, k

    counts = ray.counts_upto(200)
    ns = sorted(counts)
    est = counts[ns[-1]] / ns[-1]
    assert abs(est - 4) <= 0.05

    diag = sg.veronese_ray((1, 1))
    dcounts = diag.counts_upto(200)
    dn = sorted(dcounts)
    dest = dcounts[dn[-1]] / dn[-1]
    target = 4 - 2 * math.sqrt(2)  # 2(x1+x2) - 2*sqrt(x1^2+x2^2) at (1,1)
    assert abs(dest - target) <= 0.02
    assert time.monotonic() - start < 10.0


# 2. Piecewise-linear volume function: exact fiber volumes plus the
#    fiber theorem (global-cone fibers equal projected Veronese bodies).
def test_min_volume_function_and_fiber_theorem():
    a = min_algebra()
    assert a.volume_fn_fiber((2, 3)).value == 2
    assert a.volume_fn_fiber((1, 1)).value == 1
    assert a.volume_fn_fiber((1, 0)).value == 0
    cone, exact = a.global_no_cone()
    assert exact
    for n in [(1, 1), (2, 3), (3, 1)]:
        fib = cone_fiber(cone, (1, 2), n)
        body = inv_ref.okounkov_body(a.veronese(n).semigroup)
        assert {v[:-1] for v in body.vertices} == set(fib.vertices), n


# 3. Limit-theorem suite: random finitely generated semigroups match the
#    vol/ind prediction within 5% at n_max = 500; two hand cases within
#    2%; 60 s budget.
def test_kk_limit_suite():
    start = time.monotonic()
    rng = random.Random(20240817)
    checked = 0
    while checked < 20:
        r = rng.randint(1, 3)
        k = rng.randint(1, 3)
        gens = []
        seen = set()
        for _ in range(k):
            v = tuple(rng.randint(0, 5) for _ in range(r))
            if v in seen:
                continue
            seen.add(v)
            gens.append((v, (rng.randint(1, 3),)))
        if not gens:
            continue
        sg = GradedSemigroup.from_generators(r, 1, gens)
        out = sg.kk_limit_check(n_max=500)
        assert out["rel_err"] <= 0.05, (gens, out)
        checked += 1

    hand1 = GradedSemigroup.from_generators(
        1, 1, [((0,), (1,)), ((1,), (1,)), ((2,), (1,))])
    out1 = hand1.kk_limit_check(n_max=500)
    assert out1["predicted"] == 2
    assert out1["rel_err"] <= 0.02

    hand2 = GradedSemigroup.from_generators(
        1, 1, [((0,), (1,)), ((2,), (1,))])
    out2 = hand2.kk_limit_check(n_max=500)
    assert out2["predicted"] == 1
    assert out2["rel_err"] <= 0.02
    assert time.monotonic() - start < 60.0


# 4. Segre suite: exact Hilbert polynomial, mixed multiplicities, and
#    positivity certificates.
def test_segre_suite():
    a = MonomialAlgebra.from_generators(4, 2, [
        ((1, 0, 0, 0), (1, 0)), ((0, 1, 0, 0), (1, 0)),
        ((0, 0, 1, 0), (0, 1)), ((0, 0, 0, 1), (0, 1))])
    poly, mixed = a.hilbert_polynomial()
    assert poly.coeffs == {(0, 0): F(1), (1, 0): F(1), (0, 1): F(1),
                           (1, 1): F(1)}
    assert mixed == {(2, 0): 0, (1, 1): 1, (0, 2): 0}
    for n in [(1, 1), (2, 3), (4, 4)]:
        assert a.hilbert_function(n) == (n[0] + 1) * (n[1] + 1)
    rep = a.mixed_multiplicities((1, 1))
    assert rep.value == 1 and rep.provenance == "exact" and rep.positive
    assert a.positivity((1, 1)) == (True, None)
    assert a.positivity((2, 0)) == (False, (1,))
    assert a.positivity((0, 2)) == (False, (2,))


# 5. Minkowski polynomials: exact coefficients verified on held-out
#    points, and Brunn-Minkowski on seeded random polygon pairs.
def test_minkowski_polynomial_suite():
    sq = convex_hull([(F(0), F(0)), (F(1), F(0)), (F(0), F(1)),
                      (F(1), F(1))])
    tri = convex_hull([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    poly = minkowski_polynomial([sq, tri])
    assert poly.coeffs == {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1, 2)}
    # Held-out verification beyond the interpolation grid.
    for lams in [(3, 5), (7, 2), (4, 9)]:
        direct = integral_volume(
            scaled_minkowski_sum([sq, tri], [F(x) for x in lams]),
            standard_lattice(2))
        assert poly.evaluate(lams) == direct, lams

    rng = random.Random(20240818)
    for trial in range(50):
        polys = []
        for _ in range(2):
            pts = [(F(rng.randint(0, 6)), F(rng.randint(0, 6)))
                   for _ in range(rng.randint(3, 6))]
            polys.append(convex_hull(pts))
        p, q = polys
        vp = volume_in_dim(p, 2)
        vq = volume_in_dim(q, 2)
        mv = mixed_volume([p, q], (1, 1))
        # Brunn-Minkowski in the Minkowski-inequality form V(P,Q)^2 >=
        # V(P)V(Q), stated with normalized volumes 2*vol.
        lhs = float(mv) ** 2
        rhs = float(4 * vp * vq)
        assert lhs >= rhs - 1e-9, trial


# 6. Mixed volumes via ideal families agree with the geometric side
#    within 5% on three planar pairs, with matching positivity verdicts;
#    120 s budget.
def test_mixed_volume_bridge_suite():
    start = time.monotonic()
    sq = convex_hull([(F(0), F(0)), (F(1), F(0)), (F(0), F(1)),
                      (F(1), F(1))])
    tri = convex_hull([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))])
    seg1 = convex_hull([(F(0), F(0)), (F(1), F(0))])
    seg2 = convex_hull([(F(0), F(0)), (F(0), F(1))])
    cases = [([sq, tri], 2), ([seg1, seg2], 1), ([seg1, seg1], 0)]
    for bodies, expected in cases:
        out = mixed_volume_via_ideals(bodies, (1, 1))
        assert out["geometric_side"] == expected
        tol = 0.05 * max(expected, 1)
        assert abs(out["ideal_side"] - expected) <= tol, bodies
        assert out["geometric_positive"] == out["family_positive"]
    assert time.monotonic() - start < 120.0


# 7. Bhattacharya limits match the closed forms 3n^2/2 and n^2/2 within
#    2%.
def test_bhattacharya_closed_forms():
    m = maximal_ideal(2)
    est = bhattacharya_limit(PowersFamily(m), [PowersFamily(m)], (1, 1))
    assert abs(est - 1.5) <= 0.02 * 1.5
    x = monomial_ideal(2, [(1, 0)])
    est2 = bhattacharya_limit(PowersFamily(m), [PowersFamily(x)], (1, 1))
    assert abs(est2 - 0.5) <= 0.02 * 0.5


# 8. Structural property suites: staircase closure on the presets,
#    truncation sandwich, golden-ratio approximation ladder, fiber
#    homogeneity, and lattice invariants on random integer matrices.
def test_property_staircase_presets_close():
    nonpoly_semigroup()
    min_algebra()
    GradedSemigroup.from_staircase(StaircaseSpec(
        s=2,
        lower=BoundRule("linear", forms=((F(0), F(0)),)),
        upper=BoundRule("min", forms=((F(2), F(1)), (F(1), F(2))))))
    GradedSemigroup.from_staircase(StaircaseSpec(
        s=1,
        lower=BoundRule("linear", forms=((F(0),),)),
        upper=BoundRule("linear", forms=((F(89, 55),),))))


def test_property_truncation_sandwich():
    sg = GradedSemigroup.from_generators(
        1, 1, [((0,), (1,)), ((1,), (2,)), ((3,), (1,))])
    for p in range(1, 7):
        t = sg.truncate((p,))
        for n in range(1, 7):
            star = {tuple(n * x for x in v) for v in sg.graded_piece((p,))}
            inner = set(t.graded_piece((n * p,)))
            outer = set(sg.graded_piece((n * p,)))
            assert star <= inner <= outer, (p, n)


def test_property_golden_ladder():
    a = MonomialAlgebra.from_staircase(StaircaseSpec(
        s=1,
        lower=BoundRule("linear", forms=((F(0),),)),
        upper=BoundRule("linear", forms=((F(89, 55),),))))
    vals = {}
    for p in (1, 5, 11, 55):
        _, mixed = a.p_subalgebra(p).hilbert_polynomial()
        vals[p] = F(mixed[(1,)], p)
    assert all(vals[p] <= F(89, 55) for p in vals)
    assert vals[55] == F(89, 55)
    assert vals[1] <= vals[5] <= vals[55]


def test_property_fiber_homogeneity():
    a = min_algebra()
    base = a.volume_fn_fiber((2, 3)).value
    for lam in (F(1, 2), F(2), F(3)):
        assert a.volume_fn_fiber((2 * lam, 3 * lam)).value == lam * base


def test_property_lattice_invariants_random():
    rng = random.Random(20240819)
    for trial in range(100):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        rows = [tuple(rng.randint(-5, 5) for _ in range(n))
                for _ in range(k)]
        basis, rank = hermite_normal_form(rows, ncols=n)
        assert rank == rational_rank(rows), trial
        lat = group_generated(rows, ambient_dim=n)
        for row in rows:
            assert lat.contains(row), (trial, row)
        # HNF is canonical: regenerating from the basis is idempotent.
        basis2, rank2 = hermite_normal_form(basis, ncols=n)
        assert basis2 == basis and rank2 == rank, trial
        if rank == n:
            idx = subgroup_index(lat, group_generated(
                [tuple(int(i == j) for j in range(n))
                 for i in range(n)]))
            prod = 1
            for row, col in zip(basis, lat.pivot_columns()):
                prod *= row[col]
            assert idx == abs(prod), trial

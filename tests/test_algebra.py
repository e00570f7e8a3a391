import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import fit_reference as ref
import invariants_reference as inv_ref

from oklab import algebra, polytope
from oklab.algebra import (FiberVolume, MonomialAlgebra, _stable_fit,
                           ladder_report, subset_positivity)
from oklab.errors import (InternalConsistencyError,
                          RegularityNotReachedError, ValidationError)
from oklab.polytope import compositions, cone_fiber
from oklab.semigroup import BoundRule, StaircaseSpec

F = Fraction


def segre():
    return MonomialAlgebra.from_generators(4, 2, [
        ((1, 0, 0, 0), (1, 0)), ((0, 1, 0, 0), (1, 0)),
        ((0, 0, 1, 0), (0, 1)), ((0, 0, 0, 1), (0, 1))])


def min_algebra():
    return MonomialAlgebra.from_staircase(StaircaseSpec(
        s=2,
        lower=BoundRule("linear", forms=((F(0), F(0)),)),
        upper=BoundRule("min", forms=((F(1), F(0)), (F(0), F(1))))))


def nonpoly_algebra():
    return MonomialAlgebra.from_staircase(StaircaseSpec(
        s=2,
        lower=BoundRule("ceil_sqrt_quadratic", quadratic=((4, 0), (0, 4))),
        upper=BoundRule("linear", forms=((F(2), F(2)),))))


def golden_algebra():
    return MonomialAlgebra.from_staircase(StaircaseSpec(
        s=1,
        lower=BoundRule("linear", forms=((F(0),),)),
        upper=BoundRule("linear", forms=((F(89, 55),),))))


def test_hilbert_function():
    assert segre().hilbert_function((2, 3)) == 12
    assert nonpoly_algebra().hilbert_function((3, 4)) == 5
    assert segre().hilbert_function((0, 0)) == 1


def test_veronese_counts():
    v = segre().veronese((1, 1))
    for k in (1, 2, 4):
        assert v.hilbert_function((k,)) == (k + 1) ** 2
    v48 = min_algebra().veronese((1, 1))
    assert v48.hilbert_function((3,)) == 4


def test_global_cone_min():
    cone, exact = min_algebra().global_no_cone()
    assert exact
    assert set(cone.rays) == {(0, 1, 0), (0, 0, 1), (1, 1, 1)}


def test_staircase_cone_built_once(monkeypatch):
    # 50 fiber volumes on one algebra: one cone build and its one
    # H-representation, then one double description per fiber.
    calls = {"cone": 0, "dd": 0}

    def spy(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(algebra, "make_cone",
                        spy("cone", algebra.make_cone))
    for module in (algebra, polytope):
        monkeypatch.setattr(module, "dd_extreme_rays",
                            spy("dd", module.dd_extreme_rays))
    a = min_algebra()
    values = [a.volume_fn_fiber((k, 2 * k + 1)).value for k in range(1, 51)]
    assert values == list(range(1, 51))
    assert calls == {"cone": 1, "dd": 52}


def test_global_cone_segre():
    cone, exact = segre().global_no_cone()
    assert exact
    assert set(cone.rays) == {
        (1, 0, 0, 0, 1, 0), (0, 1, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 0, 1)}


def test_global_cone_trivial_part():
    a = MonomialAlgebra.from_generators(0, 1, [((), (1,))])
    cone, exact = a.global_no_cone()
    assert exact and cone.rays == ((1,),)


def test_dims():
    a = segre()
    assert a.krull_dim() == 4
    assert a.dim_subalgebra({1}) == 2
    assert a.dim_subalgebra({1, 2}) == 4
    assert min_algebra().krull_dim() == 3
    # nonpoly: an axis piece is the single point j = 2 n_i.
    c = nonpoly_algebra()
    assert c.krull_dim() == 3
    assert c.dim_subalgebra({1}) == c.dim_subalgebra({2}) == 1
    b = MonomialAlgebra.from_generators(1, 1, [((1,), (1,))])
    assert b.krull_dim() == 1


def test_volume_fn_fiber_min():
    a = min_algebra()
    assert a.volume_fn_fiber((2, 3)).value == 2
    assert a.volume_fn_fiber((1, 1)).value == 1
    assert a.volume_fn_fiber((1, 0)).value == 0


def test_volume_fn_fiber_homogeneity():
    a = min_algebra()
    base = a.volume_fn_fiber((2, 3)).value
    for lam in (F(1, 2), F(2), F(3)):
        scaled = a.volume_fn_fiber((2 * lam, 3 * lam)).value
        assert scaled == lam * base, lam


def test_volume_fn_fiber_segre():
    fv = segre().volume_fn_fiber((1, 1))
    assert fv.method == "fiber"
    assert fv.value == 1


def test_volume_fn_count():
    a = min_algebra()
    est = a.volume_fn_count((2, 3), n_max=300)
    assert abs(est - 2) < 0.01
    est2 = segre().volume_fn_count((1, 1), n_max=120)
    assert abs(est2 - 1) < 0.02


def test_volume_fn_count_free_algebra_default_window():
    # Segre's generators are free, so the whole box [0, 500 * (1, 1)] is
    # counted by the Hilbert series; F_A(1, 1) = 1.
    assert abs(segre().volume_fn_count((1, 1)) - 1) < 1e-4


def test_volume_fn_nonpolyhedral_estimate():
    a = nonpoly_algebra()
    fv = a.volume_fn_fiber((3, 4))
    assert fv.method == "estimate"
    assert abs(fv.value - 4) < 0.05


def test_fiber_theorem():
    a = min_algebra()
    cone, _ = a.global_no_cone()
    for n in [(1, 1), (2, 3), (3, 1)]:
        fib = cone_fiber(cone, (1, 2), n)
        body = inv_ref.okounkov_body(a.veronese(n).semigroup)
        # Drop the degree coordinate (the Veronese body sits at height m).
        projected = {v[:-1] for v in body.vertices}
        assert projected == set(fib.vertices), n


def test_fiber_volume_divides_by_the_index_of_the_degree_zero_group():
    # G_0 = 2Z in L = Z, and the fiber at 1 is [0, 2].
    a = MonomialAlgebra.from_generators(1, 1, [((0,), (1,)), ((2,), (1,))])
    lattice, ind = a._fiber_lattice
    assert lattice.basis == ((1,),) and ind == 2
    assert a.volume_fn_fiber((1,)) == FiberVolume(F(1), "fiber")


def test_fiber_volume_without_valuation_coordinates():
    # r = 0: G_0 is the zero lattice of Z^0, and each fiber is a point.
    a = MonomialAlgebra.from_generators(0, 2, [((), (1, 0)), ((), (0, 1))])
    assert a.volume_fn_fiber((1, 2)) == FiberVolume(F(1), "fiber")


@st.composite
def axis_generated_algebras(draw):
    """A generated algebra with r, s <= 2 and a unit generator on every
    axis (so every axis piece is nonzero), plus axis generators of
    degree 2-3 and generators of mixed support."""
    r = draw(st.integers(0, 2))
    s = draw(st.integers(1, 2))
    val = st.tuples(*[st.integers(-1, 3)] * r)
    gens = []
    for i in range(s):
        unit = tuple(int(i == j) for j in range(s))
        gens.append((draw(val), unit))
        for k in draw(st.lists(st.integers(1, 3), max_size=2)):
            gens.append((draw(val), tuple(k * u for u in unit)))
    if s == 2:
        mixed = st.tuples(st.integers(1, 2), st.integers(1, 2))
        gens.extend(draw(st.lists(st.tuples(val, mixed), max_size=2)))
    return MonomialAlgebra.from_generators(r, s, gens)


@st.composite
def polyhedral_staircases(draw):
    """A staircase with max-of-forms lower and min-of-forms upper bounds,
    closed under addition by construction."""
    s = draw(st.integers(1, 2))
    low = st.tuples(*[st.sampled_from([F(0), F(-1, 2), F(1, 3)])] * s)
    high = st.tuples(*[st.sampled_from([F(0), F(1), F(3, 2), F(2, 3)])] * s)
    lower = draw(st.lists(low, min_size=1, max_size=2))
    upper = draw(st.lists(high, min_size=1, max_size=2))
    return MonomialAlgebra.from_staircase(StaircaseSpec(
        s=s,
        lower=BoundRule("linear" if len(lower) == 1 else "max",
                        forms=tuple(lower)),
        upper=BoundRule("linear" if len(upper) == 1 else "min",
                        forms=tuple(upper))))


# Points whose ray has entries <= 2: the reference enumerates the parent
# semigroup up to degree 16 * ray at least.
POINTS = {1: [(F(1),), (F(2),), (F(1, 2),)],
          2: [(F(1), F(1)), (F(1), F(2)), (F(2), F(1)), (F(1, 2), F(1, 2)),
              (F(1, 2), F(1)), (F(1), F(1, 2))]}


@settings(max_examples=40)
@given(st.one_of(axis_generated_algebras(), polyhedral_staircases()),
       st.data())
def test_fiber_volume_matches_enumerated_veronese_invariants(a, data):
    assume(all(a.axis_nonvanishing()))
    x = data.draw(st.sampled_from(POINTS[a.s]))
    assert a.volume_fn_fiber(x) == FiberVolume(inv_ref.volume_fn(a, x),
                                               "fiber")


def test_log_concavity_sampled():
    a = min_algebra()
    q = a.krull_dim() - a.s
    pts = [((F(1), F(2)), (F(3), F(1))), ((F(2), F(2)), (F(1), F(5))),
           ((F(1, 2), F(3)), (F(5, 2), F(1)))]
    for x, y in pts:
        fx = float(a.volume_fn_fiber(x).value) ** (1 / q)
        fy = float(a.volume_fn_fiber(y).value) ** (1 / q)
        xy = tuple(u + v for u, v in zip(x, y))
        fxy = float(a.volume_fn_fiber(xy).value) ** (1 / q)
        assert fxy >= fx + fy - 1e-9


def test_decomposability():
    assert segre().is_decomposable() == (True, None)
    ok, witness = min_algebra().is_decomposable()
    assert not ok and witness == (1, 1)
    single = MonomialAlgebra.from_generators(1, 1, [((1,), (1,))])
    assert single.is_decomposable() == (True, None)


def decomposable_upto(a, bound):
    """The bounded scan: is piece(n) the sum of its axis pieces for every
    degree n <= bound?"""
    sg = a.semigroup
    for n in itertools.product(range(bound + 1), repeat=a.s):
        axes = [sg.graded_piece(tuple(k * (i == j) for j in range(a.s)))
                for i, k in enumerate(n)]
        sums = {tuple(map(sum, zip(*pts))) for pts in itertools.product(*axes)}
        if sg.graded_piece(n) != sums:
            return False
    return True


def test_decomposability_of_generators_is_exact():
    # (2|9,1) is not in S_{9 e_1} + S_{e_2} = {0} + {0, 1}; no scan up to
    # degree 8 reaches it.
    a = MonomialAlgebra.from_generators(1, 2, [
        ((0,), (1, 0)), ((0,), (0, 1)), ((1,), (0, 1)), ((2,), (9, 1))])
    assert decomposable_upto(a, 8)
    assert a.is_decomposable() == (False, (9, 1))
    with pytest.raises(ValidationError, match=r"\(9, 1\)"):
        a.mixed_multiplicities((0, 1))


@settings(max_examples=60)
@given(st.one_of(axis_generated_algebras(), st.builds(
    MonomialAlgebra.from_generators, st.just(1), st.just(2), st.lists(
        st.tuples(st.tuples(st.integers(0, 3)),
                  st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(
                      any)), min_size=1, max_size=5))))
def test_decomposability_matches_the_bounded_scan(a):
    bound = max(max(deg) for _, deg in a.semigroup.generators)
    assert a.is_decomposable()[0] == decomposable_upto(a, bound)


def test_truncation_and_p_subalgebra():
    a = segre()
    p2 = a.p_subalgebra(2)
    for n1, n2 in [(1, 1), (2, 1), (2, 3)]:
        assert p2.hilbert_function((n1, n2)) == \
            (2 * n1 + 1) * (2 * n2 + 1)
    t1 = a.truncation(1)
    t2 = a.truncation(2)
    for n in [(1, 0), (1, 1), (2, 2)]:
        assert t1.semigroup.graded_piece(n) <= t2.semigroup.graded_piece(n)


def test_p_subalgebra_s1():
    a = MonomialAlgebra.from_generators(1, 1, [((0,), (1,)), ((1,), (1,))])
    ap = a.p_subalgebra(3)
    assert ap.hilbert_function((2,)) == 7  # {0..6} at regraded degree 2


def test_hilbert_polynomial_segre():
    poly, mixed = segre().hilbert_polynomial()
    assert poly.coeffs == {(0, 0): F(1), (1, 0): F(1), (0, 1): F(1),
                           (1, 1): F(1)}
    assert mixed[(1, 1)] == 1
    assert mixed[(2, 0)] == 0
    assert mixed[(0, 2)] == 0


def test_hilbert_polynomial_line():
    a = MonomialAlgebra.from_generators(2, 1, [((1, 0), (1,)),
                                               ((0, 1), (1,))])
    poly, mixed = a.hilbert_polynomial()
    assert poly.coeffs == {(0,): F(1), (1,): F(1)}
    assert mixed[(1,)] == 1


def test_hilbert_polynomial_constant():
    a = MonomialAlgebra.from_generators(0, 2, [((), (1, 0)), ((), (0, 1))])
    poly, mixed = a.hilbert_polynomial()
    assert poly.coeffs == {(0, 0): F(1)}
    assert mixed[(0, 0)] == 1


def test_mixed_multiplicities_segre():
    rep = segre().mixed_multiplicities((1, 1))
    assert rep.value == 1
    assert rep.provenance == "exact"
    assert rep.positive
    assert all(v == 1 for _, v in rep.ladder)
    rep2 = segre().mixed_multiplicities((2, 0))
    assert rep2.value == 0
    assert not rep2.positive


def test_mixed_multiplicities_requires_decomposable():
    with pytest.raises(ValidationError):
        min_algebra().mixed_multiplicities((1,))


def test_positivity():
    assert segre().positivity((1, 1)) == (True, None)
    ok, cert = segre().positivity((2, 0))
    assert not ok and cert == (1,)
    line = MonomialAlgebra.from_generators(2, 1, [((1, 0), (1,)),
                                                  ((0, 1), (1,))])
    assert line.positivity((1,)) == (True, None)


@settings(max_examples=200)
@given(d=st.lists(st.integers(0, 3), min_size=1, max_size=4),
       data=st.data())
def test_subset_positivity_matches_all_subsets(d, data):
    # Subsets as bitmasks over the axes, independent of combinations().
    s = len(d)
    rank_of = {mask: data.draw(st.integers(-1, 6))
               for mask in range(1, 2 ** s)}

    def axes(mask):
        return tuple(j + 1 for j in range(s) if mask >> j & 1)

    calls = []

    def rank(sub):
        calls.append(sub)
        return rank_of[sum(1 << (j - 1) for j in sub)]

    failing = [axes(mask) for mask, r in rank_of.items()
               if sum(d[j - 1] for j in axes(mask)) > r]
    first = min(failing, key=lambda sub: (len(sub), sub), default=None)
    assert subset_positivity(tuple(d), rank) == (first is None, first)
    # Nothing is computed past the first failing subset.
    assert first is None or calls[-1] == first


def test_fujita_ladder_golden():
    a = golden_algebra()
    vals = {}
    for p in (5, 10, 11, 55):
        ap = a.p_subalgebra(p)
        _, mixed = ap.hilbert_polynomial()
        vals[p] = F(mixed[(1,)], p)
    assert vals[5] <= vals[10]  # divisibility monotonicity
    assert vals[55] == F(89, 55)


def test_positivity_consistency():
    a = segre()
    for d in [(1, 1), (2, 0), (0, 2)]:
        rep = a.mixed_multiplicities(d)
        positive, _ = a.positivity(d)
        assert positive == (rep.value > 0), d


def test_ladder_report_extrapolates_disagreeing_rungs():
    rep = ladder_report((1,), lambda p: F(p - 1, p), (1, 2),
                        lambda value: value > 0)
    assert rep.ladder == ((1, F(0)), (2, F(1, 2)))
    assert rep.provenance == "extrapolated"
    assert rep.value == 1.0 and rep.positive
    with pytest.raises(ValidationError):
        ladder_report((1,), lambda p: F(1), (4,), lambda value: True)


@pytest.mark.parametrize("value, flag", [(F(0), True), (F(1, 3), False)])
def test_exact_ladder_against_positivity_raises(value, flag):
    with pytest.raises(InternalConsistencyError,
                       match=rf"type \(1,\): exact value {value} > 0 is "
                             rf"{not flag}, but .* says {flag}"):
        ladder_report((1,), lambda p: value, (1, 2), lambda v: flag)
    # Only an exact value is held to the criterion.
    rep = ladder_report((1,), lambda p: value + F(1, p), (1, 2),
                        lambda v: flag)
    assert rep.provenance == "extrapolated" and rep.positive is flag


def test_stable_fit_recovers_fractional_coefficients():
    # Held-out points are compared in integers, scaled by the lcm 6 of
    # the coefficients' denominators.
    def fn(p):
        return math.comb(p[0] + p[1] + 2, 3) + p[0] * p[1]

    poly = _stable_fit(fn, 2, 3)
    for p in ((0, 0), (1, 5), (7, 2), (30, 41)):
        assert poly.evaluate(p) == fn(p), p
    assert poly.coeffs[(3, 0)] == Fraction(1, 6)


def test_stable_fit_rejects_non_polynomial():
    with pytest.raises(RegularityNotReachedError):
        _stable_fit(lambda p: 2 ** p[0] + p[1], 2, 2, cap=64)


@st.composite
def fit_functions(draw):
    """An integer-valued polynomial of degree <= q in s <= 3 variables,
    written in binomials, plus an optional non-polynomial part: one that
    never settles, or one that vanishes only from some point on."""
    s = draw(st.integers(1, 3))
    q = draw(st.integers(0, 3))
    exps = [e for t in range(q + 1) for e in compositions(t, s)]
    terms = draw(st.lists(st.tuples(st.sampled_from(exps),
                                    st.integers(-4, 4)), max_size=5))
    extra = draw(st.sampled_from(("none", "exponential", "floor", "early")))
    cut = draw(st.integers(1, 20))

    def fn(p):
        value = sum(c * math.prod(math.comb(x, k) for x, k in zip(p, e))
                    for e, c in terms)
        if extra == "exponential":
            value += 2 ** min(p[0], 80)
        elif extra == "floor":
            value += p[0] * p[-1] // 3
        elif extra == "early":
            value += p[0] < cut
        return value

    return fn, s, q


@settings(max_examples=150)
@given(fit_functions())
@example((lambda p: math.comb(p[0] + p[1] + 2, 3) + p[0] * p[1], 2, 3))
@example((lambda p: 2 ** p[0] + p[1], 2, 2))
def test_stable_fit_matches_vandermonde_reference(case):
    # Equal coefficients, equal last fits on failure, and the same points
    # asked for in the same order.
    fn, s, q = case
    results = []
    for fit in (_stable_fit, ref.stable_fit):
        calls = []
        try:
            out = fit(lambda p: calls.append(p) or fn(p), s, q, cap=64)
            results.append((out.coeffs, list(out.coeffs), calls))
        except RegularityNotReachedError as exc:
            results.append(("raised", exc.last_fits, calls))
    assert results[0] == results[1]


import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oklab.errors import (EmptyTruncationError, ResourceLimitError,
                          UnsupportedSemigroupError, ValidationError)
from oklab.semigroup import BoundRule, GradedSemigroup, StaircaseSpec, \
    _bit_layout, _bitset_box, _power_sums, _series_box, tail_fit

F = Fraction


def staircase_44():
    return StaircaseSpec(
        s=2,
        lower=BoundRule("ceil_sqrt_quadratic", quadratic=((4, 0), (0, 4))),
        upper=BoundRule("linear", forms=((F(2), F(2)),)))


def staircase_min():
    return StaircaseSpec(
        s=2,
        lower=BoundRule("linear", forms=((F(0), F(0)),)),
        upper=BoundRule("min", forms=((F(1), F(0)), (F(0), F(1)))))


def staircase_golden():
    return StaircaseSpec(
        s=1,
        lower=BoundRule("linear", forms=((F(0),),)),
        upper=BoundRule("linear", forms=((F(89, 55),),)))


def test_graded_piece_generators():
    sg = GradedSemigroup.from_generators(
        1, 1, [((0,), (1,)), ((1,), (1,)), ((2,), (1,))])
    piece = sg.graded_piece((3,))
    assert piece == frozenset({(j,) for j in range(7)})
    assert sg.graded_piece((0,)) == frozenset({(0,)})


def test_graded_piece_staircase_44():
    sg = GradedSemigroup.from_staircase(staircase_44())
    assert sg.graded_piece((1, 1)) == frozenset({(3,), (4,)})
    assert sg.piece_size((3, 4)) == 5  # 14 - 10 + 1


def test_staircase_closure_violation_rejected():
    bad = StaircaseSpec(
        s=1,
        lower=BoundRule("linear", forms=((F(0),),)),
        upper=BoundRule("linear", forms=((F(1, 2),),)))
    # floor(n/2) is superadditive, so this one is fine...
    GradedSemigroup.from_staircase(bad)
    worse = StaircaseSpec(
        s=1,
        lower=BoundRule("linear", forms=((F(0),),)),
        upper=BoundRule("ceil_sqrt_quadratic", quadratic=((2,),)))
    # sqrt-type upper bounds are subadditive, not superadditive.
    with pytest.raises(ValidationError):
        GradedSemigroup.from_staircase(worse)


def test_invariants_ind_two():
    sg = GradedSemigroup.from_generators(1, 1, [((0,), (1,)), ((2,), (1,))])
    inv = sg.invariants()
    assert inv["m"] == 1
    assert inv["ind"] == 2
    assert inv["strongly_nonneg"]
    assert inv["L_dim"] == 2


def test_invariants_ind_three():
    sg = GradedSemigroup.from_generators(1, 1, [((0,), (2,)), ((3,), (2,))])
    inv = sg.invariants()
    assert inv["m"] == 2
    assert inv["ind"] == 3


def test_invariants_rank_one():
    sg = GradedSemigroup.from_generators(1, 1, [((1,), (1,))])
    inv = sg.invariants()
    assert inv["m"] == 1
    assert inv["ind"] == 1
    assert inv["L_dim"] == 1


def test_okounkov_body_segments():
    sg = GradedSemigroup.from_generators(1, 1, [((0,), (1,)), ((2,), (1,))])
    body = sg.okounkov_body()
    assert set(body.vertices) == {(F(0), F(1)), (F(2), F(1))}
    sg2 = GradedSemigroup.from_generators(1, 1, [((0,), (2,)), ((3,), (2,))])
    body2 = sg2.okounkov_body()
    assert set(body2.vertices) == {(F(0), F(2)), (F(3), F(2))}


def test_okounkov_body_triangle():
    sg = GradedSemigroup.from_generators(
        2, 1, [((0, 0), (1,)), ((1, 0), (1,)), ((0, 1), (1,))])
    body = sg.okounkov_body()
    assert set(body.vertices) == {(F(0), F(0), F(1)), (F(1), F(0), F(1)),
                                  (F(0), F(1), F(1))}


def test_strong_nonnegativity_holds_with_positive_degrees():
    # A nonzero nonnegative combination of generators has positive total
    # degree, so these cones are always pointed.
    sg = GradedSemigroup.from_generators(
        1, 1, [((1,), (1,)), ((-1,), (1,))])
    assert sg.invariants()["strongly_nonneg"]
    assert set(sg.okounkov_body().vertices) == {(F(-1), F(1)),
                                                (F(1), F(1))}


def test_invariants_need_a_generator_source():
    staircase = GradedSemigroup.from_staircase(staircase_golden())
    segre = GradedSemigroup.from_generators(
        2, 2, [((1, 0), (1, 0)), ((0, 1), (0, 1))])
    for sg in (staircase, segre.veronese_ray((1, 2))):
        with pytest.raises(UnsupportedSemigroupError):
            sg.invariants()
        with pytest.raises(UnsupportedSemigroupError):
            sg.okounkov_body()


def test_counts_bitset_matches_enumeration():
    sg = GradedSemigroup.from_generators(
        2, 1, [((0, 0), (1,)), ((1, 0), (1,)), ((0, 1), (2,)),
               ((2, 1), (1,))])
    counts = sg.counts_upto(12)
    for n in range(13):
        assert counts[n] == len(sg.graded_piece((n,))), n
        assert type(counts[n]) is int
    # A smaller request reads the head of the box already counted.
    assert sg.counts_upto(3) == {n: counts[n] for n in range(4)}


def test_counts_rank_one():
    sg = GradedSemigroup.from_generators(1, 1, [((2,), (2,)), ((3,), (3,))])
    counts = sg.counts_upto(10)
    # Numerical semigroup <2,3> on the diagonal: gap only at degree 1.
    assert [counts[n] for n in range(6)] == [1, 0, 1, 1, 1, 1]


def test_kk_limit_simple():
    sg = GradedSemigroup.from_generators(
        1, 1, [((0,), (1,)), ((1,), (1,)), ((2,), (1,))])
    out = sg.kk_limit_check(n_max=200)
    assert out["predicted"] == 2
    assert out["rel_err"] < 1e-9


def test_kk_limit_constant_case():
    sg = GradedSemigroup.from_generators(1, 1, [((0,), (1,))])
    out = sg.kk_limit_check(n_max=50)
    assert out["q"] == 0
    assert out["predicted"] == 1
    assert out["rel_err"] < 1e-9


def test_truncate():
    sg = GradedSemigroup.from_staircase(staircase_44())
    t = sg.truncate((1, 1))
    assert set(t.generators) == {((3,), (1, 1)), ((4,), (1, 1))}
    with pytest.raises(EmptyTruncationError):
        GradedSemigroup.from_generators(
            1, 1, [((0,), (2,))]).truncate((3,))


def test_truncation_containment():
    sg = GradedSemigroup.from_generators(
        1, 1, [((0,), (1,)), ((1,), (2,)), ((3,), (1,))])
    t = sg.truncate((2,))
    for n in range(1, 7):
        assert t.graded_piece((2 * n,)) <= sg.graded_piece((2 * n,))


def test_truncation_sandwich():
    sg = GradedSemigroup.from_generators(
        1, 1, [((0,), (1,)), ((2,), (1,))])
    for p in range(1, 7):
        t = sg.truncate((p,))
        for n in range(1, 7):
            star = {tuple(n * x for x in v)
                    for v in sg.graded_piece((p,))}
            inner = t.graded_piece((n * p,))
            outer = sg.graded_piece((n * p,))
            assert star <= set(inner) <= set(outer), (p, n)


def test_veronese_ray_staircase():
    sg = GradedSemigroup.from_staircase(staircase_min())
    ray = sg.veronese_ray((1, 1))
    assert ray.piece_size((4,)) == 5
    assert ray.counts_upto(6)[5] == 6


def test_veronese_ray_validation():
    sg = GradedSemigroup.from_staircase(staircase_min())
    with pytest.raises(ValidationError):
        sg.veronese_ray((1, 0))
    with pytest.raises(ValidationError):
        sg.veronese_ray((1,))


def test_golden_piece_sizes():
    sg = GradedSemigroup.from_staircase(staircase_golden())
    sizes = [sg.piece_size((n,)) for n in range(6)]
    assert sizes == [1, 2, 4, 5, 7, 9]


def test_monotone_counts():
    sg = GradedSemigroup.from_generators(
        1, 1, [((0,), (1,)), ((3,), (2,))])
    counts = sg.counts_upto(40)
    assert all(counts[n] <= counts[n + 1] for n in range(40))


def test_approximation_ind_stabilizes():
    sg = GradedSemigroup.from_generators(1, 1, [((0,), (1,)), ((2,), (1,))])
    inv = sg.invariants()
    for p in (2, 3, 4, 6):
        t = sg.truncate((p,))
        tinv = t.invariants()
        assert tinv["ind"] == inv["ind"], p
        assert t.okounkov_body().affine_dim == sg.okounkov_body().affine_dim


def test_generator_validation():
    with pytest.raises(ValidationError):
        GradedSemigroup.from_generators(1, 1, [((0,), (0,))])
    with pytest.raises(ValidationError):
        GradedSemigroup.from_generators(1, 2, [((0,), (1,))])


def test_tail_fit_recovers_the_leading_coefficient():
    # The normal equations are solved exactly, so counts on the model
    # give its coefficient exactly, from a list or a range of ks.
    ks = list(range(10, 21))
    assert tail_fit(ks, [3 * k * k + 5 * k for k in ks], 2) == 3.0
    assert tail_fit(range(10, 21), [3 * k * k + 5 * k for k in ks], 2) == 3.0
    assert tail_fit(ks, [7] * len(ks), 0) == 7.0
    with pytest.raises(ValidationError):
        tail_fit([5], [80], 2)


@settings(max_examples=200)
@given(st.integers(-20, 40), st.integers(-6, 6).filter(bool),
       st.integers(0, 30), st.integers(0, 8))
def test_power_sums_of_a_range_match_direct_sums(lo, step, n, top):
    ks = range(lo, lo + step * n, step)
    assert _power_sums(ks, top) == _power_sums(list(ks), top) == \
        [sum(k ** j for k in ks) for j in range(top + 1)]


# -- counting engine against brute force ------------------------------------

def brute_force_pieces(r, s, gens, top):
    """{n: set of valuations} over all N-combinations of degree <= top."""
    pieces = {}

    def extend(i, val, deg):
        if i == len(gens):
            pieces.setdefault(deg, set()).add(val)
            return
        gval, gdeg = gens[i]
        while all(x <= t for x, t in zip(deg, top)):
            extend(i + 1, val, deg)
            val = tuple(a + b for a, b in zip(val, gval))
            deg = tuple(a + b for a, b in zip(deg, gdeg))

    extend(0, (0,) * r, (0,) * s)
    return pieces


@st.composite
def generator_sets(draw):
    r = draw(st.integers(0, 3))
    s = draw(st.integers(1, 3))
    deg = st.tuples(*[st.integers(0, 2)] * s).filter(any)
    val = st.tuples(*[st.integers(-1, 2)] * r)
    gens = draw(st.lists(st.tuples(val, deg), min_size=1, max_size=5))
    return r, s, gens


@settings(max_examples=150)
@given(generator_sets(), st.randoms(use_true_random=False))
# Collides if the bit widths are sized by max(top) instead of |top|.
@example((3, 2, [((0, -1, 2), (1, 2)), ((-1, 0, 2), (2, 0)),
                 ((-1, 0, 0), (0, 1)), ((0, 1, 2), (1, 1))]),
         random.Random(0))
def test_piece_counts_match_brute_force(presented, rnd):
    r, s, gens = presented
    top = (3,) * s if s < 3 else (2,) * s
    oracle = brute_force_pieces(r, s, gens, top)
    points = GradedSemigroup.from_generators(r, s, gens)
    # One counting box sized exactly to top; one that grows by doubling
    # as shuffled requests fall outside it.
    exact = GradedSemigroup.from_generators(r, s, gens)
    exact.piece_size(top)
    grown = GradedSemigroup.from_generators(r, s, gens)
    degrees = list(itertools.product(*[range(t + 1) for t in top]))
    rnd.shuffle(degrees)
    for n in degrees:
        want = len(oracle.get(n, ()))
        assert exact.piece_size(n) == grown.piece_size(n) == want, n
        assert len(points.graded_piece(n)) == want, n


@settings(max_examples=60)
@given(generator_sets(), st.data())
def test_ray_counts_match_parent_pieces(presented, data):
    r, s, gens = presented
    ray = data.draw(st.tuples(*[st.integers(1, 2)] * s))
    n_max = 3 if s < 3 else 2
    parent = GradedSemigroup.from_generators(r, s, gens)
    counts = parent.veronese_ray(ray).counts_upto(n_max)
    assert sorted(counts) == list(range(n_max + 1))
    for k, count in counts.items():
        assert count == len(parent.graded_piece(tuple(k * x for x in ray)))


def test_counting_guard_fires_before_allocation(monkeypatch):
    monkeypatch.setenv("OKLAB_MEMORY_LIMIT_MB", "1")
    segre = GradedSemigroup.from_generators(
        4, 2, [((1, 0, 0, 0), (1, 0)), ((0, 1, 0, 0), (1, 0)),
               ((0, 0, 1, 0), (0, 1)), ((0, 0, 0, 1), (0, 1))])
    assert segre.piece_size((20, 20)) == 21 * 21
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            segre.piece_size((300, 300))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


@st.composite
def independent_sets(draw):
    """Q-independent generators and a starting box (r <= 3, s <= 3)."""
    r = draw(st.integers(0, 3))
    s = draw(st.integers(1, 3))
    k = draw(st.integers(1, r + s))
    deg = st.tuples(*[st.integers(0, 3)] * s).filter(any)
    val = st.tuples(*[st.integers(-1, 2)] * r)
    gens = draw(st.lists(st.tuples(val, deg), min_size=k, max_size=k))
    assume(np.linalg.matrix_rank([v + d for v, d in gens]) == k)
    top = draw(st.tuples(*[st.integers(0, 2)] * s))
    return r, s, gens, top


@settings(max_examples=300)
@given(independent_sets())
# A generator of degree (3, 0): no step fits the first box, then the
# steps run along the first axis only.
@example((1, 2, [((1,), (3, 0)), ((0,), (1, 2))], (2, 2)))
# Steps of (2, 1) overshoot the first axis while the second still fits.
@example((0, 2, [((), (2, 1)), ((), (0, 1))], (3, 9)))
def test_series_counts_match_bitset_dp(presented):
    r, s, gens, top = presented
    degs = [deg for _, deg in gens]
    # The box grows by doubling, as piece_size grows it.
    for _ in range(3):
        rank, shifts, bits = _bit_layout(r, s, gens, top)
        assert rank == len(gens)
        want = _bitset_box(degs, shifts, bits, top)
        got = _series_box(degs, top)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), top
        top = tuple(2 * t for t in top)


def test_bitset_guard_fires_before_allocation(monkeypatch):
    # Segre plus the sum of two of its generators: the same semigroup,
    # but the generators are dependent, so the bitset DP counts it.
    monkeypatch.setenv("OKLAB_MEMORY_LIMIT_MB", "1")
    segre = GradedSemigroup.from_generators(
        4, 2, [((1, 0, 0, 0), (1, 0)), ((0, 1, 0, 0), (1, 0)),
               ((0, 0, 1, 0), (0, 1)), ((0, 0, 0, 1), (0, 1)),
               ((1, 0, 1, 0), (1, 1))])
    assert segre.piece_size((20, 20)) == 21 * 21
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            segre.piece_size((300, 300))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


LINE = (1, 1, [((0,), (1,)), ((1,), (1,))])


def largest_admitted(r, s, gens, box):
    """Largest a whose box(a) passes the memory guard, by bisection."""
    def admitted(a):
        try:
            GradedSemigroup.from_generators(r, s, gens).piece_size(box(a))
        except ResourceLimitError:
            return False
        return True

    lo, hi = 0, 1 << 20  # admitted(lo), not admitted(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("r, s, gens", [
    LINE,
    # Segre: the adds along the second axis are strided.
    (4, 2, [((1, 0, 0, 0), (1, 0)), ((0, 1, 0, 0), (1, 0)),
            ((0, 0, 1, 0), (0, 1)), ((0, 0, 0, 1), (0, 1))]),
])
def test_series_guard_is_tight(monkeypatch, r, s, gens):
    monkeypatch.setenv("OKLAB_MEMORY_LIMIT_MB", "1")

    def box(a):
        return (a,) + (255,) * (s - 1)

    lo = largest_admitted(r, s, gens, box)
    sg = GradedSemigroup.from_generators(r, s, gens)
    tracemalloc.start()
    try:
        sg.piece_size(box(lo))
        peak = tracemalloc.get_traced_memory()[1]
        with pytest.raises(ResourceLimitError):
            GradedSemigroup.from_generators(r, s, gens).piece_size(
                box(lo + 1))
    finally:
        tracemalloc.stop()
    # The box holds a third of the limit, and counting it stays within.
    points = math.prod(t + 1 for t in box(lo))
    assert 8 * points > 1024 * 1024 // 3
    assert peak <= 1024 * 1024
    assert sg.piece_size(box(lo)) == points  # both: prod(n_i + 1)


def test_grown_box_stays_within_the_guard(monkeypatch):
    # piece_size grows its box by doubling; the box it outgrew must not
    # stay alive beside the new one, which is all the guard counts.
    monkeypatch.setenv("OKLAB_MEMORY_LIMIT_MB", "1")
    lo = largest_admitted(*LINE, lambda a: (a,))
    sg = GradedSemigroup.from_generators(*LINE)
    tracemalloc.start()
    try:
        sg.piece_size((lo // 2,))
        assert sg.piece_size((lo,)) == lo + 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1024 * 1024


def test_box_grows_only_on_outgrown_axes(monkeypatch):
    # Under 1 MB the box (219, 255) is admitted (220 x 256 points) but
    # (219, 510) is not; growing the first axis must leave the second.
    monkeypatch.setenv("OKLAB_MEMORY_LIMIT_MB", "1")
    segre = GradedSemigroup.from_generators(
        4, 2, [((1, 0, 0, 0), (1, 0)), ((0, 1, 0, 0), (1, 0)),
               ((0, 0, 1, 0), (0, 1)), ((0, 0, 0, 1), (0, 1))])
    assert segre.piece_size((100, 255)) == 101 * 256
    assert segre.piece_size((219, 255)) == 56320
    assert segre._counts.shape == (220, 256)

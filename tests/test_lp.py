"""Properties of the integer phase-1 simplex in ``oklab.lp``.

Feasibility answers, pivot paths and final tableaux are checked against
the Fraction tableau kept in ``lp_reference``.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import lp_reference as ref
from oklab import lp

F = Fraction
SETTINGS = settings(max_examples=200)

INTEGERS = st.integers(-3, 3)
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def systems(draw):
    """Small systems ``rows @ x = rhs``, often degenerate.

    Columns repeat or vanish, rows may be combinations of other rows,
    and right-hand sides are negative, zero, or ``rows @ x`` for some
    x >= 0 with zeros (so that feasible systems are common).
    """
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 15))
    entry = draw(st.sampled_from([INTEGERS, RATIONALS]))
    cols = []
    for _ in range(n):
        kind = draw(st.integers(0, 5))
        if kind == 0 and cols:
            cols.append(list(draw(st.sampled_from(cols))))
        elif kind == 1:
            cols.append([F(0)] * m)
        else:
            cols.append([draw(entry) for _ in range(m)])
    rows = [[c[i] for c in cols] for i in range(m)]
    if m > 1 and draw(st.booleans()):
        # Rank-deficient: the last row is a combination of the others.
        coef = [draw(INTEGERS) for _ in range(m - 1)]
        rows[-1] = [sum(c * r[j] for c, r in zip(coef, rows))
                    for j in range(n)]
    if draw(st.booleans()):
        x = [draw(st.sampled_from([0, 0, 1, 2, F(1, 2)])) for _ in range(n)]
        rhs = [sum(a * b for a, b in zip(r, x)) for r in rows]
    else:
        rhs = [draw(st.one_of(INTEGERS, RATIONALS, st.just(0)))
               for _ in range(m)]
    return rows, rhs


def integer_rows(rows, rhs):
    """Each row times the lcm of its denominators, negated if rhs < 0."""
    tab = []
    for row, b in zip(rows, rhs):
        row = [F(x) for x in row] + [F(b)]
        den = math.lcm(*(x.denominator for x in row))
        sign = -1 if b < 0 else 1
        tab.append([int(sign * den * x) for x in row])
    return tab


@SETTINGS
@given(systems())
def test_feasible_nonneg_matches_reference(system):
    rows, rhs = system
    assert lp.feasible_nonneg(rows, rhs) == ref.feasible_nonneg(rows, rhs)


@SETTINGS
@given(systems())
def test_integer_pivots_follow_the_fraction_tableau(system):
    # Positive row scaling leaves the feasible set alone, so the Fraction
    # tableau on the same integer rows takes the same pivots; every
    # integer entry over the last pivot is its Fraction entry.
    tab = integer_rows(*system)
    rbasis, rtab, robj = ref.phase_one([r[:-1] for r in tab],
                                       [r[-1] for r in tab])
    basis, obj, d = lp._phase_one(tab)
    assert d > 0
    assert basis == rbasis
    assert [[F(x, d) for x in r] for r in tab] == rtab
    assert [F(x, d) for x in obj] == robj


def test_feasible_nonneg_edge_cases():
    assert lp.feasible_nonneg([], [])
    assert lp.feasible_nonneg([[]], [0])
    assert not lp.feasible_nonneg([[]], [F(1, 2)])
    assert not lp.feasible_nonneg([[1]], [-1])
    assert lp.feasible_nonneg([[-1]], [-1])
    assert lp.feasible_nonneg([[F(1, 3), F(1, 6)]], [F(1, 2)])


def test_in_convex_hull():
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert lp.in_convex_hull((1, 1), square)
    assert lp.in_convex_hull((F(1, 2), 2), square)
    assert not lp.in_convex_hull((3, 1), square)
    assert not lp.in_convex_hull((0, 0), [])

"""Properties of the fraction-free elimination kernel in ``oklab.lattice``.

Ranks, determinants and solutions are checked against the Fraction
Gauss-Jordan references in ``elimination_reference`` and, for
determinants, against the Leibniz formula.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import elimination_reference as ref
from oklab.errors import InternalConsistencyError
from oklab.lattice import det, echelon, int_det, rational_rank, solve
from oklab.polytope import _solve_square

F = Fraction
SETTINGS = settings(max_examples=150)

INTEGERS = st.integers(-4, 4)
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def matrices(draw, rows=None, cols=None, entries=None):
    """Small matrices, often rank-deficient or with zero rows."""
    m = draw(st.integers(0, 5)) if rows is None else rows
    n = draw(st.integers(0, 5)) if cols is None else cols
    entry = entries if entries is not None else draw(
        st.sampled_from([INTEGERS, RATIONALS]))
    if draw(st.booleans()):
        # A product of m x k and k x n factors has rank at most k.
        k = draw(st.integers(0, min(m, n)))
        a = [[draw(entry) for _ in range(k)] for _ in range(m)]
        b = [[draw(entry) for _ in range(n)] for _ in range(k)]
        out = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
               for i in range(m)]
    else:
        out = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for i in range(m):
        if draw(st.integers(0, 5)) == 0:
            out[i] = [0] * n
    return out


def leibniz(rows):
    n = len(rows)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = F((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def combination(coeffs, columns, dim):
    return [sum(c * col[i] for c, col in zip(coeffs, columns))
            for i in range(dim)]


@SETTINGS
@given(matrices())
def test_echelon_shape(rows):
    a, pivots, sign, scale = echelon(rows)
    assert sign in (1, -1)
    assert scale == math.prod(
        math.lcm(*(F(x).denominator for x in r)) for r in rows)
    assert all(isinstance(x, int) for r in a for x in r)
    assert pivots == sorted(set(pivots))
    for i, row in enumerate(a):
        if i < len(pivots):
            assert row[pivots[i]] != 0
            assert not any(row[:pivots[i]])
        else:
            assert not any(row)


@SETTINGS
@given(matrices())
def test_rank_matches_reference(rows):
    assert rational_rank(rows) == ref.rational_rank(rows)


@SETTINGS
@given(st.integers(0, 5).flatmap(lambda n: matrices(rows=n, cols=n)))
def test_det_matches_reference(rows):
    assert det(rows) == ref.det(rows)


@SETTINGS
@given(st.integers(0, 4).flatmap(lambda n: matrices(rows=n, cols=n)))
def test_det_matches_leibniz(rows):
    assert det(rows) == leibniz(rows)


@SETTINGS
@given(st.integers(0, 4).flatmap(
    lambda n: matrices(rows=n, cols=n, entries=st.integers(-9, 9))))
def test_int_det_is_an_exact_int(rows):
    value = int_det(rows)
    assert isinstance(value, int)
    assert value == leibniz(rows)


@SETTINGS
@given(st.data())
def test_solve(data):
    dim = data.draw(st.integers(0, 5))
    columns = data.draw(matrices(cols=dim))
    entry = st.integers(-3, 3)
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(entry, min_size=len(columns),
                                    max_size=len(columns)))
        target = combination(coeffs, columns, dim)
    else:
        target = data.draw(st.lists(entry, min_size=dim, max_size=dim))
    rank = ref.rational_rank(columns)
    independent = rank == len(columns)
    in_span = ref.rational_rank(columns + [target]) == rank
    sol = solve(columns, target)
    if independent:
        assert (sol is None) == (not in_span)
    else:
        assert sol is None
    if sol is not None:
        assert combination(sol, columns, dim) == target
        assert sol == ref.solve_in_basis(columns, target)


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    matrices(rows=n, cols=n), st.lists(RATIONALS, min_size=n,
                                       max_size=n))))
def test_solve_square(system):
    matrix, rhs = system
    if ref.det(matrix) == 0:
        with pytest.raises(InternalConsistencyError):
            _solve_square(matrix, rhs)
    else:
        columns = [list(c) for c in zip(*matrix)]
        assert _solve_square(matrix, rhs) == ref.solve_in_basis(columns,
                                                                rhs)


def test_small_cases():
    assert echelon([]) == ([], [], 1, 1)
    assert echelon([[0, 2], [1, 0]]) == ([[1, 0], [0, 2]], [0, 1], -1, 1)
    assert echelon([[F(1, 2), F(1, 3)]]) == ([[3, 2]], [0], 1, 6)
    assert det([[F(1, 2), 0], [0, F(2, 3)]]) == F(1, 3)
    assert det([[1, 2], [2, 4]]) == 0
    assert solve([(1, 0), (1, 1)], (3, 1)) == [2, 1]
    assert solve([(1, 0)], (0, 1)) is None
    assert solve([(1, 0), (2, 0)], (1, 0)) is None

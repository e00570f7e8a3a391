import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import elimination_reference as ref
from oklab.errors import DimensionMismatchError, NotASubgroupError
from oklab.lattice import (Sublattice, group_generated,
                           hermite_normal_form, int_det, integer_kernel,
                           lattice_preimage, rational_rank, saturation,
                           subgroup_index, vanishing_forms)


def test_hnf_identity_like():
    basis, rank = hermite_normal_form([(2, 0), (0, 3)])
    assert basis == [(2, 0), (0, 3)]
    assert rank == 2


def test_hnf_gcd_collapse():
    basis, rank = hermite_normal_form([(2, 4), (3, 6)])
    assert basis == [(1, 2)]
    assert rank == 1


def test_hnf_reduces_above_pivot():
    basis, _ = hermite_normal_form([(1, 5), (0, 3)])
    assert basis == [(1, 2), (0, 3)]


def test_hnf_empty_needs_dim():
    basis, rank = hermite_normal_form([], ncols=3)
    assert basis == [] and rank == 0
    with pytest.raises(DimensionMismatchError):
        hermite_normal_form([])


def test_hnf_mixed_dims_rejected():
    with pytest.raises(DimensionMismatchError):
        hermite_normal_form([(1, 2), (1, 2, 3)])


def test_group_membership_and_coordinates():
    lat = group_generated([(2, 0), (0, 3)])
    assert lat.contains((4, 3))
    assert not lat.contains((1, 0))
    assert lat.coordinates((4, 3)) == [2, 1]
    assert lat.member([2, 1]) == (4, 3)


def test_int_det():
    assert int_det([[2, 0], [0, 3]]) == 6
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[1, 2], [2, 4]]) == 0
    assert int_det([]) == 1


def test_subgroup_index_basic():
    amb = group_generated([(1, 0), (0, 1)])
    sub = group_generated([(2, 0), (0, 3)])
    assert subgroup_index(sub, amb) == 6


def test_subgroup_index_rank_drop():
    amb = group_generated([(1, 0), (0, 1)])
    sub = group_generated([(1, 1)])
    assert subgroup_index(sub, amb) == math.inf


def test_subgroup_index_not_contained():
    amb = group_generated([(2, 0), (0, 2)])
    sub = group_generated([(1, 1)])
    with pytest.raises(NotASubgroupError):
        subgroup_index(sub, amb)


def test_integer_kernel_saturated():
    ker = integer_kernel([(1, 1, 1)], 3)
    assert ker.rank == 2
    assert ker.contains((1, -1, 0))
    assert ker.contains((0, 1, -1))
    # Saturation: (1, 0, -1) = half of (2, 0, -2) must be present.
    assert ker.contains((1, 0, -1))


def test_vanishing_forms_and_saturation():
    lat = group_generated([(2, 2)])
    forms = vanishing_forms(lat)
    assert forms.contains((1, -1))
    sat = saturation(lat)
    assert sat.contains((1, 1))
    assert sat.rank == 1
    # In Z^0 there is nothing to eliminate.
    assert saturation(group_generated([], 0)).basis == ()


def test_lattice_preimage():
    # phi(x, y) = x + y; preimage of 2Z is {x + y even}.
    target = group_generated([(2,)], ambient_dim=1)
    pre = lattice_preimage([(1, 1)], target)
    assert pre.contains((1, 1))
    assert pre.contains((2, 0))
    assert not pre.contains((1, 0))


def test_rational_rank():
    assert rational_rank([(1, 2), (2, 4)]) == 1
    assert rational_rank([(1, 0), (0, 1), (1, 1)]) == 2
    assert rational_rank([]) == 0


# -- properties ---------------------------------------------------------------

def is_hnf(basis):
    """Row-style HNF: pivots move right, are positive, and every entry
    above a pivot lies in [0, pivot)."""
    cols = []
    for row in basis:
        col = next((i for i, u in enumerate(row) if u), None)
        if col is None or row[col] <= 0 or (cols and col <= cols[-1]):
            return False
        cols.append(col)
    return all(0 <= basis[i][c] < basis[k][c]
               for k, c in enumerate(cols) for i in range(k))


def minor_gcd(rows, k):
    """gcd of the k x k minors: an invariant of the row lattice."""
    n = len(rows[0]) if rows else 0
    return math.gcd(*(int(ref.det([[r[c] for c in cols] for r in sub]))
                      for sub in itertools.combinations(rows, k)
                      for cols in itertools.combinations(range(n), k)))


def in_row_lattice(basis, v):
    """Whether v is an integer combination of the HNF rows."""
    v = list(v)
    for row in basis:
        col = next(i for i, u in enumerate(row) if u)
        q, r = divmod(v[col], row[col])
        if r:
            return False
        v = [u - q * w for u, w in zip(v, row)]
    return not any(v)


@st.composite
def int_matrices(draw, max_rows=5):
    """Small integer matrices, often of low rank or with repeated rows."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, max_rows))
    entry = st.integers(-4, 4)
    if draw(st.booleans()):
        k = draw(st.integers(0, min(m, n)))
        a = [[draw(entry) for _ in range(k)] for _ in range(m)]
        b = [[draw(entry) for _ in range(n)] for _ in range(k)]
        return [tuple(sum(a[i][t] * b[t][j] for t in range(k))
                      for j in range(n)) for i in range(m)], n
    return [tuple(draw(entry) for _ in range(n)) for _ in range(m)], n


@settings(max_examples=200)
@given(int_matrices())
def test_hnf_spans_the_same_lattice(case):
    rows, n = case
    basis, rank = hermite_normal_form(rows, ncols=n)
    assert is_hnf(basis)
    assert rank == len(basis) == ref.rational_rank(rows)
    assert all(in_row_lattice(basis, row) for row in rows)
    # Same rank, input inside, same maximal-minor gcd: the same lattice.
    assert minor_gcd(basis, rank) == minor_gcd(rows, rank)


@settings(max_examples=200)
@given(int_matrices(max_rows=3))
def test_integer_kernel_is_the_saturated_solution_group(case):
    constraints, n = case
    ker = integer_kernel(constraints, n)
    basis = [list(b) for b in ker.basis]
    assert is_hnf(basis)
    assert ker.rank == n - ref.rational_rank(constraints)
    assert all(sum(c * x for c, x in zip(row, b)) == 0
               for row in constraints for b in basis)
    # Saturated: the maximal minors of the basis are coprime, and every
    # small integer solution is in the lattice.
    assert minor_gcd(basis, ker.rank) == 1
    for x in itertools.product(range(-2, 3), repeat=n):
        if all(sum(c * v for c, v in zip(row, x)) == 0
               for row in constraints):
            assert in_row_lattice(basis, x)

"""Exact integer linear algebra over sublattices of Z^n.

Points are plain tuples of Python ints (arbitrary precision).  A
``Sublattice`` stores a row-style Hermite normal form basis: pivot
entries positive, entries above each pivot reduced into [0, pivot).

All elimination over Q lives here, in one fraction-free kernel:
``echelon`` (Bareiss) gives ranks, determinants, solutions in a basis
and greedy independent subsets.  Lattice bases go through the
unimodular ``hermite_normal_form`` instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, NotASubgroupError


def _xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def check_same_dim(points):
    dims = {len(p) for p in points}
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed ambient dimensions {sorted(dims)}")


def hermite_normal_form(rows, ncols=None):
    """Row-style HNF of the lattice spanned by ``rows``.

    Returns ``(basis, rank)`` where ``basis`` is a list of nonzero HNF
    rows spanning the same row lattice.  ``ncols`` is required when
    ``rows`` is empty.
    """
    rows = [list(r) for r in rows]
    if rows:
        check_same_dim(rows)
        n = len(rows[0])
        if ncols is not None and ncols != n:
            raise DimensionMismatchError(f"rows have dim {n}, expected {ncols}")
    elif ncols is None:
        raise DimensionMismatchError("empty input needs an explicit ambient dim")
    else:
        n = ncols
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            while rows[i][col]:
                a, b = rows[rank][col], rows[i][col]
                g, x, y = _xgcd(a, b)
                r1 = [x * u + y * v for u, v in zip(rows[rank], rows[i])]
                r2 = [(a // g) * v - (b // g) * u for u, v in zip(rows[rank], rows[i])]
                rows[rank], rows[i] = r1, r2
        if rows[rank][col] < 0:
            rows[rank] = [-u for u in rows[rank]]
        p = rows[rank][col]
        for i in range(rank):
            q = rows[i][col] // p
            if q:
                rows[i] = [u - q * v for u, v in zip(rows[i], rows[rank])]
        rank += 1
    return [tuple(r) for r in rows[:rank]], rank


@dataclass(frozen=True)
class Sublattice:
    """A subgroup of Z^n presented by an HNF basis."""

    basis: tuple  # tuple of int tuples, rows in HNF
    ambient_dim: int

    @property
    def rank(self):
        return len(self.basis)

    def pivot_columns(self):
        return self._pivots

    @functools.cached_property
    def _pivots(self):
        return tuple(next(i for i, u in enumerate(row) if u)
                     for row in self.basis)

    def coordinates(self, point):
        """Integer coordinates of ``point`` in the basis, or None."""
        if len(point) != self.ambient_dim:
            raise DimensionMismatchError(
                f"point dim {len(point)} != ambient {self.ambient_dim}")
        v = list(point)
        coeffs = []
        for row, col in zip(self.basis, self.pivot_columns()):
            q, r = divmod(v[col], row[col])
            if r:
                return None
            coeffs.append(q)
            v = [u - q * w for u, w in zip(v, row)]
        return coeffs if not any(v) else None

    def contains(self, point):
        return self.coordinates(point) is not None

    def member(self, coeffs):
        """The lattice point with the given basis coordinates."""
        v = [0] * self.ambient_dim
        for c, row in zip(coeffs, self.basis):
            v = [u + c * w for u, w in zip(v, row)]
        return tuple(v)


def group_generated(points, ambient_dim=None):
    """The subgroup of Z^n generated (with negatives) by ``points``."""
    points = [tuple(p) for p in points]
    if points and ambient_dim is None:
        ambient_dim = len(points[0])
    basis, _ = hermite_normal_form(points, ncols=ambient_dim)
    return Sublattice(basis=tuple(basis), ambient_dim=ambient_dim)


def subgroup_index(sub, ambient):
    """Index [ambient : sub]; ``math.inf`` when the rank drops.

    Raises ``NotASubgroupError`` when ``sub`` is not contained in
    ``ambient``.
    """
    if sub.ambient_dim != ambient.ambient_dim:
        raise DimensionMismatchError("sublattices live in different ambients")
    coords = []
    for row in sub.basis:
        c = ambient.coordinates(row)
        if c is None:
            raise NotASubgroupError(f"{row} is not in the ambient lattice")
        coords.append(c)
    if sub.rank < ambient.rank:
        return math.inf
    return abs(int_det(coords))


def integer_kernel(constraints, n):
    """HNF basis of {x in Z^n : c . x = 0 for every constraint row c}.

    The result is saturated: it is the full group of integer solutions.
    """
    constraints = [tuple(c) for c in constraints]
    for c in constraints:
        if len(c) != n:
            raise DimensionMismatchError("constraint length mismatch")
    m = len(constraints)
    # Rows [c_1.e_i, ..., c_m.e_i | e_i]; rows that reduce to zero in the
    # first m columns carry kernel vectors in the trailing block.
    aug = []
    for i in range(n):
        aug.append([constraints[j][i] for j in range(m)] + [0] * n)
        aug[-1][m + i] = 1
    reduced, _ = hermite_normal_form(aug, ncols=m + n)
    kernel = [row[m:] for row in reduced if not any(row[:m])]
    basis, _ = hermite_normal_form(kernel, ncols=n)
    return Sublattice(basis=tuple(basis), ambient_dim=n)


def vanishing_forms(lattice):
    """Integer forms f with f . b = 0 for every basis vector b."""
    return integer_kernel(lattice.basis, lattice.ambient_dim)


def saturation(lattice):
    """Z^n intersected with the Q-span of ``lattice``."""
    forms = vanishing_forms(lattice)
    return integer_kernel(forms.basis, lattice.ambient_dim)


def lattice_preimage(phi, lattice):
    """{x in Z^n : phi @ x in lattice} for an integer matrix ``phi``.

    ``phi`` is a list of m rows of length n; ``lattice`` lives in Z^m.
    """
    phi = [tuple(r) for r in phi]
    m = len(phi)
    if m != lattice.ambient_dim:
        raise DimensionMismatchError("phi target dim != lattice ambient dim")
    n = len(phi[0]) if phi else 0
    k = lattice.rank
    # Solve phi @ x - B^T c = 0 over (x, c) in Z^(n+k), then project to x.
    constraints = []
    for j in range(m):
        constraints.append(
            list(phi[j]) + [-lattice.basis[i][j] for i in range(k)])
    sols = integer_kernel(constraints, n + k)
    projected = [row[:n] for row in sols.basis]
    basis, _ = hermite_normal_form(projected, ncols=n)
    return Sublattice(basis=tuple(basis), ambient_dim=n)


def echelon(rows):
    """Fraction-free row echelon form of a rational matrix (Bareiss).

    Each row is scaled to integers by the lcm of its denominators, then
    eliminated forward with row pivoting, skipping columns without a
    pivot.  Every update is divided exactly by the previous pivot, so
    all entries stay integers (minors of the scaled matrix).

    Returns ``(rows, pivots, sign, scale)``: the integer echelon rows,
    the pivot columns in order, the sign of the row permutation and the
    product of the row scales.
    """
    a = []
    scale = 1
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        a.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    m = len(a)
    pivots = []
    sign, prev = 1, 1
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        p = top[col]
        for i in range(r + 1, m):
            f = a[i][col]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        pivots.append(col)
    return a, pivots, sign, scale


def rational_rank(vectors):
    """Rank over Q of a list of rational vectors."""
    return len(echelon(vectors)[1])


def det(rows):
    """Determinant of a square rational matrix, as a Fraction."""
    a, pivots, sign, scale = echelon(rows)
    if not a:
        return Fraction(1)
    if len(pivots) < len(a):
        return Fraction(0)
    return Fraction(sign * a[-1][-1], scale)


def int_det(rows):
    """Determinant of a square integer matrix."""
    return int(det(rows))


def solve(columns, target):
    """Coordinates of ``target`` in the Q-basis ``columns``, or None.

    None when the target is outside the span of the columns or the
    columns are dependent, so a returned solution is the unique one.
    """
    k = len(columns)
    a, pivots, _, _ = echelon([[c[i] for c in columns] + [t]
                               for i, t in enumerate(target)])
    if pivots != list(range(k)):
        return None
    sol = [Fraction(0)] * k
    for i in range(k - 1, -1, -1):
        row = a[i]
        rest = row[k] - sum(row[j] * sol[j] for j in range(i + 1, k))
        sol[i] = Fraction(rest) / row[i]
    return sol

"""Exact linear programming, just enough for convex hulls.

A single primitive is exposed: phase-1 simplex feasibility of
``A x = b, x >= 0`` over the rationals (Bland's rule, so it always
terminates); convex-hull membership reduces to it.  The tableau holds
Python ints only.  Each row is scaled once by the lcm of its
denominators, and negated when its right-hand side is negative.  Pivots
are integer-preserving (Bareiss): every entry is the Fraction tableau's
entry times the last pivot, and a pivot divides exactly by the one
before it.  The artificial columns are not stored, since phase 1
updates them but never reads them.
"""

from __future__ import annotations

import math


def _phase_one(tab):
    """Bland's-rule phase 1 on integer rows ``a_i + [b_i]``, all b_i >= 0.

    ``tab`` is pivoted in place.  Returns ``(basis, obj, d)``: the basic
    column of each row (artificials are n..n+m-1), the phase-1 reduced
    costs with the artificial sum last, and the last pivot d > 0.  Every
    entry of ``tab`` and ``obj`` divided by d is the entry of the
    Fraction tableau; the system is feasible iff ``obj[-1] == 0``.
    """
    m = len(tab)
    n = len(tab[0]) - 1
    basis = list(range(n, n + m))
    obj = [sum(col) for col in zip(*tab)]
    d = 1
    while True:
        enter = -1
        for j in range(n):
            if obj[j] > 0 and j not in basis:
                enter = j
                break
        if enter < 0:
            break
        # Minimum ratio b_i / a_i,enter, cross-multiplied; ties go to the
        # row whose basic column has the smaller index.
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = tab[i][-1] * tab[leave][enter]
                rhs = tab[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            break  # unbounded cannot happen in phase 1; defensive
        prow = tab[leave]
        piv = prow[enter]
        for i in range(m):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [(piv * x - f * y) // d
                          for x, y in zip(tab[i], prow)]
        f = obj[enter]
        obj = [(piv * x - f * y) // d for x, y in zip(obj, prow)]
        basis[leave] = enter
        d = piv
    return basis, obj, d


def feasible_nonneg(rows, rhs):
    """Is there an x >= 0 with ``rows @ x = rhs``?  Exact.

    ``rows`` is a list of m equality rows of length n, with int or
    ``Fraction`` entries.
    """
    if not rows:
        return True
    tab = []
    for row, b in zip(rows, rhs):
        row = [*row, b]
        den = math.lcm(*[x.denominator for x in row])
        row = [x.numerator * (den // x.denominator) for x in row]
        if b < 0:
            row = [-x for x in row]
        tab.append(row)
    return _phase_one(tab)[1][-1] == 0


def in_convex_hull(point, points):
    """Exact membership of ``point`` in conv(points)."""
    if not points:
        return False
    rows = [[q[i] for q in points] for i in range(len(point))]
    rows.append([1] * len(points))
    return feasible_nonneg(rows, [*point, 1])

"""Reference Fraction simplex tableau for the LP tests.

This is the phase-1 simplex over ``Fraction`` that the integer tableau
in ``oklab.lp`` replaced: artificial columns stored, pivot row divided
by the pivot.  It stays here as an independent oracle only.
"""

from fractions import Fraction


def phase_one(rows, rhs):
    """Bland's-rule phase 1 of ``rows @ x = rhs, x >= 0``.

    Returns ``(basis, tab, obj)``: the basic column of each row, the
    final tableau without its artificial columns (structural columns,
    then the right-hand side) and the reduced costs with the artificial
    sum last.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(x) for x in r] for r in rows]
    b = [Fraction(x) for x in rhs]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    # Tableau with artificial basis; minimize the sum of artificials.
    # Columns: n structural + m artificial + rhs.  Artificials never
    # re-enter, so only structural reduced costs are tracked.
    tab = [a[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    obj = [sum(tab[i][j] for i in range(m)) for j in range(n)]
    obj.append(sum(tab[i][-1] for i in range(m)))
    while True:
        # Bland's rule: smallest structural index with positive reduced cost.
        enter = next((j for j in range(n)
                      if j not in basis and obj[j] > 0), None)
        if enter is None:
            break
        leave, best = None, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            break  # unbounded cannot happen in phase 1; defensive
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = obj[enter]
        if f:
            obj = [x - f * tab[leave][j] for j, x in enumerate(obj[:n])] + \
                  [obj[-1] - f * tab[leave][-1]]
        basis[leave] = enter
    return basis, [r[:n] + [r[-1]] for r in tab], obj


def feasible_nonneg(rows, rhs):
    """Is there an x >= 0 with ``rows @ x = rhs``?  Exact."""
    return phase_one(rows, rhs)[2][-1] == 0

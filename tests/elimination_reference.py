"""Reference Fraction Gauss-Jordan routines for the elimination tests.

These are the straightforward eliminations over ``Fraction`` that the
fraction-free kernel in ``oklab.lattice`` replaced; they stay here as
independent oracles only.
"""

from fractions import Fraction


def rational_rank(vectors):
    """Rank over Q by Gauss-Jordan elimination."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    if not rows:
        return 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [u * inv for u in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [u - f * w for u, w in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def det(rows):
    """Determinant of a square matrix by Gaussian elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    result = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            result = -result
        result *= a[col][col]
        inv = 1 / a[col][col]
        for i in range(col + 1, n):
            if a[i][col]:
                f = a[i][col] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return result


def solve_in_basis(basis, target):
    """Coordinates of ``target`` in the span of ``basis``, or None.

    Coordinates at columns without a pivot are set to zero.
    """
    k = len(basis)
    n = len(target)
    aug = [[Fraction(basis[j][i]) for j in range(k)] + [Fraction(target[i])]
           for i in range(n)]
    piv_cols = []
    row = 0
    for col in range(k):
        piv = next((i for i in range(row, n) if aug[i][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for i in range(n):
            if i != row and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        piv_cols.append(col)
        row += 1
    if any(aug[i][-1] for i in range(row, n)):
        return None
    sol = [Fraction(0)] * k
    for i, col in enumerate(piv_cols):
        sol[col] = aug[i][-1]
    return sol


def independent_subset(vectors):
    """Greedy-first maximal independent subset, one rank test per vector."""
    chosen = []
    for v in vectors:
        if rational_rank(chosen + [v]) > len(chosen):
            chosen.append(v)
    return chosen

"""Independent answers for every benchmark task kind.

Nothing here imports oklab: each oracle is a closed form or a brute-force
computation written from scratch, so a wrong answer from the library
cannot also be the expected one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# Tolerances fixed beforehand, taken from the acceptance suite.
KK_REL_TOL = 0.05          # limit-theorem suite: rel_err <= 5%
RAY_REL_TOL = 0.05         # counting estimates along rays
NONPOLY_ABS_TOL = 0.05     # non-polyhedral staircase estimate
BHATTACHARYA_REL_TOL = 0.02
BRIDGE_REL_TOL = 0.05      # ideal side of the mixed-volume bridge


def compositions(total, parts):
    """Nonnegative integer vectors of length ``parts`` summing to total."""
    if parts == 1:
        return [(total,)]
    return [(head,) + rest for head in range(total + 1)
            for rest in compositions(total - head, parts - 1)]


# -- Segre-Veronese algebras -------------------------------------------------

def sv_hilbert(r1, a1, r2, a2, n1, n2):
    """dim of the Segre-Veronese piece at degree (n1, n2)."""
    return math.comb(a1 * n1 + r1 - 1, r1 - 1) * \
        math.comb(a2 * n2 + r2 - 1, r2 - 1)


def sv_ray_limit(r1, a1, r2, a2, ray):
    """Leading coefficient of k -> sv_hilbert at k * ray."""
    n1, n2 = ray
    return Fraction((a1 * n1) ** (r1 - 1), math.factorial(r1 - 1)) * \
        Fraction((a2 * n2) ** (r2 - 1), math.factorial(r2 - 1))


def sv_mixed_multiplicity(r1, a1, r2, a2, d):
    """e(d) of the Segre-Veronese algebra; nonzero only at (r1-1, r2-1)."""
    if tuple(d) == (r1 - 1, r2 - 1):
        return a1 ** (r1 - 1) * a2 ** (r2 - 1)
    return 0


def sv_positivity_certificate(r1, r2, d):
    """None when e(d) > 0, else the first violated axis subset."""
    if d[0] > r1 - 1:
        return [1]
    if d[1] > r2 - 1:
        return [2]
    return None


# -- exact linear algebra over Q ---------------------------------------------

def rank(rows):
    """Rank over Q by Fraction elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return 0
    rk = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for i in range(rk + 1, len(rows)):
            f = rows[i][col] / rows[rk][col]
            if f:
                rows[i] = [u - f * w for u, w in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def det(rows):
    """Determinant over Q by Fraction elimination."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    out = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            if f:
                a[i] = [u - f * w for u, w in zip(a[i], a[col])]
    return out


def _nullvector(rows, n):
    """A nonzero rational vector orthogonal to ``rows`` (rank n - 1)."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    rk = 0
    for col in range(n):
        piv = next((i for i in range(rk, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        inv = 1 / a[rk][col]
        a[rk] = [u * inv for u in a[rk]]
        for i in range(len(a)):
            if i != rk and a[i][col]:
                f = a[i][col]
                a[i] = [u - f * w for u, w in zip(a[i], a[rk])]
        pivots.append(col)
        rk += 1
    free = next(c for c in range(n) if c not in pivots)
    x = [Fraction(0)] * n
    x[free] = Fraction(1)
    for i, col in enumerate(pivots):
        x[col] = -a[i][free]
    return x


def primitive(v):
    """Primitive integer vector in the direction of rational ``v``."""
    den = math.lcm(*(Fraction(x).denominator for x in v))
    w = [int(Fraction(x) * den) for x in v]
    g = math.gcd(*w)
    return tuple(x // g for x in w) if g else tuple(w)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# -- brute-force polytopes ---------------------------------------------------

def _distinct(points):
    """Points as exact tuples: ints when integral (fast), else Fractions."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if all(x.denominator == 1 for p in pts for x in p):
        pts = [tuple(int(x) for x in p) for p in pts]
    return list(dict.fromkeys(pts))


def facets(points):
    """{(normal, offset)}: a . x >= offset, over every d-subset.

    ``points`` must span R^d affinely.  Each hyperplane through d
    affinely independent points that leaves all points on one side is a
    facet; normals are primitive integer vectors.
    """
    pts = _distinct(points)
    d = len(pts[0])
    if d == 1:
        xs = [p[0] for p in pts]
        return {((1,), min(xs)), ((-1,), -max(xs))}
    out, seen = set(), set()
    for sub in itertools.combinations(pts, d):
        diffs = [[x - y for x, y in zip(p, sub[0])] for p in sub[1:]]
        if rank(diffs) < d - 1:
            continue
        a = primitive(_nullvector(diffs, d))
        b = _dot(a, sub[0])
        if (a, b) in seen:
            continue
        seen.add((a, b))
        seen.add((tuple(-x for x in a), -b))
        vals = [_dot(a, p) - b for p in pts]
        if all(v >= 0 for v in vals):
            out.add((a, b))
        elif all(v <= 0 for v in vals):
            out.add((tuple(-x for x in a), -b))
    return out


def vertices(points):
    """Points where the tight facet normals span R^d."""
    pts = _distinct(points)
    d = len(pts[0])
    fs = facets(pts)
    return {tuple(map(Fraction, p)) for p in pts
            if rank([a for a, b in fs if _dot(a, p) == b]) == d}


def volume(points):
    """Euclidean volume of conv(points), full-dimensional in R^d.

    Pyramids over the facets from one apex p0; a facet with normal a is
    measured through its projection along a coordinate j with a_j != 0,
    which scales (d-1)-volume by |a_j| / |a|, so no square roots appear.
    """
    pts = _distinct(points)
    d = len(pts[0])
    if d == 1:
        xs = [p[0] for p in pts]
        return Fraction(max(xs) - min(xs))
    p0 = pts[0]
    total = Fraction(0)
    for a, b in facets(pts):
        height = _dot(a, p0) - b
        if height == 0:
            continue
        on = [p for p in pts if _dot(a, p) == b]
        j = next(i for i, x in enumerate(a) if x)
        proj = [p[:j] + p[j + 1:] for p in on]
        total += height * volume(proj) / (d * abs(a[j]))
    return total


def full_dimensional(points):
    p0 = points[0]
    return rank([[x - y for x, y in zip(p, p0)] for p in points[1:]]) == \
        len(p0)


def polygon_area(points):
    """Area of the convex hull of planar points (monotone chain)."""
    pts = sorted(set((Fraction(x), Fraction(y)) for x, y in points))
    if len(pts) < 3:
        return Fraction(0)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    hull = chain(pts)[:-1] + chain(pts[::-1])[:-1]
    twice = sum(hull[i][0] * hull[i - 1][1] - hull[i - 1][0] * hull[i][1]
                for i in range(len(hull)))
    return abs(twice) / 2


def planar_mixed_volume(p, q):
    """MV(P, Q) = A(P + Q) - A(P) - A(Q), normalized as e(1, 1)."""
    sums = [(x1 + x2, y1 + y2) for x1, y1 in p for x2, y2 in q]
    return polygon_area(sums) - polygon_area(p) - polygon_area(q)


def cone_extreme_rays_3d(normals):
    """Extreme rays of {x in R^3 : a . x >= 0}, pointed and full-dim.

    A nonzero vector of the cone on two distinct supporting planes spans
    a one-dimensional face, so cross products of normal pairs that
    satisfy every inequality are exactly the extreme rays.
    """
    rays = set()
    for a, b in itertools.combinations(normals, 2):
        c = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0])
        if not any(c):
            continue
        for v in (c, tuple(-x for x in c)):
            if all(_dot(n, v) >= 0 for n in normals):
                rays.add(primitive(v))
    return rays


def staircase_cone_normals(forms):
    """Inequalities of {(j, n1, n2) : 0 <= j <= f . n, n >= 0}."""
    normals = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    normals += [(-1,) + tuple(f) for f in forms]
    return normals


def staircase_volume(forms, x):
    """min_f f . x: the fiber length of the staircase 0 <= j <= min f.n."""
    return min(_dot(f, x) for f in forms)


# -- lattices ----------------------------------------------------------------

def is_hnf(basis):
    """Row-style HNF shape: pivots move right, positive, reduced above."""
    cols = []
    for row in basis:
        col = next((i for i, u in enumerate(row) if u), None)
        if col is None or row[col] <= 0 or (cols and col <= cols[-1]):
            return False
        cols.append(col)
    return all(0 <= basis[i][c] < basis[k][c]
               for k, c in enumerate(cols) for i in range(k))


def minor_gcd(rows, k):
    """gcd of the k x k minors: a lattice invariant of the row span."""
    return math.gcd(*(int(det([[r[c] for c in cols] for r in sub]))
                      for sub in itertools.combinations(rows, k)
                      for cols in itertools.combinations(range(len(rows[0])),
                                                         k)))


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


# -- monomial ideals ---------------------------------------------------------

def m_power_gens(d, a):
    """Minimal generators of m^a in d variables."""
    return sorted(compositions(a, d))


def fixed_mixed_multiplicities(d, a, b):
    """e_(d0, d1)(m^a | m^b) = a^(d0+1) * b^d1 for d0 + d1 = d - 1."""
    return {(d0, d - 1 - d0): a ** (d0 + 1) * b ** (d - 1 - d0)
            for d0 in range(d)}


def bhattacharya_m_powers(d, a, b):
    """lim dim(m^(bk) / m^(ak) m^(bk)) / k^d = ((a+b)^d - b^d) / d!."""
    return Fraction((a + b) ** d - b ** d, math.factorial(d))


def planar_ideal_multiplicity(gens):
    """e(I) = 2 * covolume of the Newton polygon of an m-primary I."""
    pts = sorted(set(tuple(g) for g in gens))
    minimal = [p for p in pts
               if not any(q != p and q[0] <= p[0] and q[1] <= p[1]
                          for q in pts)]
    lower = []
    for p in sorted(minimal):
        while len(lower) >= 2:
            o, a = lower[-2], lower[-1]
            if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * \
                    (p[0] - o[0]) <= 0:
                lower.pop()
            else:
                break
        lower.append(p)
    # Region under the chain from (0, q) down to (p, 0), with the origin.
    poly = [(0, 0)] + lower
    twice = sum(poly[i][0] * poly[i - 1][1] - poly[i - 1][0] * poly[i][1]
                for i in range(len(poly)))
    return abs(twice)


def ideal_order(gens):
    """ord(I): least total degree of a generator."""
    return min(sum(g) for g in gens)

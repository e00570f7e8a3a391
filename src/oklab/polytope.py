"""Exact rational convex geometry.

Rational points are tuples of ``fractions.Fraction``; cones and
halfspace normals are integer tuples.  The double description method
(incremental inequality insertion with the combinatorial adjacency
test) provides both directions of the V/H conversion, which is also how
fibers of cones and facet enumerations are obtained; the rays of a
fiber are its vertices.  ``convex_hull`` scales the points to integers
by one common denominator and runs one integer LP (``lp``) per point
against a shrinking candidate set: a point in the hull of the other
candidates is dropped at once, which leaves the hull unchanged.

Rows enter double description as integers: the lifted vertices and the
homogenized fiber rows are scaled once by a common denominator, and a
positive multiple of a row has the same canonical ray, so the result is
that of the rational rows.  ``integral_volume`` scales the vertices
once by their common denominator times the product of the lattice's
HNF pivots, so their coordinates in the lattice basis come out as
integers by pivot substitution.  It triangulates those integer points,
entering each facet by dropping one coordinate that its normal
involves, and sums integer determinants over the one denominator
scale^q * q!.  Ranks and determinants come from the fraction-free
elimination kernel in ``lattice``.  Everything is exact; no
floating-point anywhere in this module.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (DimensionMismatchError, InternalConsistencyError,
                     InvalidRayError, MeasureMismatchError, ValidationError)
from .lattice import Sublattice, int_det, rational_rank, solve
from .lp import in_convex_hull


# Shared integral Fractions: most coordinates are small integers, and
# every Polytope held by a caller keeps its vertices alive.
_SMALL = {i: Fraction(i) for i in range(-256, 257)}


def rational_vector(coords):
    out = []
    for c in coords:
        f = _SMALL.get(c)
        out.append(Fraction(c) if f is None else f)
    return tuple(out)


def _affine_dim(points):
    """Dimension of the affine hull of a nonempty list of points."""
    p0 = points[0]
    return rational_rank([[x - y for x, y in zip(p, p0)] for p in points[1:]])


def _dot(a, b):
    return sum(map(operator.mul, a, b))  # stops at the shorter, as zip


def _canon_ray(v):
    """Primitive integer vector in the direction of rational ``v``."""
    if all(type(x) is int for x in v):
        g = math.gcd(*v)
        return tuple(v) if g < 2 else tuple(x // g for x in v)
    denom = math.lcm(*(Fraction(x).denominator for x in v)) if v else 1
    w = [int(Fraction(x) * denom) for x in v]
    g = math.gcd(*(abs(x) for x in w)) if any(w) else 1
    if g == 0:
        return tuple(w)
    return tuple(x // g for x in w)


def dd_extreme_rays(ineqs, dim):
    """Generators of {x in R^dim : a . x >= 0 for all a in ineqs}.

    Returns ``(lines, rays)`` with the cone equal to span(lines) +
    cone(rays); rays are extreme modulo the lineality space.
    """
    lines = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = []
    inserted = []

    def tight(r):
        return frozenset(j for j, a in enumerate(inserted)
                         if _dot(a, r) == 0)

    for a in ineqs:
        a = _canon_ray(a)
        if not any(a):
            continue
        idx = next((i for i, l in enumerate(lines) if _dot(a, l) != 0), None)
        if idx is not None:
            l0 = lines.pop(idx)
            if _dot(a, l0) < 0:
                l0 = tuple(-x for x in l0)
            al0 = _dot(a, l0)
            lines = [_canon_ray(tuple(al0 * u - _dot(a, l) * v
                                      for u, v in zip(l, l0)))
                     for l in lines]
            lines = [l for l in lines if any(l)]
            rays = [_canon_ray(tuple(al0 * u - _dot(a, r) * v
                                     for u, v in zip(r, l0)))
                    for r in rays]
            rays.append(l0)
            inserted.append(a)
            continue
        vals = [_dot(a, r) for r in rays]
        pos = [r for r, v in zip(rays, vals) if v > 0]
        zer = [r for r, v in zip(rays, vals) if v == 0]
        neg = [r for r, v in zip(rays, vals) if v < 0]
        if not neg:
            inserted.append(a)
            rays = pos + zer
            continue
        tight_sets = {r: tight(r) for r in rays}
        new = []
        for rp in pos:
            for rn in neg:
                common = tight_sets[rp] & tight_sets[rn]
                adjacent = not any(common <= tight_sets[r3]
                                   for r3 in rays
                                   if r3 is not rp and r3 is not rn)
                if adjacent:
                    comb = tuple(_dot(a, rp) * u - _dot(a, rn) * v
                                 for u, v in zip(rn, rp))
                    comb = _canon_ray(comb)
                    if any(comb):
                        new.append(comb)
        inserted.append(a)
        rays = pos + zer + [r for r in dict.fromkeys(new) if r not in zer]
    return lines, rays


@dataclass(slots=True)
class Polytope:
    """Rational polytope given by its irredundant vertex set."""

    vertices: tuple
    ambient_dim: int
    affine_dim: int
    _hrep: tuple = field(default=None, repr=False, compare=False)

    @property
    def is_empty(self):
        return self.affine_dim < 0

    def halfspaces(self):
        """((equalities), (inequalities)): integer (normal, offset) pairs.

        Equalities mean normal . x = offset, inequalities mean
        normal . x >= offset.  Together they cut out the polytope.
        """
        if self._hrep is None:
            self._hrep = _polytope_hrep(self)
        return self._hrep

    def contains(self, point):
        point = rational_vector(point)
        if self.is_empty:
            return False
        eqs, ineqs = self.halfspaces()
        return (all(_dot(a, point) == b for a, b in eqs) and
                all(_dot(a, point) >= b for a, b in ineqs))

    def scale(self, factor):
        factor = Fraction(factor)
        if factor == 0:
            return convex_hull([(Fraction(0),) * self.ambient_dim]) \
                if not self.is_empty else self
        return Polytope(tuple(tuple(factor * x for x in v)
                              for v in self.vertices),
                        self.ambient_dim, self.affine_dim)


def empty_polytope(ambient_dim):
    return Polytope((), ambient_dim, -1)


def _integer_points(points, scale=1):
    """(integer points, factor): the rational ``points`` times one factor.

    The factor is ``scale`` times the common denominator of every
    coordinate.
    """
    den = scale * math.lcm(*[x.denominator for p in points for x in p])
    return [tuple([x.numerator * (den // x.denominator) for x in p])
            for p in points], den


def convex_hull(points):
    """Irredundant vertex set of conv(points)."""
    points = [rational_vector(p) for p in points]
    if not points:
        raise ValidationError("convex_hull of nothing: pass empty_polytope")
    dims = {len(p) for p in points}
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed point dimensions {sorted(dims)}")
    points = list(dict.fromkeys(points))
    n = len(points[0])
    ints, _ = _integer_points(points)
    keep = list(range(len(ints)))
    for i in range(len(ints)):
        others = [ints[j] for j in keep if j != i]
        if in_convex_hull(ints[i], others):
            keep.remove(i)
    return Polytope(tuple([points[j] for j in keep]), n, _affine_dim(ints))


def _polytope_hrep(poly):
    """Facet description via the double description of the dual."""
    if poly.is_empty:
        zero = (0,) * poly.ambient_dim
        return (((zero, 1),), ())
    # Each lifted row (v, 1) scaled by the common denominator: a positive
    # multiple of a row leaves its canonical ray, so the DD run, unchanged.
    ints, den = _integer_points(poly.vertices)
    lifted = [v + (den,) for v in ints]
    lines, rays = dd_extreme_rays(lifted, poly.ambient_dim + 1)
    eqs = []
    for l in lines:
        a, a0 = l[:-1], l[-1]
        if any(a):
            eqs.append((a, -a0))
    ineqs = []
    for r in rays:
        a, a0 = r[:-1], r[-1]
        if any(a):
            ineqs.append((a, -a0))
    return tuple(eqs), tuple(ineqs)


@dataclass
class PolyCone:
    """Finitely generated rational cone, rays as primitive integer vectors."""

    rays: tuple
    ambient_dim: int
    _hrep: tuple = field(default=None, repr=False, compare=False)

    def hrep(self):
        """((equality normals), (inequality normals)); all homogeneous."""
        if self._hrep is None:
            self._hrep = _cone_hrep(self)
        return self._hrep

    def contains(self, point):
        point = rational_vector(point)
        eqs, ineqs = self.hrep()
        return (all(_dot(a, point) == 0 for a in eqs) and
                all(_dot(a, point) >= 0 for a in ineqs))


def make_cone(rays, ambient_dim=None):
    rays = [tuple(r) for r in rays]
    if rays and ambient_dim is None:
        ambient_dim = len(rays[0])
    for r in rays:
        if len(r) != ambient_dim:
            raise DimensionMismatchError("ray dimension mismatch")
        if not any(r):
            raise InvalidRayError("zero ray is not allowed")
    return PolyCone(tuple(_canon_ray(r) for r in rays), ambient_dim)


def _cone_hrep(cone):
    if not cone.rays:
        raise InvalidRayError("cone needs at least one ray")
    lines, rays = dd_extreme_rays(cone.rays, cone.ambient_dim)
    return tuple(lines), tuple(rays)


def cone_hrep(cone):
    """Flat list of homogeneous inequalities cutting out the cone."""
    eqs, ineqs = cone.hrep()
    out = list(ineqs)
    for a in eqs:
        out.append(a)
        out.append(tuple(-x for x in a))
    return out


def cone_fiber(cone, split, x):
    """The polytope {y in R^r : (y, x) in cone} for a degree point x."""
    r, s = split
    if r + s != cone.ambient_dim:
        raise DimensionMismatchError(
            f"split {split} does not add to ambient {cone.ambient_dim}")
    x = rational_vector(x)
    if len(x) != s:
        raise DimensionMismatchError(f"fiber point has dim {len(x)} != {s}")
    eqs, ineqs = cone.hrep()
    # Homogenize in (y, t): substitute the degree block and keep t >= 0.
    # Each row is scaled by the denominator of x, so it enters in integers.
    (xs,), den = _integer_points([x])
    hom = []
    for a in ineqs:
        hom.append(tuple([den * c for c in a[:r]]) + (_dot(a[r:], xs),))
    for a in eqs:
        row = tuple([den * c for c in a[:r]]) + (_dot(a[r:], xs),)
        hom.append(row)
        hom.append(tuple(-v for v in row))
    hom.append((0,) * r + (1,))
    lines, rays = dd_extreme_rays(hom, r + 1)
    if lines:
        raise ValidationError("fiber is unbounded (contains a line)")
    verts = []
    for ray in rays:
        t = ray[-1]
        if t > 0:
            verts.append(tuple(Fraction(v, t) for v in ray[:-1]))
        elif any(ray[:-1]):
            raise ValidationError("fiber is unbounded (recession ray)")
    if not verts:
        return empty_polytope(r)
    # Distinct primitive rays of a pointed cone: already the vertices.
    return Polytope(tuple(verts), r, _affine_dim(verts))


def _facets_local(coords):
    """Facets (a, a0) of a full-dimensional hull of integer points."""
    k = len(coords[0])
    lifted = [tuple(c) + (1,) for c in coords]
    _, rays = dd_extreme_rays(lifted, k + 1)
    return [(r[:-1], r[-1]) for r in rays if any(r[:-1])]


def _triangulate(points, idx):
    """Simplices triangulating conv(points[i] for i in idx), as index tuples.

    The indexed points are distinct integer vertices whose hull is full
    dimensional.  Each facet a . x + a0 = 0 that misses the apex idx[0]
    is coned from it.  The facet is triangulated in the coordinates left
    after dropping one coordinate j with a_j != 0: that projection maps
    its hyperplane affinely and bijectively onto the space of one
    dimension less, so it keeps faces, apexes and simplices.
    """
    k = len(points[idx[0]])
    if len(idx) == k + 1:
        return [tuple(idx)]
    apex = idx[0]
    simplices = []
    for a, a0 in _facets_local([points[i] for i in idx]):
        if _dot(a, points[apex]) + a0 == 0:
            continue  # facet through the apex contributes no volume
        face = [i for i in idx if _dot(a, points[i]) + a0 == 0]
        j = next(t for t, c in enumerate(a) if c)
        projected = {i: points[i][:j] + points[i][j + 1:] for i in face}
        for tri in _triangulate(projected, face):
            simplices.append((apex,) + tri)
    return simplices


def integral_volume(poly, reference_lattice):
    """Volume of ``poly`` normalizing a cell of the lattice to 1.  Exact.

    The lattice rank must equal the affine dimension and span the same
    direction space as the affine hull of ``poly``.  The vertices are
    scaled once by their common denominator times the product of the
    lattice's HNF pivots, which makes every coordinate in the basis an
    integer; the volume is then a sum of integer determinants.
    """
    if poly.is_empty:
        return Fraction(0)
    q = poly.affine_dim
    if reference_lattice.rank != q:
        raise MeasureMismatchError(
            f"lattice rank {reference_lattice.rank} != affine dim {q}")
    if q == 0:
        return Fraction(1)
    basis = reference_lattice.basis
    pivots = math.prod(row[c] for row, c in
                       zip(basis, reference_lattice.pivot_columns()))
    ints, scale = _integer_points(poly.vertices, pivots)
    v0 = ints[0]
    diffs = [tuple([x - y for x, y in zip(v, v0)]) for v in ints]
    if rational_rank(list(basis) + diffs[1:]) != q:
        raise MeasureMismatchError(
            "lattice span differs from the affine hull directions")
    coords = []
    for d in diffs:
        c = reference_lattice.coordinates(d)
        if c is None:
            raise MeasureMismatchError("vertex outside the lattice span")
        coords.append(tuple(c))
    total = 0
    for simplex in _triangulate(coords, tuple(range(len(coords)))):
        c0 = coords[simplex[0]]
        total += abs(int_det([[x - y for x, y in zip(coords[i], c0)]
                              for i in simplex[1:]]))
    return Fraction(total, scale ** q * math.factorial(q))


def standard_lattice(dim):
    return Sublattice(tuple(tuple(int(i == j) for j in range(dim))
                            for i in range(dim)), dim)


def volume_in_dim(poly, dim):
    """dim-dimensional volume; 0 when the body is lower-dimensional."""
    if poly.is_empty or poly.affine_dim < dim:
        return Fraction(0)
    if poly.affine_dim > dim:
        raise MeasureMismatchError("body dimension exceeds requested dim")
    return integral_volume(poly, standard_lattice(dim))


def minkowski_sum(p, q):
    """Hull of pairwise vertex sums."""
    if p.ambient_dim != q.ambient_dim:
        raise DimensionMismatchError("Minkowski sum needs equal ambients")
    if p.is_empty or q.is_empty:
        return empty_polytope(p.ambient_dim)
    return convex_hull([tuple(x + y for x, y in zip(u, v))
                        for u in p.vertices for v in q.vertices])


def scaled_minkowski_sum(bodies, weights):
    """lambda_1 K_1 + ... + lambda_s K_s (zero-weight bodies dropped)."""
    parts = [b.scale(w) for b, w in zip(bodies, weights) if w]
    if not parts:
        return convex_hull([(Fraction(0),) * bodies[0].ambient_dim])
    acc = parts[0]
    for b in parts[1:]:
        acc = minkowski_sum(acc, b)
    return acc


@dataclass
class MultidegreePolynomial:
    """Homogeneous polynomial with exact rational coefficients.

    ``coeffs`` maps exponent tuples d (|d| = degree) to the coefficient
    of n^d.  For volume/Hilbert polynomials the stored coefficient is
    the normalized multiplicity e(d)/d!.
    """

    num_vars: int
    degree: int
    coeffs: dict

    def evaluate(self, args):
        args = rational_vector(args)
        return sum(c * math.prod(a ** e for a, e in zip(args, exp))
                   for exp, c in self.coeffs.items())

    def normalized(self, exp):
        """e(d) = d! * coefficient, the normalized mixed multiplicity."""
        c = self.coeffs.get(tuple(exp), Fraction(0))
        return c * math.prod(math.factorial(e) for e in exp)


def compositions(total, parts):
    """All nonnegative integer vectors of length ``parts`` summing to total."""
    if parts == 1:
        return [(total,)]
    out = []
    for head in range(total + 1):
        out.extend((head,) + rest for rest in compositions(total - head,
                                                           parts - 1))
    return out


def _solve_square(matrix, rhs):
    sol = solve(list(zip(*matrix)), rhs)
    if sol is None:
        raise InternalConsistencyError("singular interpolation matrix")
    return sol


def minkowski_polynomial(bodies):
    """Exact volume polynomial Vol_d(l_1 K_1 + ... + l_s K_s).

    Interpolated on the grid {|l| = d} and verified on held-out points
    of level d + 1; a mismatch raises ``InternalConsistencyError``.
    """
    if not bodies:
        raise ValidationError("need at least one body")
    d = bodies[0].ambient_dim
    s = len(bodies)
    for b in bodies:
        if b.ambient_dim != d:
            raise DimensionMismatchError("bodies in different ambients")
        if b.is_empty:
            raise ValidationError("empty body in Minkowski polynomial")
    exps = compositions(d, s)
    grid = exps

    def vol_at(lam):
        return volume_in_dim(scaled_minkowski_sum(bodies, lam), d)

    matrix = [[math.prod(Fraction(l) ** e for l, e in zip(lam, exp))
               for exp in exps] for lam in grid]
    rhs = [vol_at(lam) for lam in grid]
    sol = _solve_square(matrix, rhs)
    poly = MultidegreePolynomial(s, d, {exp: c for exp, c in zip(exps, sol)
                                        if c})
    held_out = compositions(d + 1, s)[:max(s + 3, 3)]
    for lam in held_out:
        if poly.evaluate(lam) != vol_at(lam):
            raise InternalConsistencyError(
                f"Minkowski polynomial fails held-out check at {lam}")
    return poly


def mixed_volume(bodies, dtype):
    """MV_d of the multiset with multiplicities ``dtype``; exact.  The
    type needs one entry >= 0 per body, summing to the dimension."""
    dim = bodies[0].ambient_dim if bodies else 0
    if len(dtype) != len(bodies) or min(dtype, default=0) < 0 or \
            sum(dtype) != dim:
        raise ValidationError(f"type {tuple(dtype)} needs {len(bodies)} "
                              f"entries >= 0 summing to {dim}")
    poly = minkowski_polynomial(bodies)
    return poly.normalized(dtype)

"""Reference Fraction volumes and H-representations for the polytope tests.

These are the routines that ``oklab.polytope`` replaced with integer
ones: the triangulation that re-solves Fraction local coordinates at
every level, and the double description runs on Fraction rows.  The
greedy independent subset is the Gauss-Jordan one from
``elimination_reference``.  They stay here as oracles only.
"""

import math
from fractions import Fraction

import elimination_reference as ref
from oklab.errors import MeasureMismatchError, ValidationError
from oklab.lattice import det, rational_rank, solve
from oklab.polytope import (Polytope, _affine_dim, _dot, dd_extreme_rays,
                            empty_polytope)


def facets_local(coords):
    """Facets (a, a0) of a full-dimensional hull in local coordinates."""
    k = len(coords[0])
    lifted = [tuple(c) + (Fraction(1),) for c in coords]
    _, rays = dd_extreme_rays(lifted, k + 1)
    return [(r[:-1], r[-1]) for r in rays if any(r[:-1])]


def triangulate(points):
    """Simplices (as vertex tuples) triangulating conv(points)."""
    p0 = points[0]
    diffs = [tuple(x - y for x, y in zip(p, p0)) for p in points[1:]]
    basis = ref.independent_subset(diffs)
    k = len(basis)
    if k == 0:
        return [(p0,)]
    if len(points) == k + 1:
        return [tuple(points)]
    coords = [solve(basis, tuple(x - y for x, y in zip(p, p0)))
              for p in points]
    simplices = []
    for a, a0 in facets_local(coords):
        if _dot(a, coords[0]) + a0 == 0:
            continue  # facet through the apex contributes no volume
        fpts = [p for p, c in zip(points, coords) if _dot(a, c) + a0 == 0]
        for tri in triangulate(fpts):
            simplices.append((p0,) + tri)
    return simplices


def integral_volume(poly, reference_lattice):
    """Volume of ``poly`` normalizing a cell of the lattice to 1."""
    if poly.is_empty:
        return Fraction(0)
    q = poly.affine_dim
    if reference_lattice.rank != q:
        raise MeasureMismatchError(
            f"lattice rank {reference_lattice.rank} != affine dim {q}")
    if q == 0:
        return Fraction(1)
    v0 = poly.vertices[0]
    diffs = [tuple(x - y for x, y in zip(v, v0)) for v in poly.vertices[1:]]
    basis = list(reference_lattice.basis)
    if rational_rank(basis + diffs) != q:
        raise MeasureMismatchError(
            "lattice span differs from the affine hull directions")
    coords = []
    for v in poly.vertices:
        c = solve(basis, tuple(x - y for x, y in zip(v, v0)))
        if c is None:
            raise MeasureMismatchError("vertex outside the lattice span")
        coords.append(tuple(c))
    total = Fraction(0)
    for simplex in triangulate(coords):
        rows = [[x - y for x, y in zip(p, simplex[0])] for p in simplex[1:]]
        total += abs(det(rows))
    return total / math.factorial(q)


def polytope_hrep(poly):
    """Facet description from the DD run on the Fraction rows (v, 1)."""
    if poly.is_empty:
        zero = (0,) * poly.ambient_dim
        return (((zero, 1),), ())
    lifted = [tuple(v) + (Fraction(1),) for v in poly.vertices]
    lines, rays = dd_extreme_rays(lifted, poly.ambient_dim + 1)
    eqs = tuple((l[:-1], -l[-1]) for l in lines if any(l[:-1]))
    ineqs = tuple((r[:-1], -r[-1]) for r in rays if any(r[:-1]))
    return eqs, ineqs


def cone_fiber(cone, split, x):
    """The fiber polytope from the DD run on Fraction homogenized rows."""
    r, _ = split
    x = tuple(Fraction(v) for v in x)
    eqs, ineqs = cone.hrep()
    hom = [tuple(a[:r]) + (_dot(a[r:], x),) for a in ineqs]
    for a in eqs:
        row = tuple(a[:r]) + (_dot(a[r:], x),)
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
    return Polytope(tuple(verts), r, _affine_dim(verts))

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import elimination_reference as ref
import volume_reference as vref
from oklab.errors import (InvalidRayError, MeasureMismatchError,
                          ValidationError)
from oklab.lattice import group_generated
from oklab.polytope import (MultidegreePolynomial, cone_fiber, cone_hrep,
                            convex_hull, empty_polytope, integral_volume,
                            make_cone, minkowski_polynomial,
                            minkowski_sum, mixed_volume,
                            scaled_minkowski_sum, standard_lattice,
                            volume_in_dim)

F = Fraction


def V(*coords):
    return tuple(F(c) for c in coords)


def test_hull_drops_interior_point():
    poly = convex_hull([V(0, 0), V(2, 0), V(0, 2), V(2, 2), V(1, 1)])
    assert set(poly.vertices) == {V(0, 0), V(2, 0), V(0, 2), V(2, 2)}
    assert poly.affine_dim == 2


def test_hull_collinear():
    poly = convex_hull([V(0, 0), V(1, 1), V(3, 3)])
    assert set(poly.vertices) == {V(0, 0), V(3, 3)}
    assert poly.affine_dim == 1


def test_hull_point_and_empty():
    poly = convex_hull([V(5, 7)])
    assert poly.affine_dim == 0
    assert empty_polytope(2).affine_dim == -1


def test_polytope_contains():
    tri = convex_hull([V(0, 0), V(2, 0), V(0, 2)])
    assert tri.contains(V(1, F(1, 2)))
    assert not tri.contains(V(2, 1))


def test_cone_hrep_min_example():
    # Cone over (1,0,0), (0,1,0), (1,1,1) with valuation coordinate first.
    cone = make_cone([(0, 1, 0), (0, 0, 1), (1, 1, 1)])
    ineqs = set(cone_hrep(cone))
    assert ineqs == {(1, 0, 0), (-1, 1, 0), (-1, 0, 1)}


def test_make_cone_rejects_zero_ray():
    with pytest.raises(InvalidRayError):
        make_cone([(0, 0)])


def test_cone_fiber_interval():
    cone = make_cone([(0, 1, 0), (0, 0, 1), (1, 1, 1)])
    fib = cone_fiber(cone, (1, 2), (F(2), F(3)))
    assert set(fib.vertices) == {(F(0),), (F(2),)}
    fib2 = cone_fiber(cone, (1, 2), (F(1), F(0)))
    assert set(fib2.vertices) == {(F(0),)}


def test_cone_fiber_unbounded_rejected():
    cone = make_cone([(1, 0), (0, 1), (-1, 1)])
    with pytest.raises(ValidationError):
        cone_fiber(cone, (1, 1), (F(1),))


def test_integral_volume_square_triangle():
    sq = convex_hull([V(0, 0), V(1, 0), V(0, 1), V(1, 1)])
    assert integral_volume(sq, standard_lattice(2)) == 1
    tri = convex_hull([V(0, 0), V(1, 0), V(0, 1)])
    assert integral_volume(tri, standard_lattice(2)) == F(1, 2)


def test_integral_volume_segment_with_lattice():
    seg = convex_hull([V(0), V(3)])
    assert integral_volume(seg, standard_lattice(1)) == 3
    coarse = group_generated([(3,)], ambient_dim=1)
    assert integral_volume(seg, coarse) == 1


def test_integral_volume_lattice_mismatch():
    seg = convex_hull([V(0, 0), V(1, 1)])
    wrong = group_generated([(1, 0)], ambient_dim=2)
    with pytest.raises(MeasureMismatchError):
        integral_volume(seg, wrong)


def test_volume_in_dim_lower_dimensional():
    seg = convex_hull([V(0, 0), V(2, 0)])
    assert volume_in_dim(seg, 2) == 0


def test_minkowski_sum_square_plus_triangle():
    sq = convex_hull([V(0, 0), V(1, 0), V(0, 1), V(1, 1)])
    tri = convex_hull([V(0, 0), V(1, 0), V(0, 1)])
    s = minkowski_sum(sq, tri)
    assert integral_volume(s, standard_lattice(2)) == F(7, 2)
    assert len(s.vertices) == 5


def test_scaled_minkowski_sum():
    seg1 = convex_hull([V(0, 0), V(1, 0)])
    seg2 = convex_hull([V(0, 0), V(0, 1)])
    rect = scaled_minkowski_sum([seg1, seg2], [F(2), F(3)])
    assert integral_volume(rect, standard_lattice(2)) == 6


def test_minkowski_polynomial_square_triangle():
    sq = convex_hull([V(0, 0), V(1, 0), V(0, 1), V(1, 1)])
    tri = convex_hull([V(0, 0), V(1, 0), V(0, 1)])
    poly = minkowski_polynomial([sq, tri])
    assert poly.coeffs == {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1, 2)}
    assert mixed_volume([sq, tri], (1, 1)) == 2


@pytest.mark.parametrize("dtype", [(1, 1, 0), (3, 0), (1,), (2, -1, 1),
                                   (3, -1)])
def test_mixed_volume_rejects_malformed_types(dtype):
    # A wrong length or total degree used to read 0, a negative entry to
    # raise ValueError from factorial.
    sq = convex_hull([V(0, 0), V(1, 0), V(0, 1), V(1, 1)])
    tri = convex_hull([V(0, 0), V(1, 0), V(0, 1)])
    with pytest.raises(ValidationError):
        mixed_volume([sq, tri], dtype)


def test_minkowski_polynomial_segments():
    seg1 = convex_hull([V(0, 0), V(1, 0)])
    seg2 = convex_hull([V(0, 0), V(0, 1)])
    poly = minkowski_polynomial([seg1, seg2])
    assert poly.coeffs == {(1, 1): F(1)}
    assert mixed_volume([seg1, seg2], (1, 1)) == 1
    assert mixed_volume([seg1, seg1], (1, 1)) == 0


def test_polynomial_evaluate():
    poly = MultidegreePolynomial(num_vars=2, degree=2,
                                 coeffs={(2, 0): F(1), (1, 1): F(2),
                                         (0, 2): F(1, 2)})
    assert poly.evaluate((2, 2)) == 4 + 8 + 2


# -- properties ---------------------------------------------------------------

COORDS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def clouds(draw):
    """1-8 rational points in 1-4 D, often in a proper affine subspace
    and often with repeats."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8))
    if draw(st.booleans()):
        pts = [tuple(draw(COORDS) for _ in range(d)) for _ in range(k)]
    else:
        e = draw(st.integers(0, d - 1))
        base = [draw(COORDS) for _ in range(d)]
        dirs = [[draw(COORDS) for _ in range(d)] for _ in range(e)]
        pts = []
        for _ in range(k):
            c = [draw(st.integers(-2, 2)) for _ in range(e)]
            pts.append(tuple(base[i] + sum(c[t] * dirs[t][i]
                                           for t in range(e))
                             for i in range(d)))
    repeats = draw(st.lists(st.sampled_from(pts), max_size=3))
    return pts + repeats


def _in_hull_brute_force(p, others):
    """Caratheodory: p is in conv(others) iff it is in the hull of an
    affinely independent subset of at most d + 1 of them."""
    for size in range(1, min(len(p) + 1, len(others)) + 1):
        for sub in itertools.combinations(others, size):
            t0 = sub[0]
            diffs = [tuple(x - y for x, y in zip(t, t0)) for t in sub[1:]]
            if ref.rational_rank(diffs) < len(diffs):
                continue
            mu = ref.solve_in_basis(diffs, tuple(x - y
                                                 for x, y in zip(p, t0)))
            if mu is not None and min(mu, default=0) >= 0 and sum(mu) <= 1:
                return True
    return False


@settings(max_examples=100)
@given(clouds())
def test_convex_hull_matches_brute_force_vertices(pts):
    hull = convex_hull(pts)
    distinct = list(dict.fromkeys(tuple(F(x) for x in p) for p in pts))
    expected = [p for p in distinct
                if not _in_hull_brute_force(p, [q for q in distinct
                                                if q != p])]
    assert hull.vertices == tuple(expected)  # input order kept
    p0 = distinct[0]
    assert hull.affine_dim == ref.rational_rank(
        [tuple(x - y for x, y in zip(p, p0)) for p in distinct[1:]])
    assert hull.ambient_dim == len(p0)
    assert all(type(x) is F for v in hull.vertices for x in v)


@st.composite
def fibers(draw):
    """A cone of (valuation, degree) rays with nonzero degrees and a
    degree point, so that every fiber is bounded."""
    r = draw(st.integers(1, 3))
    s = draw(st.integers(1, 2))
    rays = []
    for _ in range(draw(st.integers(1, 6))):
        val = [draw(st.integers(-3, 3)) for _ in range(r)]
        deg = [draw(st.integers(0, 3)) for _ in range(s)]
        if not any(deg):
            deg[0] = 1
        rays.append(tuple(val + deg))
    x = tuple(draw(st.fractions(0, 4, max_denominator=2)) for _ in range(s))
    return make_cone(rays), (r, s), x


@settings(max_examples=100)
@given(fibers())
def test_cone_fiber_vertices_are_irredundant(case):
    fiber = cone_fiber(*case)
    if fiber.is_empty:
        return
    hull = convex_hull(fiber.vertices)
    assert fiber.vertices == hull.vertices
    assert fiber.affine_dim == hull.affine_dim


@st.composite
def lattice_polygons(draw):
    """Hull of 1-5 lattice points in [0, 3]^2: points, segments, polygons."""
    pts = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        min_size=1, max_size=5))
    return convex_hull(pts)


@settings(max_examples=60)
@given(lattice_polygons(), lattice_polygons())
def test_mixed_volume_is_symmetric(p, q):
    assert mixed_volume([p, q], (1, 1)) == mixed_volume([q, p], (1, 1))


@settings(max_examples=60)
@given(lattice_polygons(), lattice_polygons(), lattice_polygons())
def test_mixed_volume_is_minkowski_additive(p1, p2, q):
    assert mixed_volume([minkowski_sum(p1, p2), q], (1, 1)) == \
        mixed_volume([p1, q], (1, 1)) + mixed_volume([p2, q], (1, 1))


@settings(max_examples=60)
@given(lattice_polygons())
def test_mixed_volume_diagonal_is_twice_the_area(p):
    assert mixed_volume([p, p], (1, 1)) == 2 * volume_in_dim(p, 2)


# -- integer volumes against the Fraction reference ---------------------------

def outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (MeasureMismatchError, ValidationError) as exc:
        return ("raised", type(exc).__name__, str(exc))


@st.composite
def reference_lattices(draw, poly):
    """A lattice to measure ``poly`` against: Z^d; a full-rank sublattice
    of the lattice its edge directions generate; or a random lattice of
    the same rank, which usually spans other directions."""
    d = poly.ambient_dim
    kind = draw(st.sampled_from(["standard", "directions", "random"]))
    if kind == "standard":
        return standard_lattice(d)
    q = max(poly.affine_dim, 0)
    if kind == "random":
        return group_generated([[draw(st.integers(-2, 2)) for _ in range(d)]
                                for _ in range(q)], d)
    v0 = poly.vertices[0]
    diffs = [[x - y for x, y in zip(v, v0)] for v in poly.vertices[1:]]
    den = math.lcm(*(x.denominator for v in diffs for x in v))
    basis = group_generated([[int(x * den) for x in v] for v in diffs],
                            d).basis
    # An upper triangular integer matrix with nonzero diagonal times the
    # basis: a sublattice of full rank q.
    rows = []
    for i in range(q):
        coeffs = [0] * i + [draw(st.integers(1, 3))] + \
            [draw(st.integers(-2, 2)) for _ in range(q - i - 1)]
        rows.append([sum(c * b[j] for c, b in zip(coeffs, basis))
                     for j in range(d)])
    return group_generated(rows, d)


@settings(max_examples=200)
@given(clouds(), st.data())
def test_integral_volume_matches_fraction_reference(pts, data):
    poly = convex_hull(pts)
    lattice = data.draw(reference_lattices(poly))
    got = outcome(integral_volume, poly, lattice)
    assert got == outcome(vref.integral_volume, poly, lattice)
    assert type(got) in (F, tuple)


@settings(max_examples=100)
@given(clouds())
def test_halfspaces_match_fraction_rows(pts):
    poly = convex_hull(pts)
    assert poly.halfspaces() == vref.polytope_hrep(poly)


@settings(max_examples=100)
@given(fibers())
def test_cone_fiber_matches_fraction_rows(case):
    assert outcome(cone_fiber, *case) == outcome(vref.cone_fiber, *case)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _pick_area(vertices):
    """I + B/2 - 1 from the lattice points of a lattice polygon.

    An edge is a vertex pair with every other vertex strictly on one
    side; a point is in the polygon when it is on that side of, or on,
    every edge line, and on the boundary when it is on one of them.
    """
    edges = []
    for u, v in itertools.combinations(vertices, 2):
        sides = {_cross(u, v, w) > 0 for w in vertices if w not in (u, v)}
        if len(sides) == 1:
            edges.append((u, v, sides.pop()))
    interior = boundary = 0
    lo = [min(v[i] for v in vertices) for i in range(2)]
    hi = [max(v[i] for v in vertices) for i in range(2)]
    for p in itertools.product(range(int(lo[0]), int(hi[0]) + 1),
                               range(int(lo[1]), int(hi[1]) + 1)):
        c = [_cross(u, v, p) for u, v, _ in edges]
        if any(x != 0 and (x > 0) != side
               for x, (_, _, side) in zip(c, edges)):
            continue
        if 0 in c:
            boundary += 1
        else:
            interior += 1
    return interior + F(boundary, 2) - 1


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=3, max_size=7))
def test_lattice_polygon_area_is_picks(pts):
    poly = convex_hull(pts)
    if poly.affine_dim < 2:
        return
    assert volume_in_dim(poly, 2) == _pick_area(poly.vertices)


@settings(max_examples=60)
@given(lattice_polygons(), lattice_polygons(), st.integers(0, 3))
def test_mixed_volume_is_homogeneous(p, q, c):
    assert mixed_volume([p.scale(c), q], (1, 1)) == \
        c * mixed_volume([p, q], (1, 1))

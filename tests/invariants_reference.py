"""Enumerated Kaveh-Khovanskii invariants of a singly graded semigroup.

This is how ``oklab`` once read the group, m, index and boundary lattice
of any singly graded source, Veronese rays and staircases included: it
enumerates the points of degree 1..B, with B = 8 doubled until the HNF
basis of the group they generate repeats (or B passes 256), and treats
those points as generators.  ``volume_fn`` is the fiber volume as it
was computed before the algebra read its lattice and index from its own
group: the cone fiber at x, measured in the enumerated boundary lattice
of the Veronese ray through x and divided by that ray's index.  They
stay here as oracles only.
"""

import math
from fractions import Fraction

from oklab.lattice import (Sublattice, group_generated, integer_kernel,
                           subgroup_index, vanishing_forms)
from oklab.polytope import convex_hull, cone_fiber, integral_volume


def enumerated_points(sg):
    """[(v, (n,))] for the points of degree 1..B of a singly graded sg."""
    prev, bound = None, 8
    while True:
        pts = [(v, (n,)) for n in range(1, bound + 1)
               for v in sg.graded_piece((n,))]
        basis = group_generated([v + d for v, d in pts], sg.r + 1).basis
        if basis == prev or bound > 256:
            return pts
        prev = basis
        bound *= 2


def invariants(sg):
    """m, ind, boundary lattice and the enumerated points of sg."""
    pts = enumerated_points(sg)
    lat = group_generated([v + d for v, d in pts], sg.r + 1)
    forms = vanishing_forms(lat)
    boundary = integer_kernel(list(forms.basis) + [(0,) * sg.r + (1,)],
                              sg.r + 1)
    ker = integer_kernel([[b[-1] for b in lat.basis]], lat.rank)
    inner = group_generated([lat.member(c) for c in ker.basis], sg.r + 1)
    return {"m": math.gcd(*(d[0] for _, d in pts)),
            "ind": subgroup_index(inner, boundary),
            "boundary_lattice": boundary, "points": pts}


def okounkov_body(sg):
    """Slice at degree m of the cone over the enumerated points."""
    inv = invariants(sg)
    m = inv["m"]
    return convex_hull([tuple(Fraction(m * x, d[0]) for x in v) +
                        (Fraction(m),) for v, d in inv["points"]])


def volume_fn(algebra, x):
    """F_A(x) through the enumerated invariants of the ray through x."""
    x = [Fraction(v) for v in x]
    lam = math.lcm(*(v.denominator for v in x))
    cone, _ = algebra.global_no_cone()
    fiber = cone_fiber(cone, (algebra.r, algebra.s), x)
    if fiber.affine_dim < algebra.krull_dim() - algebra.s:
        return Fraction(0)
    inv = invariants(algebra.semigroup.veronese_ray(
        tuple(int(v * lam) for v in x)))
    lattice = Sublattice(tuple(row[:algebra.r]
                               for row in inv["boundary_lattice"].basis),
                         algebra.r)
    return integral_volume(fiber, lattice) / inv["ind"]

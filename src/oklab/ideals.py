"""Graded families of monomial ideals and their mixed multiplicities.

Monomial ideals are stored as generator antichains, but only at the API
edge: ``product``, ``power`` and the family objects.  Colengths are
counted on numpy boolean grids over a box that provably holds the whole
quotient.  The upward closure of a generator set is an accumulated OR
along each axis (dilation by the positive orthant is separable), and a
product of ideals is that closure dilated by the other factors'
generators, one shifted OR per generator, so the counts in
``_bhattacharya_value`` form no product antichain.  Colengths modulo a
power of the maximal ideal m are read from one numerator grid for every
power of m at once: from where num starts on each last-axis fiber when
num is generated in one degree, else from one int32 gap grid (the
least total degree of num below each point, minus its own).  So
``fixed_ideal_mixed_multiplicities`` with I = m^a counts one grid per
J-multidegree, not one per point of its fit.  Families are power
families, explicit lists, or the homogenization of a convex body.

Powers and body families carry a homogeneity index D: J_{kD} has the
integral closure of J_D^k (D = 1 for powers, J_p = J^p; for a body K,
D clears the denominators of K's vertices, so D K is a lattice polytope
and the Newton polyhedron of J_{kD} is k times that of J_D).
Mixed multiplicities depend only on integral closures (Rees; Trung and
Verma) and are homogeneous of degree d = num_vars, so the ladder's rung
e(I_p | J_p) / p^d is the same at every multiple of D: it is counted
once, at p = D.  When D is at most `_P_MAX`, rung(D) is the value and
the analytic spreads are taken at D too.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import RegularityNotReachedError, ResourceLimitError, \
    UnsupportedIdealError, ValidationError, memory_limit_bytes
from .polytope import convex_hull, minkowski_sum, mixed_volume
from .algebra import MixedMultiplicityReport, _stable_fit, subset_positivity
from .semigroup import tail_fit


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generator antichain."""

    num_vars: int
    min_gens: tuple  # sorted tuple of exponent tuples

    @property
    def is_zero(self):
        return not self.min_gens

    @property
    def is_unit(self):
        return self.min_gens == ((0,) * self.num_vars,)

    @functools.cached_property
    def homogeneous_degree(self):
        degs = {sum(g) for g in self.min_gens}
        return degs.pop() if len(degs) == 1 else None

    def contains_monomial(self, a):
        return any(all(x <= y for x, y in zip(g, a)) for g in self.min_gens)


def monomial_ideal(num_vars, gens):
    pts = sorted({tuple(int(x) for x in g) for g in gens})
    for g in pts:
        if len(g) != num_vars or any(x < 0 for x in g):
            raise ValidationError(f"bad exponent vector {g}")
    return MonomialIdeal(num_vars, _antichain(pts))


def _antichain(points):
    """Minimal elements of a deduplicated point list under <=."""
    degs = {sum(p) for p in points}
    if len(degs) <= 1:
        return tuple(sorted(points))  # equigenerated: already an antichain
    pts = sorted(points, key=sum)
    keep = []
    for p in pts:
        if not any(all(x <= y for x, y in zip(k, p)) for k in keep):
            keep.append(p)
    return tuple(sorted(keep))


def maximal_ideal(num_vars):
    gens = [tuple(int(i == j) for j in range(num_vars))
            for i in range(num_vars)]
    return monomial_ideal(num_vars, gens)


def product(i1, i2):
    """The antichain of pairwise generator sums, deduplicated as ints:
    vectors packed in mixed radix max_i(g) + max_i(h) + 1 on axis i add
    without carries, and sort in lexicographic order."""
    if i1.num_vars != i2.num_vars:
        raise ValidationError("ideals live in different rings")
    if i1.is_zero or i2.is_zero:
        return MonomialIdeal(i1.num_vars, ())
    radix = [a + b + 1 for a, b in zip(map(max, zip(*i1.min_gens)),
                                       map(max, zip(*i2.min_gens)))]
    weights = [math.prod(radix[i + 1:]) for i in range(len(radix))]
    a = [sum(map(operator.mul, g, weights)) for g in i1.min_gens]
    b = [sum(map(operator.mul, h, weights)) for h in i2.min_gens]
    sums = sorted({x + y for x in a for y in b})
    axes = [[x // w % r for x in sums] for w, r in zip(weights, radix)]
    return MonomialIdeal(i1.num_vars, _antichain(list(zip(*axes))))


def power(ideal, n):
    if n < 0:
        raise ValidationError("negative ideal power")
    result = monomial_ideal(ideal.num_vars, [(0,) * ideal.num_vars])
    base = ideal
    while n:
        if n & 1:
            result = product(result, base)
        n >>= 1
        if n:
            base = product(base, base)
    return result


def ideal_contains(outer, inner):
    """outer >= inner as ideals."""
    return all(outer.contains_monomial(g) for g in inner.min_gens)


# ---------------------------------------------------------------------------
# grid counting

def _closure_grid(gens, shape):
    """Indicator of the upward closure of ``gens`` on the given box; the
    generators are set one at a time, with no index arrays."""
    grid = np.zeros(shape, dtype=bool)
    for g in gens:
        if all(map(operator.lt, g, shape)):
            grid[g] = True
    for axis in range(len(shape)):
        np.logical_or.accumulate(grid, axis=axis, out=grid)
    return grid


def _dilate(grid, gens):
    """Indicator of grid + gens, the product with the ideal (gens), on
    the same box.

    One shifted in-place OR per generator.  Truncating to the box is
    exact: a box point a lies in grid + g iff a - g does, and a - g <= a
    lies in the box too.
    """
    out = np.zeros_like(grid)
    for g in gens:
        if all(x < s for x, s in zip(g, grid.shape)):
            # List comprehensions: a generator of slices here leaves
            # cyclic garbage, 11 KB per 100 generators until collected.
            view = out[tuple([slice(x, None) for x in g])]
            view |= grid[tuple([slice(0, s - x)
                                for x, s in zip(g, grid.shape)])]
    return out


def _add_coordinate_sum(grid, sign):
    """grid[a] += sign * |a| at every box point a, in place."""
    for axis, side in enumerate(grid.shape):
        idx = np.arange(0, sign * side, sign, dtype=grid.dtype)
        grid += idx.reshape((-1,) + (1,) * (grid.ndim - 1 - axis))


def _mpower_colengths(gap, cs):
    """[#(num / m^c * num) for c in cs] on a box that holds each quotient.

    ``gap`` is an int32 grid, 0 at points of num that include its
    generators and _FAR elsewhere; it is overwritten.  A monomial a lies
    in m^c * num iff some b <= a in num has |a| - |b| >= c, so the count
    only needs, per box point a, the minimum total degree M(a) over
    those b.  M is a min-plus dilation by the positive orthant, computed
    separably with one accumulated minimum per axis, and answers every c
    at once.  The grid and one bool temporary are held at a time: 5
    bytes a point, and 4 bytes a coordinate for one axis index row.
    """
    _add_coordinate_sum(gap, 1)
    for axis in range(gap.ndim):
        np.minimum.accumulate(gap, axis=axis, out=gap)
    # gap(a) = M(a) - |a| lies in (-c, 0] exactly on the quotient; points
    # with nothing of num below them stay far above 0.
    _add_coordinate_sum(gap, -1)
    outside = int(np.count_nonzero(gap > 0))
    return [int(np.count_nonzero(gap > -c)) - outside for c in cs]


def _suffix_colengths(num, k, cs):
    """[#(num / m^c * num) for c in cs] when num is generated in degree k.

    Then m^c * num is num's part of degree >= k + c, and num, upward
    closed, meets each last-axis fiber in a suffix [first, side).  A
    fiber with base a' adds min(max(0, k + c - |a'| - first),
    side - first), or 0 if it misses num.  Past one ``argmax`` over the
    grid it holds three int64 arrays over the fibers and one index row.
    """
    side = num.shape[-1]
    if num.size == 0:
        return [0] * len(cs)
    length = np.argmax(num, axis=-1, keepdims=True)
    # side - first where the fiber's last point is in num, else 0
    np.subtract(side, length, out=length, where=num[..., -1:])
    room = length + (k - side)
    _add_coordinate_sum(room, -1)  # k - |a'| - first
    count = np.empty_like(room)
    out = []
    for c in cs:
        np.add(room, c, out=count)
        np.clip(count, 0, length, out=count)
        out.append(int(count.sum()))
    return out


_FAR = np.iinfo(np.int32).max // 2


def _guard_grid(shape, nbytes):
    """Refuse a count on this box whose grids and temporaries, ``nbytes``
    in all, exceed the memory guard."""
    if nbytes > memory_limit_bytes():
        raise ResourceLimitError(
            f"quotient grid {'x'.join(map(str, shape))} exceeds the memory "
            "guard")


def quotient_dim(num, den):
    """dim_k of (num / den) as a monomial count; exact.

    Requires den <= num.  A monomial a of the quotient lies above some
    generator g of num, so a_i < g_i + k_i(g) on every axis i, where
    k_i(g), the least k with g + k e_i in den, is the least
    max(0, h_i - g_i) over the generators h of den with h_j <= g_j for
    j != i.  With no such h the quotient holds the ray g + k e_i
    (``ValidationError``); else the box with sides max_g (g_i + k_i(g))
    holds it, and the count is #num - #den there, one grid at a time.
    """
    d = num.num_vars
    if den.num_vars != d:
        raise ValidationError("ideals live in different rings")
    if not ideal_contains(num, den):
        raise ValidationError("denominator is not contained in numerator")
    if num.is_zero:
        return 0
    if den.is_zero:
        raise ValidationError("the zero denominator leaves the quotient "
                              "infinite-dimensional")
    shape = [0] * d
    for g in num.min_gens:
        for i, gi in enumerate(g):
            ks = [max(0, h[i] - gi) for h in den.min_gens
                  if all(x <= y for j, (x, y) in enumerate(zip(h, g))
                         if j != i)]
            if not ks:
                raise ValidationError(
                    f"x^{list(g)} x_{i + 1}^k lies outside the denominator "
                    "for every k; the quotient is not finite-dimensional")
            shape[i] = max(shape[i], gi + min(ks))
    _guard_grid(shape, math.prod(shape))  # one bool grid at a time
    return _closure_count(num, shape) - _closure_count(den, shape)


def _closure_count(ideal, shape):
    return int(np.count_nonzero(_closure_grid(ideal.min_gens, shape)))


def quotient_dim_by_mpower(num, c):
    """dim_k of (num / m^c * num); exact, without materializing m^c*num."""
    if num.is_zero or c <= 0:
        return 0
    return _numerator_colengths([num], num.num_vars, [c])[0]


def _as_m_power(ideal):
    """The exponent c with ideal == m^c, or None."""
    deg = ideal.homogeneous_degree
    if deg is None:
        return None
    expected = math.comb(deg + ideal.num_vars - 1, ideal.num_vars - 1)
    return deg if len(ideal.min_gens) == expected else None


# ---------------------------------------------------------------------------
# graded families

class GradedIdealFamily:
    """A graded family {J_n} with J_0 = R and J_i J_j <= J_{i+j}.

    Powers and body families are graded by construction; an explicit
    list is checked once, where it is built.  ``homogeneity`` is an index
    D with J_{kD} integral over J_D^k for every k, or None when the
    family has none (the module docstring).
    """

    homogeneity = None

    def ideal(self, n):
        raise NotImplementedError


class PowersFamily(GradedIdealFamily):
    homogeneity = 1

    def __init__(self, base):
        self.num_vars = base.num_vars
        self.base = base
        self._memo = {0: power(base, 0), 1: base}

    def ideal(self, n):
        """base^n, built from memoized smaller powers.

        The largest memoized power below n is extended by the missing
        power, so a sweep over nearby n costs about one product per new
        n; far from every memoized power, n splits in halves.
        """
        if n < 0:
            raise ValidationError("negative ideal power")
        if n not in self._memo:
            k = max(k for k in self._memo if k < n)
            if 2 * k < n:
                k = n // 2
            self._memo[n] = product(self.ideal(k), self.ideal(n - k))
        return self._memo[n]


class ExplicitFamily(GradedIdealFamily):
    """The finite family J_0, ..., J_L, checked where it is built: J_0 is
    the unit ideal, every piece lives in its ring, and J_i J_j lies in
    J_{i+j} for every pair 1 <= i <= j with i + j <= L (about L^2 / 4
    products).  Pairs are tried by increasing i + j, then i, and the
    error names the first that fails."""

    def __init__(self, ideals):
        if not ideals:
            raise ValidationError("explicit family needs at least J_0")
        if not ideals[0].is_unit:
            raise ValidationError("family must start at the unit ideal")
        self.num_vars = ideals[0].num_vars
        if any(j.num_vars != self.num_vars for j in ideals):
            raise ValidationError("family pieces live in different rings")
        for n in range(2, len(ideals)):
            for i in range(1, n // 2 + 1):
                if not ideal_contains(ideals[n],
                                      product(ideals[i], ideals[n - i])):
                    raise ValidationError(
                        f"family is not graded: J_{i} J_{n - i} is not "
                        f"inside J_{n}")
        self.ideals = list(ideals)

    def ideal(self, n):
        if n >= len(self.ideals):
            raise ValidationError(
                f"explicit family has no piece at index {n}")
        return self.ideals[n]


class BodyFamily(GradedIdealFamily):
    """Family of homogenized lattice-point ideals of a convex body.

    J_n is generated by the monomials (a, nh - |a|) over the lattice
    points a of n*K; all generators sit in total degree nh.  The family
    is graded by construction, so nothing checks it:

    - for lattice points a of nK and b of mK, a + b lies in (n+m)K, by
      convexity;
    - the homogenizing exponents add: (nh - |a|) + (mh - |b|) =
      (n+m)h - |a + b|, so the product of two generators is a generator
      of J_{n+m};
    - 0K = {0}, so J_0 = R;
    - h is an integer of at least the largest coordinate sum over K, so
      every exponent nh - |a| is a nonnegative integer.
    """

    def __init__(self, body, h):
        if body.affine_dim < 0:
            raise ValidationError("body is empty")
        d = body.ambient_dim
        if any(x < 0 for v in body.vertices for x in v):
            raise ValidationError("body must lie in the nonnegative orthant")
        hmax = max(sum(v) for v in body.vertices)
        if Fraction(h).denominator != 1 or h < hmax:
            raise ValidationError(
                f"homogenization level h = {h} must be an integer of at "
                f"least {hmax}, the maximum coordinate sum over the body")
        self.num_vars = d + 1
        self.body = body
        self.h = int(h)
        self.homogeneity = math.lcm(
            *(Fraction(x).denominator for v in body.vertices for x in v))
        self._memo = {}

    def ideal(self, n):
        if n not in self._memo:
            pts = _lattice_points(self.body.scale(n))
            gens = [a + (n * self.h - sum(a),) for a in pts]
            self._memo[n] = monomial_ideal(self.num_vars, gens)
        return self._memo[n]


def _lattice_points(poly):
    if poly.affine_dim < 0:
        return []
    d = poly.ambient_dim
    los = [math.ceil(min(v[i] for v in poly.vertices)) for i in range(d)]
    his = [math.floor(max(v[i] for v in poly.vertices)) for i in range(d)]
    out = []
    for pt in np.ndindex(*(hi - lo + 1 for lo, hi in zip(los, his))):
        a = tuple(lo + x for lo, x in zip(los, pt))
        if poly.contains(a):
            out.append(a)
    return out


# ---------------------------------------------------------------------------
# limits and mixed multiplicities

def _bhattacharya_value(ifam, jfams, point):
    """Exact dim of J(1)_{n_1}...J(s)_{n_s} / I_{n_0} * (same).

    Counted on the numerator's grid, with no product antichain: by its
    gap grid when I_{n_0} = m^c, otherwise as #num - #(num dilated by
    the generators of I_{n_0}).
    """
    n0, n = point[0], point[1:]
    ideal_i = ifam.ideal(n0)
    factors = [fam.ideal(ni) for fam, ni in zip(jfams, n)]
    c = _as_m_power(ideal_i)
    if c is not None:
        return _numerator_colengths(factors, ifam.num_vars, [c])[0]
    if any(j.is_zero for j in factors):
        return 0
    num = _numerator_grid(factors, _pure_power_exponents(ideal_i))
    return int(np.count_nonzero(num)) - \
        int(np.count_nonzero(_dilate(num, ideal_i.min_gens)))


def _numerator_grid(factors, edge):
    """Indicator of num = J(1)...J(s) on a box that holds num / I * num.

    If I holds the pure powers x_i^{e_i} (``edge``), a monomial a of num
    outside I*num has a_i < g_i + e_i for every generator g <= a of num,
    so the box with sides sum_j maxcoord_i(J(j)) + e_i holds the whole
    quotient.  num is the closure grid of the first factor dilated by
    each further factor's generators.  The guard counts the most any
    count of the box holds, whichever path counts it: two bool grids
    while dilating, the grid with an int32 gap grid and a bool temporary
    (5 bytes a point), or the grid with 24 bytes a fiber, plus one index
    row.
    """
    shape = list(edge)
    for j in factors:
        for i, top in enumerate(map(max, zip(*j.min_gens))):
            shape[i] += top
    shape = tuple(shape)
    points = math.prod(shape)
    fibers = points // shape[-1] if shape[-1] else 0
    _guard_grid(shape, max(5 * points, points + 24 * fibers) +
                8 * max(shape))
    num = _closure_grid(factors[0].min_gens if factors
                        else [(0,) * len(shape)], shape)
    for j in factors[1:]:
        num = _dilate(num, j.min_gens)
    return num


def _numerator_colengths(factors, d, cs):
    """[dim num / m^c * num for c in cs], num = J(1)...J(s), on the box
    sized for the largest c: by fiber suffixes when every factor is
    generated in one degree, else by one gap grid."""
    if any(j.is_zero for j in factors):
        return [0] * len(cs)
    num = _numerator_grid(factors, (max(cs),) * d)
    degrees = [j.homogeneous_degree for j in factors]
    if None not in degrees:
        return _suffix_colengths(num, sum(degrees), cs)
    gap = np.full(num.shape, _FAR, dtype=np.int32)
    np.copyto(gap, 0, where=num)
    del num
    return _mpower_colengths(gap, cs)


def _pure_power_exponents(ideal):
    """The least e_i with x_i^{e_i} in the ideal, per axis.

    Raises ``ValidationError`` when an axis has none: the ideal is not
    m-primary.
    """
    edge = []
    for i in range(ideal.num_vars):
        pure = [g[i] for g in ideal.min_gens
                if not any(x for j, x in enumerate(g) if j != i)]
        if not pure:
            raise ValidationError(
                f"ideal is not m-primary (it holds no power of x_{i + 1}); "
                "the quotient is not finite-dimensional")
        edge.append(min(pure))
    return tuple(edge)


def bhattacharya_limit(ifam, jfams, point, n_max=40):
    """Tail-fit estimate of lim dim(.../...) / k^d at k * point."""
    d = ifam.num_vars
    point = tuple(int(x) for x in point)
    ks = range(max(1, n_max // 2), n_max + 1, 4)
    ys = [_bhattacharya_value(ifam, jfams, tuple(k * x for x in point))
          for k in ks]
    return tail_fit(ks, ys, d)


def fixed_ideal_mixed_multiplicities(ideal_i, ideals_j):
    """All e_{(d0,d)}(I | J(1),...,J(s)) by exact interpolation.

    Interpolates the limit polynomial G(n_0, n) of total degree
    d = num_vars on powers of the fixed ideals and reads off the
    top-degree coefficients e / ((d0+1)! d1! ... ds!).  When I = m^a,
    one gap grid per J-part n answers G(n_0, n) for every n_0 at once,
    since I^{n_0} = m^{a n_0}; otherwise each point is counted alone.
    """
    d = ideal_i.num_vars
    s = len(ideals_j)
    ifam = PowersFamily(ideal_i)
    jfams = [PowersFamily(j) for j in ideals_j]
    a = _as_m_power(ideal_i)
    tables = {}  # J-part n -> {n_0: G(n_0, n)}, used when I = m^a

    def fn(pt):
        if a is None:
            return _bhattacharya_value(ifam, jfams, pt)
        n0, n = pt[0], pt[1:]
        table = tables.get(n)
        if table is None or n0 not in table:
            # The fit asks for a round's points by total degree, so a new
            # J-part n comes first at the round's base N0 = n0 and last at
            # n0 = (s + 1) N0 + d + 2 - |n|.  Past an old table N0 is
            # unknown, and the least base whose round holds pt is taken.
            # Either way the box is that of a point of the round.  Answers
            # never depend on this order: a request past the table
            # rebuilds it.
            base = n0 if table is None else -((d + 2 - n0 - sum(n)) //
                                              (s + 1))
            n0s = range(n0, max(n0, (s + 1) * base + d + 2 - sum(n)) + 1)
            factors = [fam.ideal(k) for fam, k in zip(jfams, n)]
            tables[n] = dict(zip(n0s, _numerator_colengths(
                factors, d, [a * k for k in n0s])))
        return tables[n][n0]

    poly = _stable_fit(fn, s + 1, d, n0=2, cap=64)
    out = {}
    for exp, coeff in poly.coeffs.items():
        if sum(exp) != d or exp[0] == 0:
            continue
        d0 = exp[0] - 1
        norm = math.factorial(d0 + 1) * math.prod(
            math.factorial(e) for e in exp[1:])
        out[(d0,) + exp[1:]] = coeff * norm
    return out


# The largest p at which the families' ideals are built off the
# schedule: rung(D) and the spreads at D or by doubling.
_P_MAX = 64


def _common_homogeneity(fams):
    """The lcm D of the families' homogeneity indices, or None when one
    of them has none."""
    indices = [fam.homogeneity for fam in fams]
    return None if None in indices else math.lcm(*indices)


def ladder_report(d, rung, p_schedule):
    """Mixed multiplicity of type ``d`` from the ladder p -> rung(p): the
    last rung, with provenance "ladder", once the last two rungs agree
    (agreement is no certificate), else one Richardson step extrapolates,
    as the ladder converges with O(1/p) error.  Positive means > 0, or
    > 1e-9 when extrapolated."""
    if len(p_schedule) < 2 or min(p_schedule) < 1:
        raise ValidationError(f"p-schedule {tuple(p_schedule)} needs at "
                              "least two rungs, each p >= 1")
    ladder = tuple((p, rung(p)) for p in p_schedule)
    (_, prev), (_, last) = ladder[-2:]
    if last == prev:
        return MixedMultiplicityReport(d, last, "ladder", ladder, last > 0)
    value = 2.0 * float(last) - float(prev)
    return MixedMultiplicityReport(d, value, "extrapolated", ladder,
                                   value > 1e-9)


def family_mixed_multiplicities(ifam, jfams, dtype, p_schedule=(1, 2, 4)):
    """e_{(d0,d)} of the families via the ladder over fixed-p ideals.

    The rung at p is e_{(d0,d)}(I_p | J_p) / p^d.  When I and every J
    have a homogeneity index, D is their lcm, and the rung at every
    multiple of D is the rung at D, counted once (even if D is not in
    the schedule): J_{kD} is integral over J_D^k, mixed multiplicities
    depend only on integral closures, and they scale by k^d: rung(D) is
    the "exact" value when D <= _P_MAX and it is counted within the
    memory guard and the fit cap; else the ladder answers, "ladder" or
    "extrapolated".  Other rungs are counted on their own.
    """
    d = ifam.num_vars
    if any(f.num_vars != d for f in jfams):
        raise ValidationError("families live in different rings")
    d0, dvec = dtype[0], tuple(dtype[1:])
    if len(dvec) != len(jfams) or min(dtype) < 0 or d0 + sum(dvec) != d - 1:
        raise ValidationError(
            f"type {dtype} must be in N^{len(jfams) + 1} with "
            f"d0 + |d| = {d - 1}")

    period = _common_homogeneity([ifam, *jfams])

    @functools.cache
    def rung(p):
        if period is not None and p % period == 0 and p != period:
            return rung(period)
        mm = fixed_ideal_mixed_multiplicities(
            ifam.ideal(p), [f.ideal(p) for f in jfams])
        return Fraction(mm.get((d0,) + dvec, Fraction(0)), p ** d)

    report = ladder_report((d0,) + dvec, rung, p_schedule)
    if period is None or period > _P_MAX:
        return report
    try:
        value = rung(period)
    except (ResourceLimitError, RegularityNotReachedError):
        return report  # rung(D) is out of reach: the ladder answers
    return replace(report, value=value, provenance="exact",
                   positive=value > 0)


def analytic_spread(ideal):
    """l(I) = 1 + dim of the Newton polytope; equigenerated only."""
    if ideal.homogeneous_degree is None:
        raise UnsupportedIdealError(
            "analytic spread is implemented for equigenerated monomial "
            "ideals only")
    return 1 + convex_hull([tuple(Fraction(x) for x in g)
                            for g in ideal.min_gens]).affine_dim


def family_positivity(jfams, dtype):
    """Positivity of e_{(d0,d)}(M | families) with a certificate.

    Checks, for every nonempty subset of the families, that
    sum of d_j <= l(prod_j J(j)_p) - 1, by `subset_positivity`.  When
    every family has a homogeneity index, their lcm D is at most
    _P_MAX and every J(j)_D is nonzero, p = D: the Newton polyhedra at
    p = kD are k times those at D, so the spreads at D are the limit.
    Otherwise p is where the spreads have stabilized (identical at p
    and 2p, from the least p <= _P_MAX where every J(j)_p is nonzero).
    """
    s = len(jfams)
    dvec = tuple(dtype[1:])
    if len(dvec) != s:
        raise ValidationError(f"type {tuple(dtype)} must have {s + 1} "
                              "entries, d0 and one per family")
    subsets = [c for k in range(1, s + 1)
               for c in combinations(range(1, s + 1), k)]

    def spreads(p):
        return {sub: analytic_spread(functools.reduce(
            product, (jfams[j - 1].ideal(p) for j in sub)))
            for sub in subsets}

    period = _common_homogeneity(jfams)
    if period is not None and period <= _P_MAX and \
            not any(fam.ideal(period).is_zero for fam in jfams):
        cur = spreads(period)
    else:
        p = next((p for p in range(1, _P_MAX + 1)
                  if not any(fam.ideal(p).is_zero for fam in jfams)), None)
        if p is None:
            raise ValidationError(f"some family is zero up to p={_P_MAX}")
        cur = spreads(p)
        while (nxt := spreads(2 * p)) != cur:
            cur, p = nxt, 2 * p
            if p > _P_MAX:
                raise ValidationError(
                    f"analytic spreads did not stabilize up to p={_P_MAX}")
    return subset_positivity(dvec, lambda sub: cur[sub] - 1)


def mixed_volume_via_ideals(bodies, dvec, p_schedule=(1, 2, 4)):
    """Mixed volume two ways: ideal-family ladder vs exact polynomial.

    Returns the ideal-side estimate, the exact geometric mixed volume,
    and both positivity verdicts (`subset_positivity` on Minkowski-sum
    dimensions vs analytic spreads) for cross-checking.
    """
    if not bodies:
        raise ValidationError("need at least one body")
    d = bodies[0].ambient_dim
    dvec = tuple(int(x) for x in dvec)
    if sum(dvec) != d:
        raise ValidationError(f"type {dvec} must have total degree {d}")
    h = max(1, max(math.ceil(max(sum(v) for v in b.vertices))
                   for b in bodies))
    jfams = [BodyFamily(b, h) for b in bodies]
    ifam = PowersFamily(maximal_ideal(d + 1))
    report = family_mixed_multiplicities(
        ifam, jfams, (0,) + dvec, p_schedule)
    geometric = mixed_volume(bodies, dvec)
    geo_positive, geo_cert = subset_positivity(
        dvec, lambda sub: functools.reduce(
            minkowski_sum, (bodies[j - 1] for j in sub)).affine_dim)
    fam_positive, fam_cert = family_positivity(jfams, (0,) + dvec)
    return {
        "ideal_side": float(report.value),
        "geometric_side": geometric,
        "ladder": report.ladder,
        "geometric_positive": geo_positive,
        "geometric_certificate": geo_cert,
        "family_positive": fam_positive,
        "family_certificate": fam_cert,
    }

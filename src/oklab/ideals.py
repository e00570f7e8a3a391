"""Graded families of monomial ideals and their mixed multiplicities.

Monomial ideals are stored as generator antichains; membership and
quotient counting run on numpy boolean grids, where the upward closure
of a generator set is computed by an accumulated OR along each axis
(dilation by the positive orthant is separable).  Families are power
families, explicit lists, or the homogenization of a convex body.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ResourceLimitError, UnsupportedIdealError, \
    ValidationError, memory_limit_bytes
from .polytope import compositions, convex_hull, mixed_volume
from .algebra import _stable_fit, ladder_report
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

    @property
    def homogeneous_degree(self):
        degs = {sum(g) for g in self.min_gens}
        return degs.pop() if len(degs) == 1 else None

    def contains_monomial(self, a):
        return any(all(x <= y for x, y in zip(g, a)) for g in self.min_gens)

    def max_gen_degree(self):
        return max((sum(g) for g in self.min_gens), default=0)


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
    if i1.num_vars != i2.num_vars:
        raise ValidationError("ideals live in different rings")
    if i1.is_zero or i2.is_zero:
        return MonomialIdeal(i1.num_vars, ())
    a = np.array(i1.min_gens, dtype=np.int64)
    b = np.array(i2.min_gens, dtype=np.int64)
    sums = (a[:, None, :] + b[None, :, :]).reshape(-1, i1.num_vars)
    uniq = np.unique(sums, axis=0)
    return MonomialIdeal(i1.num_vars,
                         _antichain([tuple(int(x) for x in row)
                                     for row in uniq]))


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
    """Indicator of the upward closure of ``gens`` on the given box."""
    grid = np.zeros(shape, dtype=bool)
    for g in gens:
        if all(x < s for x, s in zip(g, shape)):
            grid[g] = True
    for axis in range(len(shape)):
        np.logical_or.accumulate(grid, axis=axis, out=grid)
    return grid


def quotient_dim(num, den, c_cap=4096):
    """dim_k of (num / den) as a monomial count; exact.

    Requires den <= num and a cofinality certificate: a power c with
    m^c * num contained in den, so the count is finite and the
    enumeration box [0, maxcoord(num) + c]^d is provably complete.
    """
    d = num.num_vars
    if den.num_vars != d:
        raise ValidationError("ideals live in different rings")
    if not ideal_contains(num, den):
        raise ValidationError("denominator is not contained in numerator")
    if num.is_zero:
        return 0
    c = 1
    while c <= c_cap:
        if _mpower_times_contained(num, den, c):
            break
        c *= 2
    else:
        raise ValidationError(
            f"no cofinality certificate m^c*num <= den up to c={c_cap}; "
            "the quotient is not finite-dimensional")
    maxcoord = max(max(g) for g in num.min_gens)
    side = maxcoord + c + 1
    if side ** d > memory_limit_bytes():
        raise ResourceLimitError(
            f"quotient grid {side}^{d} exceeds the memory guard")
    shape = (side,) * d
    grid_num = _closure_grid(num.min_gens, shape)
    grid_den = _closure_grid(den.min_gens, shape)
    return int(np.count_nonzero(grid_num & ~grid_den))


def quotient_dim_by_mpower(num, c):
    """dim_k of (num / m^c * num); exact, without materializing m^c*num.

    A monomial a lies in m^c * num iff some generator g <= a has
    |a| - |g| >= c, so the count only needs, per box point a, the
    minimum total degree M(a) of a generator below a.  M is a min-plus
    dilation by the positive orthant, computed separably with one
    accumulated minimum per axis.
    """
    if num.is_zero or c <= 0:
        return 0
    d = num.num_vars
    maxcoord = max(max(g) for g in num.min_gens)
    side = maxcoord + c + 1
    # One int32 grid and one bool temporary at a time: 5 bytes a point.
    if side ** d * 5 > memory_limit_bytes():
        raise ResourceLimitError(
            f"quotient grid {side}^{d} exceeds the memory guard")
    shape = (side,) * d
    inf = np.iinfo(np.int32).max // 2
    gap = np.full(shape, inf, dtype=np.int32)
    for g in num.min_gens:
        t = sum(g)
        if t < gap[g]:
            gap[g] = t
    for axis in range(d):
        np.minimum.accumulate(gap, axis=axis, out=gap)
    # gap(a) = M(a) - |a| lies in (-c, 0] exactly on the quotient; points
    # with no generator below them stay far above 0.
    idx = np.arange(side, dtype=np.int32)
    for axis in range(d):
        gap -= idx.reshape((-1,) + (1,) * (d - 1 - axis))
    return int(np.count_nonzero(gap > -c)) - int(np.count_nonzero(gap > 0))


def _as_m_power(ideal):
    """The exponent c with ideal == m^c, or None."""
    deg = ideal.homogeneous_degree
    if deg is None:
        return None
    expected = math.comb(deg + ideal.num_vars - 1, ideal.num_vars - 1)
    return deg if len(ideal.min_gens) == expected else None


def _mpower_times_contained(num, den, c):
    """Certify m^c * num <= den by checking all generators g + e, |e|=c."""
    d = num.num_vars
    maxc = max(max(g) for g in den.min_gens) + c + 1
    side = max(max(max(g) for g in num.min_gens) + c + 1, maxc)
    if side ** d > memory_limit_bytes():
        raise ResourceLimitError(
            f"certificate grid {side}^{d} exceeds the memory guard")
    grid_den = _closure_grid(den.min_gens, (side,) * d)
    shell = compositions(c, d)
    for g in num.min_gens:
        for e in shell:
            if not grid_den[tuple(a + b for a, b in zip(g, e))]:
                return False
    return True


# ---------------------------------------------------------------------------
# graded families

class GradedIdealFamily:
    """A graded family {J_n} with J_0 = R and J_i J_j <= J_{i+j}."""

    def __init__(self, num_vars, beta):
        self.num_vars = num_vars
        self.beta = beta

    def ideal(self, n):
        raise NotImplementedError

    def check(self, bound=4):
        """Closure and growth-bound tests over a small index box."""
        unit = self.ideal(0)
        if not unit.is_unit:
            raise ValidationError("family must start at the unit ideal")
        for i in range(1, bound + 1):
            ji = self.ideal(i)
            if ji.max_gen_degree() > self.beta * i:
                raise ValidationError(
                    f"generator degree of J_{i} exceeds beta*{i}")
            for j in range(1, bound + 1 - i):
                if not ideal_contains(self.ideal(i + j),
                                      product(ji, self.ideal(j))):
                    raise ValidationError(
                        f"family is not graded: J_{i} J_{j} is not inside "
                        f"J_{i + j}")
        return self


class PowersFamily(GradedIdealFamily):
    def __init__(self, base):
        super().__init__(base.num_vars, beta=base.max_gen_degree())
        self.base = base
        self._memo = {}

    def ideal(self, n):
        if n not in self._memo:
            self._memo[n] = power(self.base, n)
        return self._memo[n]


class ExplicitFamily(GradedIdealFamily):
    def __init__(self, ideals):
        if not ideals:
            raise ValidationError("explicit family needs at least J_0")
        beta = max((1,) + tuple(
            -(-i.max_gen_degree() // max(n, 1))
            for n, i in enumerate(ideals)))
        super().__init__(ideals[0].num_vars, beta=beta)
        self.ideals = list(ideals)

    def ideal(self, n):
        if n >= len(self.ideals):
            raise ValidationError(
                f"explicit family has no piece at index {n}")
        return self.ideals[n]


class BodyFamily(GradedIdealFamily):
    """Family of homogenized lattice-point ideals of a convex body.

    J_n is generated by the monomials (a, nh - |a|) over the lattice
    points a of n*K; all generators sit in total degree nh.
    """

    def __init__(self, body, h):
        if body.affine_dim < 0:
            raise ValidationError("body is empty")
        d = body.ambient_dim
        if any(x < 0 for v in body.vertices for x in v):
            raise ValidationError("body must lie in the nonnegative orthant")
        hmax = max(sum(v) for v in body.vertices)
        if Fraction(h) < hmax:
            raise ValidationError(
                f"homogenization level {h} is below the maximum coordinate "
                f"sum {hmax} over the body")
        super().__init__(d + 1, beta=h)
        self.body = body
        self.h = h
        self._memo = {}

    def ideal(self, n):
        if n not in self._memo:
            pts = _lattice_points(self.body.scale(n))
            gens = [a + (n * self.h - sum(a),) for a in pts]
            if not gens and n == 0:
                gens = [(0,) * self.num_vars]
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


def body_to_family(body, h, check_bound=3):
    return BodyFamily(body, h).check(check_bound)


# ---------------------------------------------------------------------------
# limits and mixed multiplicities

def _bhattacharya_value(ifam, jfams, point):
    """Exact dim of J(1)_{n_1}...J(s)_{n_s} / I_{n_0} * (same)."""
    n0, n = point[0], point[1:]
    num = monomial_ideal(ifam.num_vars, [(0,) * ifam.num_vars])
    for fam, ni in zip(jfams, n):
        num = product(num, fam.ideal(ni))
    c = _as_m_power(ifam.ideal(n0))
    if c is not None:
        return quotient_dim_by_mpower(num, c)
    den = product(ifam.ideal(n0), num)
    return quotient_dim(num, den)


def bhattacharya_limit(ifam, jfams, point, n_max=40, subsample=4):
    """Tail-fit estimate of lim dim(.../...) / k^d at k * point."""
    d = ifam.num_vars
    point = tuple(int(x) for x in point)
    ks = list(range(max(1, n_max // 2), n_max + 1, subsample))
    ys = [_bhattacharya_value(ifam, jfams, tuple(k * x for x in point))
          for k in ks]
    return tail_fit(ks, ys, d)


def fixed_ideal_mixed_multiplicities(ideal_i, ideals_j):
    """All e_{(d0,d)}(I | J(1),...,J(s)) by exact interpolation.

    Interpolates the limit polynomial G(n_0, n) of total degree
    d = num_vars on powers of the fixed ideals and reads off the
    top-degree coefficients e / ((d0+1)! d1! ... ds!).
    """
    d = ideal_i.num_vars
    s = len(ideals_j)
    ifam = PowersFamily(ideal_i)
    jfams = [PowersFamily(j) for j in ideals_j]

    def fn(pt):
        return _bhattacharya_value(ifam, jfams, pt)

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


def family_mixed_multiplicities(ifam, jfams, dtype, p_schedule=(1, 2, 4)):
    """e_{(d0,d)} of the families via the ladder over fixed-p ideals."""
    d = ifam.num_vars
    d0, dvec = dtype[0], tuple(dtype[1:])
    if d0 + sum(dvec) != d - 1:
        raise ValidationError(
            f"type {dtype} must satisfy d0 + |d| = {d - 1}")

    def rung(p):
        mm = fixed_ideal_mixed_multiplicities(
            ifam.ideal(p), [f.ideal(p) for f in jfams])
        return Fraction(mm.get((d0,) + dvec, Fraction(0)), p ** d)

    return ladder_report(
        (d0,) + dvec, rung, p_schedule,
        lambda value: value > 0 if isinstance(value, Fraction)
        else value > 1e-9)


def analytic_spread(ideal):
    """l(I) = 1 + dim of the Newton polytope; equigenerated only."""
    if ideal.homogeneous_degree is None:
        raise UnsupportedIdealError(
            "analytic spread is implemented for equigenerated monomial "
            "ideals only")
    return 1 + convex_hull([tuple(Fraction(x) for x in g)
                            for g in ideal.min_gens]).affine_dim


def family_positivity(jfams, dtype, p_start=1):
    """Positivity of e_{(d0,d)}(M | families) with a certificate.

    Checks, for every nonempty subset of the families, that
    sum of d_j <= l(prod_j J(j)_p) - 1, at a p where the analytic
    spreads have stabilized (identical at p and 2p).
    """
    from itertools import combinations
    s = len(jfams)
    d0, dvec = dtype[0], tuple(dtype[1:])
    subsets = [c for k in range(1, s + 1)
               for c in combinations(range(s), k)]

    def spreads(p):
        out = {}
        for sub in subsets:
            prod = jfams[sub[0]].ideal(p)
            for j in sub[1:]:
                prod = product(prod, jfams[j].ideal(p))
            out[sub] = analytic_spread(prod)
        return out

    p = p_start
    cur = spreads(p)
    while True:
        nxt = spreads(2 * p)
        if nxt == cur:
            break
        cur, p = nxt, 2 * p
        if p > 64:
            raise ValidationError(
                "analytic spreads did not stabilize up to p=64")
    for sub in subsets:
        lhs = sum(dvec[j] for j in sub)
        if lhs > cur[sub] - 1:
            return False, tuple(j + 1 for j in sub)
    return True, None


def mixed_volume_via_ideals(bodies, dvec, p_schedule=(1, 2, 4)):
    """Mixed volume two ways: ideal-family ladder vs exact polynomial.

    Returns the ideal-side estimate, the exact geometric mixed volume,
    and both positivity verdicts (Minkowski-sum dimensions vs analytic
    spreads) for cross-checking.
    """
    if not bodies:
        raise ValidationError("need at least one body")
    d = bodies[0].ambient_dim
    dvec = tuple(int(x) for x in dvec)
    if sum(dvec) != d:
        raise ValidationError(f"type {dvec} must have total degree {d}")
    h = max(1, max(math.ceil(max(sum(v) for v in b.vertices))
                   for b in bodies))
    jfams = [body_to_family(b, h) for b in bodies]
    ifam = PowersFamily(maximal_ideal(d + 1))
    report = family_mixed_multiplicities(
        ifam, jfams, (0,) + dvec, p_schedule)
    geometric = mixed_volume(bodies, dvec)
    from itertools import combinations
    geo_positive, geo_cert = True, None
    for k in range(1, len(bodies) + 1):
        for sub in combinations(range(len(bodies)), k):
            total = bodies[sub[0]]
            for j in sub[1:]:
                from .polytope import minkowski_sum
                total = minkowski_sum(total, bodies[j])
            if sum(dvec[j] for j in sub) > total.affine_dim:
                geo_positive, geo_cert = False, tuple(j + 1 for j in sub)
                break
        if not geo_positive:
            break
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

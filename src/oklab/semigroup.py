"""Graded subsemigroups of Z^r x N^s.

Three kinds of sources are supported: finite generator lists, staircase
rules (r = 1, closed-form per-degree intervals), and Veronese rays of a
generated parent semigroup; invariants and Okounkov bodies need a singly
graded generator source.  Graded pieces as point sets come from a
degree-indexed dynamic program over frozensets.  Piece counts of
generator sources, in any multidegree and along Veronese rays, are read
from one box of degrees: Q-independent generators (a free semigroup)
are counted by their Hilbert series, prod_g 1/(1 - t^deg g), with
shifted numpy adds; every other set by a dynamic program on big-integer
bitsets in lattice coordinates.  This is what makes the limit checks at
n_max = 500 affordable.

Staircase counts are closed forms in integers: each rule is compiled
once to integer numerators over a common denominator, a Veronese ray of
a staircase is again a staircase (the rules restricted to the ray), and
its counts up to n_max are read in one pass over the degrees.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (EmptyTruncationError, ResourceLimitError,
                     UnsupportedSemigroupError, ValidationError,
                     memory_limit_bytes)
from .lattice import echelon, group_generated, int_det, integer_kernel, \
    saturation, subgroup_index
from .polytope import Polytope, convex_hull, integral_volume


def tail_fit(ks, ys, q):
    """Leading coefficient a of the least-squares fit y ~ a k^q + b k^(q-1).

    For q = 0 the counts are eventually constant and their mean is
    returned.  The distinct ks and the counts ys are Python integers, so
    the 2 x 2 normal equations are solved exactly and a is rounded once.
    """
    need = 2 if q else 1
    if len(ys) < need:
        raise ValidationError(f"a tail fit of degree {q} needs {need} "
                              f"counts or more, not {len(ys)}")
    if q == 0:
        return sum(ys) / len(ys)
    sums = _power_sums(ks, 2 * q)
    w = ys  # y k^(q-1)
    for _ in range(q - 1):
        w = list(map(operator.mul, w, ks))
    low, high = sum(w), sum(map(operator.mul, w, ks))
    return (high * sums[2 * q - 2] - low * sums[2 * q - 1]) / \
        (sums[2 * q] * sums[2 * q - 2] - sums[2 * q - 1] ** 2)


def _power_sums(ks, top):
    """[sum(k**j for k in ks) for j in range(top + 1)], exactly.

    A ``range`` lo + step * t, t < n, takes closed forms: P_i =
    sum_{t<n} t^i from n^(i+1) = sum_{l<=i} C(i+1, l) P_l, then
    sum (lo + step t)^j = sum_i C(j, i) lo^(j-i) step^i P_i.
    """
    if not isinstance(ks, range):
        return [sum(k ** j for k in ks) for j in range(top + 1)]
    n, lo, step = len(ks), ks.start, ks.step
    p = []
    for i in range(top + 1):
        p.append((n ** (i + 1) - sum(math.comb(i + 1, l) * p[l]
                                     for l in range(i))) // (i + 1))
    return [sum(math.comb(j, i) * lo ** (j - i) * step ** i * p[i]
                for i in range(j + 1)) for j in range(top + 1)]


# ---------------------------------------------------------------------------
# staircase bound rules

def _dot(form, n):
    return sum(map(operator.mul, form, n))  # stops at the shorter, as zip


def _quadratic_at(rows, n):
    return sum(rows[i][j] * n[i] * n[j]
               for i in range(len(rows)) for j in range(len(rows)))


def _ceil_sqrt(q):
    """Smallest j >= 0 with j^2 >= q, for q >= 0."""
    return math.isqrt(q - 1) + 1 if q > 0 else 0


def _negative_at(n):
    return ValidationError(f"quadratic form is negative at {n}; not "
                           "positive semidefinite")


# How each piecewise-linear kind picks among its forms.  A floor or ceil
# is monotone, so it commutes with the pick.
_PICKS = {"linear": operator.itemgetter(0), "max": max, "min": min}


@dataclass(frozen=True)
class BoundRule:
    """Closed-form integer bound j(n) for a staircase source.

    kinds: ``linear`` (single rational form), ``max`` / ``min`` (piecewise
    linear over several forms), ``ceil_sqrt_quadratic`` (smallest j with
    j^2 >= Q(n), Q positive semidefinite with integer entries).  The
    forms are compiled once into integer numerators over one common
    denominator, so a linear, max or min bound is one floor or ceil
    division of integers; a square-root bound is one ``math.isqrt``.
    `restrict` gives a rule along a ray in closed form, and `line` reads
    a rule on N at every degree up to n_max in one pass.  A rule of an
    unknown kind, a piecewise-linear rule without forms and a square-root
    rule without a square matrix raise ``ValidationError`` when built.
    """

    kind: str
    forms: tuple = ()      # tuple of coefficient tuples (Fractions)
    quadratic: tuple = ()  # integer matrix rows for the quadratic form

    def __post_init__(self):
        if self.kind == "ceil_sqrt_quadratic":
            q = self.quadratic
            if not q or any(len(row) != len(q) for row in q):
                raise ValidationError(f"{self.kind} rule needs a nonempty "
                                      f"square matrix, got {q!r}")
        elif self.kind not in _PICKS:
            raise ValidationError(f"unknown bound rule kind {self.kind!r}")
        elif not self.forms:
            raise ValidationError(f"{self.kind} rule needs at least one form")

    @functools.cached_property
    def _compiled(self):
        """(integer numerator rows, common denominator) of the forms."""
        forms = [[Fraction(c) for c in f] for f in self.forms]
        den = math.lcm(*(c.denominator for f in forms for c in f))
        return [[c.numerator * (den // c.denominator) for c in f]
                for f in forms], den

    def value(self, n, side):
        """Integer bound at degree n; ``side`` is 'lower' or 'upper'."""
        if self.kind == "ceil_sqrt_quadratic":
            q = _quadratic_at(self.quadratic, n)
            if q < 0:
                raise _negative_at(n)
            return _ceil_sqrt(q)
        top, den = self._top(n)
        return -(-top // den) if side == "lower" else top // den

    def _top(self, n):
        """(numerator, common denominator) of the picked form at n."""
        nums, den = self._compiled
        return _PICKS[self.kind](tuple(_dot(f, n) for f in nums)), den

    def normal(self, s):
        """The same rule on N^s in normal form, its forms read as `_dot`
        reads them.  sqrt(Q(n)) = |g . n| (`_rank_one_root`) is `linear`
        |g| when g has one sign, else `max` of g and -g.  A min or max
        keeps, once each, the forms no other dominates under its pick; one
        form left is `linear`."""
        kind, forms = self.kind, self.forms[:1 if self.kind == "linear"
                                            else None]
        if kind == "ceil_sqrt_quadratic":
            g = _rank_one_root(self.quadratic)
            if g is None:
                return self
            kind, forms = ("linear", [[abs(c) for c in g]]) if \
                min(g) >= 0 or max(g) <= 0 else ("max", [g, [-c for c in g]])
        forms = list(dict.fromkeys(
            tuple(Fraction(c) for c in (*f, *[0] * s)[:s]) for f in forms))
        if kind != "linear":
            pick = _PICKS[kind]
            forms = [f for f in forms if not any(
                g != f and tuple(map(pick, f, g)) == g for g in forms)]
        return BoundRule("linear" if len(forms) == 1 else kind,
                         tuple(forms))

    def restrict(self, ray):
        """The rule k -> value(k * ray) on N, in closed form.

        Each form f becomes the single coefficient f . ray and Q becomes
        ray^T Q ray; the kind is kept.
        """
        nums, den = self._compiled
        quadratic = ((_quadratic_at(self.quadratic, ray),),) \
            if self.quadratic else ()
        return BoundRule(self.kind,
                         tuple((Fraction(_dot(f, ray), den),) for f in nums),
                         quadratic)

    def line(self, n_max, side):
        """[value((k,), side) for k = 0..n_max] of a rule on N, in one pass.

        On N a bound is read off its value at 1: the picked form at k is
        k times the one at 1, since k >= 0, and Q(k) = k^2 Q(1).
        """
        if self.kind == "ceil_sqrt_quadratic":
            q = _quadratic_at(self.quadratic, (1,))
            if q < 0 < n_max:
                raise _negative_at((1,))
            return [_ceil_sqrt(q * k * k) for k in range(n_max + 1)]
        top, den = self._top((1,))
        if side == "lower":
            return [-(-top * k // den) for k in range(n_max + 1)]
        return [top * k // den for k in range(n_max + 1)]


def _rank_one_root(q):
    """An integer g with Q + Q^T = 2 g g^T, or None: |g_i| = isqrt(Q_ii),
    signed as Q_ki + Q_ik for the first g_k != 0, and checked exactly."""
    size = range(len(q))
    g = [math.isqrt(max(q[i][i], 0)) for i in size]
    k = next((i for i in size if g[i]), 0)
    g = [-c if q[k][i] + q[i][k] < 0 else c for i, c in zip(size, g)]
    if all(q[i][j] + q[j][i] == 2 * g[i] * g[j] for i in size for j in size):
        return g
    return None


@dataclass(frozen=True)
class StaircaseSpec:
    """Degreewise rule pointset(n) = {(j, n) : lower(n) <= j <= upper(n)},
    its rules in normal form (`BoundRule.normal`) and ``written`` as given.
    """

    s: int
    lower: BoundRule
    upper: BoundRule
    written: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "written", (self.lower, self.upper))
        object.__setattr__(self, "lower", self.lower.normal(self.s))
        object.__setattr__(self, "upper", self.upper.normal(self.s))

    def bounds(self, n):
        return self.lower.value(n, "lower"), self.upper.value(n, "upper")

    def restrict(self, ray):
        """The s = 1 staircase of the pieces at k * ray."""
        return StaircaseSpec(1, self.lower.restrict(ray),
                             self.upper.restrict(ray))

    def counts_upto(self, n_max):
        """[#pointset(k) for k = 0..n_max] of an s = 1 staircase."""
        return [max(0, up - lo + 1) for lo, up in
                zip(self.lower.line(n_max, "lower"),
                    self.upper.line(n_max, "upper"))]


def closure_doubt(spec):
    """Why a staircase is not certified closed under addition, or None.

    A subadditive lower bound and a superadditive upper one close it, as
    ceilings of sublinear functions (lower linear, max, ceil_sqrt_quadratic
    with Q positive semidefinite, where sqrt(Q) is a seminorm) and floors
    of superlinear ones (upper linear, min) are.  In normal form a lower
    min or upper max has no dominating form, and is not certified.  No
    bound is evaluated.
    """
    for rule, written, side in zip((spec.lower, spec.upper), spec.written,
                                   ("lower", "upper")):
        if rule.kind == {"lower": "min", "upper": "max"}[side]:
            why = (f"no form of the {side} {rule.kind} rule dominates the "
                   "others coordinatewise")
        elif rule.kind == "ceil_sqrt_quadratic" and side == "upper":
            why = "an upper ceil_sqrt_quadratic rule is never certified"
        elif rule.kind == "ceil_sqrt_quadratic" and \
                not _positive_semidefinite(rule.quadratic):
            why = "the lower rule's Q is not positive semidefinite"
        else:
            continue
        rows = "; ".join(", ".join(map(str, row))
                         for row in written.quadratic or written.forms)
        return f"{why} (the {side} rule as written: {written.kind} [{rows}])"
    return None


def _positive_semidefinite(q):
    """Whether every principal minor of the symmetric Q + Q^T is >= 0."""
    return all(int_det([[q[i][j] + q[j][i] for j in sub] for i in sub]) >= 0
               for t in range(1, len(q) + 1)
               for sub in itertools.combinations(range(len(q)), t))


# ---------------------------------------------------------------------------
# piece counts over a box of degrees

def _bit_layout(r, s, gens, top):
    """(rank of G, bit shift per generator, bits per degree) on [0, top].

    A point of S is fixed by its coordinates in the lattice G its
    generators span.  The coordinates that the degree determines (pivots
    of the degree block) drop out; the others, offset by |n| * base so
    they stay in [0, width), index the bits of one big integer per
    degree.
    """
    vecs = [val + deg for val, deg in gens]
    lat = group_generated(vecs, r + s)
    pivots = echelon([[b[r + i] for b in lat.basis] for i in range(s)])[1]
    free = [j for j in range(lat.rank) if j not in pivots]
    coords = [[c[j] for j in free] for c in map(lat.coordinates, vecs)]
    totals = [sum(deg) for _, deg in gens]
    base, widths = [], []
    for t in range(len(free)):
        slopes = [Fraction(c[t], d) for c, d in zip(coords, totals)]
        base.append(math.floor(min(slopes)))
        widths.append(math.floor(sum(top) * (max(slopes) - base[t])) + 1)
    strides = [math.prod(widths[t + 1:]) for t in range(len(free))]
    shifts = [sum((x - d * b) * st for x, b, st in zip(c, base, strides))
              for c, d in zip(coords, totals)]
    return lat.rank, shifts, math.prod(widths)


def _series_box(degs, top):
    """Coefficients of prod_g 1/(1 - t^deg g) on the box [0, top].

    1/(1 - t^d) = (1 + t^d)(1 + t^2d)(1 + t^4d)..., and a factor whose
    step leaves the box acts as 1 there, so each generator costs one
    shifted add per doubling of its degree that fits.  The memory guard
    is checked before anything is allocated.
    """
    size = math.prod(t + 1 for t in top)
    # The counts and numpy's copy of an add's overlapping source (at most
    # the box); for a strided add also its two buffers of getbufsize()
    # int64s, and 16 KiB for the iterator, the views and the interpreter.
    if 16 * (size + np.getbufsize()) + 16384 > memory_limit_bytes():
        raise ResourceLimitError(
            f"piece counting up to {top} exceeds the memory guard",
            degree=top)
    counts = np.zeros([t + 1 for t in top], dtype=np.int64)
    counts[(0,) * len(top)] = 1
    for step in degs:
        while all(map(operator.le, step, top)):
            counts[tuple(slice(a, None) for a in step)] += counts[
                tuple(slice(t + 1 - a) for a, t in zip(step, top))]
            step = tuple(2 * a for a in step)
    return counts


def _bitset_box(degs, shifts, bits, top):
    """#[S]_n on the box [0, top] by a DP on big-integer bitsets.

    Degree n holds the OR of the bitsets at n - deg g shifted by the
    generator's shift (see `_bit_layout`; ``bits`` per degree).  The DP
    runs over the box in lexicographic order and keeps only the slab of
    degrees within the largest first-axis generator degree.  The memory
    guard is checked from that window's bit size before anything is
    allocated.
    """
    reach0 = max((deg[0] for deg in degs), default=0)
    rest = [range(t + 1) for t in top[1:]]
    slab_size = math.prod(len(r) for r in rest)
    # The window's bitsets plus the shifted temporary, and the counts.
    window_bits = ((reach0 + 1) * slab_size + 1) * bits
    if window_bits // 8 + 8 * (top[0] + 1) * slab_size > \
            memory_limit_bytes():
        raise ResourceLimitError(
            f"piece counting up to {top} exceeds the memory guard",
            degree=top)
    counts = np.zeros([t + 1 for t in top], dtype=np.int64)
    flat = counts.reshape(-1)  # a view, in lexicographic order
    window = {}
    k = 0
    for i in range(top[0] + 1):
        window.pop(i - reach0 - 1, None)
        slab = window[i] = {}
        steps = [(window[i - deg[0]], deg[1:], sh)
                 for deg, sh in zip(degs, shifts) if i - deg[0] in window]
        for n in itertools.product(*rest):
            acc = 0 if k else 1  # degree 0 holds the empty sum
            for below, d, sh in steps:
                prev = below.get(tuple(map(operator.sub, n, d)))
                if prev:
                    acc |= prev << sh
            slab[n] = acc
            flat[k] = acc.bit_count()
            k += 1
    return counts


# ---------------------------------------------------------------------------
# semigroup

@dataclass(frozen=True)
class Generators:
    gens: tuple  # tuple of (val tuple, deg tuple)


@dataclass(frozen=True)
class VeroneseRay:
    parent: "GradedSemigroup"
    ray: tuple


class GradedSemigroup:
    """A graded subsemigroup of Z^r x N^s."""

    def __init__(self, r, s, source):
        self.r = r
        self.s = s
        self.source = source
        self._piece_memo = {(0,) * s: frozenset({(0,) * r})}
        self._memo_points = 1
        # Piece counts over the box [0, top], grown on demand by doubling.
        self._counts = np.ones((1,) * s, dtype=np.int64)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_generators(cls, r, s, gens):
        norm = []
        for val, deg in gens:
            val, deg = tuple(int(x) for x in val), tuple(int(x) for x in deg)
            if len(val) != r or len(deg) != s:
                raise ValidationError(f"generator ({val}, {deg}) does not "
                                      f"match r={r}, s={s}")
            if any(d < 0 for d in deg) or not any(deg):
                raise ValidationError(
                    f"generator degree {deg} must be nonzero and nonnegative")
            norm.append((val, deg))
        return cls(r, s, Generators(tuple(norm)))

    @classmethod
    def from_staircase(cls, spec):
        if doubt := closure_doubt(spec):
            raise ValidationError(
                f"staircase closure cannot be certified: {doubt}")
        return cls(1, spec.s, spec)

    def veronese_ray(self, ray):
        """The singly graded semigroup of pieces along k * ray.

        A staircase restricts to the s = 1 staircase of its rules along
        the ray (`StaircaseSpec.restrict`), built in closed form; a
        restriction of a closed staircase is closed.
        Any other source is wrapped as a `VeroneseRay`.
        """
        ray = tuple(int(x) for x in ray)
        if len(ray) != self.s or any(x <= 0 for x in ray):
            raise ValidationError(f"ray {ray} must be positive of length "
                                  f"{self.s}")
        if self.s == 1 and ray == (1,):
            return self
        if isinstance(self.source, StaircaseSpec):
            return GradedSemigroup(1, 1, self.source.restrict(ray))
        return GradedSemigroup(self.r, 1, VeroneseRay(self, ray))

    @property
    def generators(self):
        if not isinstance(self.source, Generators):
            raise UnsupportedSemigroupError("semigroup is not finitely "
                                            "presented by generators")
        return self.source.gens

    @property
    def is_generated(self):
        return isinstance(self.source, Generators)

    # -- graded pieces -------------------------------------------------------

    def _degree(self, n):
        n = tuple(int(x) for x in n)
        if len(n) != self.s or any(x < 0 for x in n):
            raise ValidationError(f"degree {n} must be in N^{self.s}")
        return n

    def graded_piece(self, n):
        """Exact set of valuation parts at degree vector n."""
        n = self._degree(n)
        if isinstance(self.source, StaircaseSpec):
            lo, up = self.source.bounds(n)
            return frozenset((j,) for j in range(lo, up + 1))
        if isinstance(self.source, VeroneseRay):
            target = tuple(k * n[0] for k in self.source.ray)
            return self.source.parent.graded_piece(target)
        return self._piece_generated(n)

    def piece_span(self, n):
        """Valuation parts v whose points (v, n) span the piece at n over
        Q: a staircase piece is an interval, spanned by its two ends."""
        if isinstance(self.source, StaircaseSpec):
            lo, up = self.source.bounds(n)
            return [(lo,), (up,)] if lo <= up else []
        return self.graded_piece(n)

    def _piece_generated(self, n):
        memo = self._piece_memo
        if n in memo:
            return memo[n]
        limit = 8 * memory_limit_bytes() // (64 * max(self.r, 1))
        # Bottom-up over the box [0, n] in lexicographic order, which puts
        # every predecessor deg - gdeg first.
        for deg in itertools.product(*(range(x + 1) for x in n)):
            if deg in memo:
                continue
            acc = set()
            for val, gdeg in self.generators:
                prev = tuple(a - b for a, b in zip(deg, gdeg))
                if any(x < 0 for x in prev):
                    continue
                base = memo.get(prev)
                if base:
                    acc.update(tuple(a + b for a, b in zip(val, p))
                               for p in base)
            memo[deg] = frozenset(acc)
            self._memo_points += len(acc)
            if self._memo_points > limit:
                raise ResourceLimitError(
                    f"piece enumeration exceeded the memory guard at {deg}",
                    degree=deg)
        return memo[n]

    # -- counting ------------------------------------------------------------

    def piece_size(self, n):
        """#[S]_n; exact."""
        n = self._degree(n)
        if isinstance(self.source, StaircaseSpec):
            lo, up = self.source.bounds(n)
            return max(0, up - lo + 1)
        if isinstance(self.source, VeroneseRay):
            return self.source.parent.piece_size(
                tuple(n[0] * k for k in self.source.ray))
        shape = self._counts.shape
        if any(a >= b for a, b in zip(n, shape)):
            # Only the outgrown axes grow, by doubling.  The memory guard
            # counts only the new box: drop the old one.
            self._counts = np.ones((1,) * self.s, dtype=np.int64)
            self._counts = self._count_box(
                tuple(max(a, 2 * (b - 1)) if a >= b else b - 1
                      for a, b in zip(n, shape)))
        return int(self._counts[n])

    def counts_upto(self, n_max):
        """{n: #[S]_n} for n <= n_max; exact.  Singly graded only."""
        if self.s != 1:
            raise UnsupportedSemigroupError("counts_upto needs s = 1")
        self.piece_size((n_max,))  # checks n_max, sizes the counting box
        if isinstance(self.source, StaircaseSpec):
            return dict(enumerate(self.source.counts_upto(n_max)))
        if isinstance(self.source, VeroneseRay):
            return {n: self.piece_size((n,)) for n in range(n_max + 1)}
        return dict(enumerate(self._counts[:n_max + 1].tolist()))

    def _count_box(self, top):
        """#[S]_n for every degree n in the box [0, top], as an int array.

        Q-independent generators (rank G = their number) embed N^k in S,
        so #[S]_n is the coefficient of t^n in the Hilbert series
        prod_g 1/(1 - t^deg g) (`_series_box`).  Every other set is
        counted by the bitset DP (`_bitset_box`) in the coordinates of
        `_bit_layout`.  Either way a count is at most the number of bits
        a degree needs, which is checked to fit in int64.
        """
        gens = self.generators
        degs = [deg for _, deg in gens]
        rank, shifts, bits = _bit_layout(self.r, self.s, gens, top)
        if bits > np.iinfo(np.int64).max:
            raise ResourceLimitError(
                f"piece counts up to {top} may overflow int64", degree=top)
        if rank == len(gens):
            return _series_box(degs, top)
        return _bitset_box(degs, shifts, bits, top)

    # -- invariants and bodies -----------------------------------------------

    def invariants(self):
        """G, m, ind, strong non-negativity and L-dimension; once.
        Singly graded generator sources only."""
        if self.s != 1:
            raise UnsupportedSemigroupError(
                "invariants are defined on singly graded semigroups; "
                "restrict through veronese_ray first")
        return self._invariants

    @functools.cached_property
    def _invariants(self):
        gens = self.generators
        lat = group_generated([val + deg for val, deg in gens], self.r + 1)
        m = math.gcd(*(deg[0] for _, deg in gens)) if gens else 0
        ker = integer_kernel([[b[-1] for b in lat.basis]], lat.rank)
        inner = group_generated([lat.member(c) for c in ker.basis],
                                self.r + 1)
        boundary = saturation(inner)
        ind = subgroup_index(inner, boundary)
        return {
            "G": lat,
            "m": m,
            "ind": ind,
            "boundary_lattice": boundary,
            # Always pointed: every generator has degree coordinate >= 1
            # (s = 1, and from_generators rejects degrees <= 0).
            "strongly_nonneg": True,
            "L_dim": lat.rank,
        }

    def okounkov_body(self):
        """Slice of the generated cone at degree m(S); a Polytope."""
        m = self.invariants()["m"]
        pts = [tuple(Fraction(m * x, deg[0]) for x in val) + (Fraction(m),)
               for val, deg in self.generators]
        return convex_hull(pts)

    def kk_limit_check(self, n_max=500):
        """Empirical vs predicted growth of #[S]_{nm} (s = 1)."""
        inv = self.invariants()
        body = self.okounkov_body()
        q = body.affine_dim
        vol = integral_volume(body, inv["boundary_lattice"])
        predicted = vol / inv["ind"]
        m = inv["m"]
        counts = self.counts_upto(n_max * m)
        ns = range(max(1, n_max // 2), n_max + 1)
        estimate = tail_fit(ns, [counts[n * m] for n in ns], q)
        rel_err = abs(estimate - float(predicted)) / float(predicted)
        return {"estimate": estimate, "predicted": predicted,
                "rel_err": rel_err, "q": q, "m": m, "ind": inv["ind"]}

    # -- truncation ----------------------------------------------------------

    def truncate(self, p):
        """Subsemigroup generated by the piece at degree vector p."""
        p = tuple(int(x) for x in p)
        piece = self.graded_piece(p)
        if not piece:
            raise EmptyTruncationError(f"piece at {p} is empty")
        return GradedSemigroup.from_generators(
            self.r, self.s, [(v, p) for v in sorted(piece)])

"""Graded subsemigroups of Z^r x N^s.

Three kinds of sources are supported: finite generator lists, staircase
rules (r = 1, closed-form per-degree intervals), and Veronese rays of a
parent semigroup.  Enumeration of graded pieces is a degree-indexed
dynamic program; for singly graded generator sources the asymptotic
counting runs on big-integer bitsets in lattice coordinates, which is
what makes the limit checks at n_max = 500 affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (EmptyTruncationError, ResourceLimitError,
                     UnsupportedSemigroupError, ValidationError,
                     memory_limit_bytes)
from .lattice import group_generated, integer_kernel, subgroup_index, \
    vanishing_forms
from .lp import cone_is_pointed
from .polytope import Polytope, convex_hull, integral_volume


def tail_fit(ks, ys, q):
    """Leading coefficient a of the least-squares fit y ~ a k^q + b k^(q-1).

    For q = 0 the counts are eventually constant and their mean is
    returned.
    """
    ys = np.asarray(ys, dtype=float)
    if q == 0:
        return float(ys.mean())
    ks = np.asarray(ks, dtype=float)
    design = np.stack([ks ** q, ks ** (q - 1)], axis=1)
    sol, *_ = np.linalg.lstsq(design, ys, rcond=None)
    return float(sol[0])


# ---------------------------------------------------------------------------
# staircase bound rules

def _ceil_frac(x):
    return -((-x.numerator) // x.denominator) if isinstance(x, Fraction) \
        else -((-x) // 1)


def _floor_frac(x):
    return x.numerator // x.denominator if isinstance(x, Fraction) else x // 1


@dataclass(frozen=True)
class BoundRule:
    """Closed-form integer bound j(n) for a staircase source.

    kinds: ``linear`` (single rational form), ``max`` / ``min`` (piecewise
    linear over several forms), ``ceil_sqrt_quadratic`` (smallest j with
    j^2 >= Q(n), Q positive semidefinite with integer entries).
    """

    kind: str
    forms: tuple = ()      # tuple of coefficient tuples (Fractions)
    quadratic: tuple = ()  # integer matrix rows for the quadratic form

    def value(self, n, side):
        """Integer bound at degree n; ``side`` is 'lower' or 'upper'."""
        rnd = _ceil_frac if side == "lower" else _floor_frac
        if self.kind == "linear":
            return rnd(_form_at(self.forms[0], n))
        if self.kind == "max":
            return max(rnd(_form_at(f, n)) for f in self.forms)
        if self.kind == "min":
            return min(rnd(_form_at(f, n)) for f in self.forms)
        if self.kind == "ceil_sqrt_quadratic":
            q = _quadratic_at(self.quadratic, n)
            if q < 0:
                raise ValidationError("quadratic form is negative at "
                                      f"{n}; not positive semidefinite")
            return math.isqrt(q - 1) + 1 if q > 0 else 0
        raise ValidationError(f"unknown bound rule kind {self.kind!r}")


def _form_at(coeffs, n):
    return sum(Fraction(c) * k for c, k in zip(coeffs, n))


def _quadratic_at(rows, n):
    return sum(rows[i][j] * n[i] * n[j]
               for i in range(len(rows)) for j in range(len(rows)))


@dataclass(frozen=True)
class StaircaseSpec:
    """Degreewise rule pointset(n) = {(j, n) : lower(n) <= j <= upper(n)}."""

    s: int
    lower: BoundRule
    upper: BoundRule

    def bounds(self, n):
        return self.lower.value(n, "lower"), self.upper.value(n, "upper")


def _check_staircase_closure(spec, bound):
    """Sub/superadditivity of the bounds over the test box."""
    from .polytope import compositions
    degrees = [d for t in range(1, bound + 1)
               for d in compositions(t, spec.s)]
    vals = {}
    for n in degrees + [(0,) * spec.s]:
        vals[n] = spec.bounds(n)
    lo0, up0 = vals[(0,) * spec.s]
    if (lo0, up0) != (0, 0):
        raise ValidationError("staircase must have pointset(0) = {0}; got "
                              f"bounds {(lo0, up0)}")
    for m in degrees:
        lm, um = vals[m]
        if lm > um:
            continue
        for n in degrees:
            ln, un = vals[n]
            if ln > un:
                continue
            tot = tuple(a + b for a, b in zip(m, n))
            lt, ut = spec.bounds(tot)
            if lt > lm + ln or ut < um + un:
                raise ValidationError(
                    f"staircase not closed under addition at {m} + {n}")


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

    def __init__(self, r, s, source, empirical=False):
        self.r = r
        self.s = s
        self.source = source
        self.empirical = empirical
        self._piece_memo = {(0,) * s: frozenset({(0,) * r})}
        self._memo_points = 1
        self._inv_cache = None

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
    def from_staircase(cls, spec, closure_bound=8):
        _check_staircase_closure(spec, closure_bound)
        return cls(1, spec.s, spec, empirical=False)

    def veronese_ray(self, ray):
        """The singly graded semigroup of pieces along k * ray."""
        ray = tuple(int(x) for x in ray)
        if len(ray) != self.s or any(x <= 0 for x in ray):
            raise ValidationError(f"ray {ray} must be positive of length "
                                  f"{self.s}")
        if self.s == 1 and ray == (1,):
            return self
        return GradedSemigroup(self.r, 1, VeroneseRay(self, ray),
                               empirical=self.empirical)

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

    def graded_piece(self, n):
        """Exact set of valuation parts at degree vector n."""
        n = tuple(int(x) for x in n)
        if len(n) != self.s or any(x < 0 for x in n):
            raise ValidationError(f"degree {n} must be in N^{self.s}")
        if isinstance(self.source, StaircaseSpec):
            lo, up = self.source.bounds(n)
            return frozenset((j,) for j in range(lo, up + 1))
        if isinstance(self.source, VeroneseRay):
            target = tuple(k * n[0] for k in self.source.ray)
            return self.source.parent.graded_piece(target)
        return self._piece_generated(n)

    def _piece_generated(self, n):
        memo = self._piece_memo
        if n in memo:
            return memo[n]
        limit = 8 * memory_limit_bytes() // (64 * max(self.r, 1))
        # Bottom-up over the divisibility box, cheapest degrees first.
        pending = sorted(self._reachable_degrees(n), key=sum)
        for deg in pending:
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
        # Degrees no N-combination of generators reaches have empty pieces.
        return memo.setdefault(n, frozenset())

    def _reachable_degrees(self, n):
        """Degrees <= n reachable as N-combinations of generator degrees."""
        seen = {(0,) * self.s}
        frontier = [(0,) * self.s]
        degs = [deg for _, deg in self.generators]
        while frontier:
            cur = frontier.pop()
            for d in degs:
                nxt = tuple(a + b for a, b in zip(cur, d))
                if nxt not in seen and all(a <= b for a, b in zip(nxt, n)):
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def piece_size(self, n):
        n = tuple(int(x) for x in n)
        if isinstance(self.source, StaircaseSpec):
            lo, up = self.source.bounds(n)
            return max(0, up - lo + 1)
        return len(self.graded_piece(n))

    # -- fast counting along the grading (s = 1) -----------------------------

    def counts_upto(self, n_max, subsample=1):
        """{n: #[S]_n} for n <= n_max; exact.  Singly graded only."""
        if self.s != 1:
            raise UnsupportedSemigroupError("counts_upto needs s = 1")
        if isinstance(self.source, StaircaseSpec):
            return {n: self.piece_size((n,)) for n in range(n_max + 1)}
        if isinstance(self.source, VeroneseRay):
            return self._ray_counts(n_max, subsample)
        return self._bitset_counts(n_max)

    def _bitset_counts(self, n_max):
        gens = self.generators
        vecs = [val + deg for val, deg in gens]
        lat = group_generated(vecs)
        coords = [lat.coordinates(v) for v in vecs]
        k = lat.rank
        degs = [deg[0] for _, deg in gens]
        if k == 1:
            # Numerical-semigroup reachability: one point per degree.
            reach = [False] * (n_max + 1)
            reach[0] = True
            for n in range(1, n_max + 1):
                reach[n] = any(d <= n and reach[n - d] for d in degs)
            return {n: int(reach[n]) for n in range(n_max + 1)}
        # Project out one lattice coordinate determined by the degree.
        f = [b[-1] for b in lat.basis]
        j0 = next(j for j, x in enumerate(f) if x)
        proj = [tuple(c[j] for j in range(k) if j != j0) for c in coords]
        dims = k - 1
        lo_ratio = [min(Fraction(p[t], d) for p, d in zip(proj, degs))
                    for t in range(dims)]
        hi_ratio = [max(Fraction(p[t], d) for p, d in zip(proj, degs))
                    for t in range(dims)]
        base = [_floor_frac(x) for x in lo_ratio]
        widths = [int(_floor_frac(n_max * (h - b))) + 1
                  for h, b in zip(hi_ratio, base)]
        if math.prod(widths) * min(len(degs), 4) > 8 * memory_limit_bytes():
            raise ResourceLimitError(
                "bitset counting exceeds the memory guard", degree=n_max)
        strides = [1] * dims
        for t in range(dims - 2, -1, -1):
            strides[t] = strides[t + 1] * widths[t + 1]
        shifts = [sum((p[t] - d * base[t]) * strides[t] for t in range(dims))
                  for p, d in zip(proj, degs)]
        maxd = max(degs)
        window = {0: 1}
        counts = {0: 1}
        for n in range(1, n_max + 1):
            acc = 0
            for d, sh in zip(degs, shifts):
                prev = window.get(n - d)
                if prev:
                    acc |= prev << sh
            window[n] = acc
            counts[n] = acc.bit_count()
            window.pop(n - maxd, None)
        return counts

    def _ray_counts(self, n_max, subsample):
        parent, ray = self.source.parent, self.source.ray
        if isinstance(parent.source, StaircaseSpec):
            return {n: parent.piece_size(tuple(n * x for x in ray))
                    for n in range(n_max + 1)}
        counts = {}
        for n in range(0, n_max + 1, subsample):
            counts[n] = _count_ray_piece(parent, ray, n)
        return counts

    # -- invariants and bodies -----------------------------------------------

    def proxy_generators(self, bound=8):
        """Generator list; enumerated points for rule-defined sources.

        Rule-defined sources get points of degree <= bound, doubling the
        bound until the generated group stabilizes (empirical).
        """
        if self.is_generated:
            return list(self.generators), False
        if self.s != 1:
            raise UnsupportedSemigroupError(
                "proxy generators need a singly graded source")
        prev_basis = None
        while True:
            pts = []
            for n in range(1, bound + 1):
                pts.extend((v, (n,)) for v in self.graded_piece((n,)))
            basis = group_generated([v + d for v, d in pts],
                                    self.r + 1).basis
            if basis == prev_basis or bound > 256:
                return pts, True
            prev_basis = basis
            bound *= 2

    def invariants(self, bound=8):
        """G, m, ind, strong non-negativity and L-dimension (s = 1)."""
        if self.s != 1:
            raise UnsupportedSemigroupError(
                "invariants are defined on singly graded semigroups; "
                "restrict through veronese_ray first")
        if self._inv_cache is not None:
            return self._inv_cache
        gens, empirical = self.proxy_generators(bound)
        vecs = [val + deg for val, deg in gens]
        lat = group_generated(vecs, self.r + 1)
        m = math.gcd(*(deg[0] for _, deg in gens)) if gens else 0
        forms = vanishing_forms(lat)
        deg_form = (0,) * self.r + (1,)
        boundary = integer_kernel(list(forms.basis) + [deg_form], self.r + 1)
        fcoef = [b[-1] for b in lat.basis]
        ker = integer_kernel([fcoef], lat.rank)
        inner = group_generated([lat.member(c) for c in ker.basis],
                                self.r + 1)
        ind = subgroup_index(inner, boundary)
        result = {
            "G": lat,
            "m": m,
            "ind": ind,
            "boundary_lattice": boundary,
            "strongly_nonneg": cone_is_pointed(vecs),
            "L_dim": lat.rank,
            "empirical": empirical,
        }
        self._inv_cache = result
        return result

    def okounkov_body(self, bound=8):
        """Slice of the generated cone at degree m(S); a Polytope."""
        inv = self.invariants(bound)
        if not inv["strongly_nonneg"]:
            raise UnsupportedSemigroupError(
                "Newton-Okounkov body needs a strongly non-negative "
                "semigroup")
        gens, _ = self.proxy_generators(bound)
        m = inv["m"]
        pts = [tuple(Fraction(m * x, deg[0]) for x in val) + (Fraction(m),)
               for val, deg in gens]
        return convex_hull(pts)

    def kk_limit_check(self, n_max=500, bound=8):
        """Empirical vs predicted growth of #[S]_{nm} (s = 1)."""
        inv = self.invariants(bound)
        body = self.okounkov_body(bound)
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


def _count_ray_piece(parent, ray, n):
    """#[parent]_{n * ray} for a generator-presented parent; exact."""
    target = tuple(n * x for x in ray)
    gens = parent.generators
    g = len(gens)
    vals = [np.array(v, dtype=object) for v, _ in gens]
    degs = [d for _, d in gens]
    seen = set()

    def rec(i, residual, acc):
        if i == g - 1:
            d = degs[i]
            ks = {residual[j] // d[j] for j in range(len(d)) if d[j]}
            if len(ks) != 1:
                return
            k = ks.pop()
            if k < 0 or any(residual[j] != k * d[j] for j in range(len(d))):
                return
            seen.add(tuple(acc + k * vals[i]))
            return
        d = degs[i]
        cap = min(residual[j] // d[j] for j in range(len(d)) if d[j])
        for k in range(cap + 1):
            rec(i + 1, tuple(r - k * dj for r, dj in zip(residual, d)),
                acc + k * vals[i])

    if g == 0:
        return 1 if not any(target) else 0
    rec(0, target, np.zeros(parent.r, dtype=object))
    return len(seen)

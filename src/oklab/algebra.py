"""Multigraded monomial algebras A inside k[x_1..x_r][t_1..t_s].

Everything is driven by the underlying graded semigroup of exponent
vectors: dimensions of graded pieces are exact lattice-point counts,
volume functions are evaluated both geometrically (cone fibers of the
global Newton-Okounkov cone, in the lattice of the degree-0 group) and
by asymptotic counting.  Mixed multiplicities are forward differences
of the volume function behind an exact decomposability test.  The
Hilbert polynomial of a standard algebra is interpolated exactly
(`_stable_fit`), solve-free: Newton forward differences on a shifted
principal lattice, checked in exact integer arithmetic.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .errors import (InternalConsistencyError, RegularityNotReachedError,
                     UnsupportedSemigroupError, ValidationError)
from .lattice import (group_generated, integer_kernel, rational_rank,
                      saturation, subgroup_index)
from .polytope import (MultidegreePolynomial, compositions,
                       cone_fiber, dd_extreme_rays, integral_volume,
                       make_cone)
from .semigroup import GradedSemigroup, StaircaseSpec, tail_fit


@dataclass(frozen=True)
class FiberVolume:
    """Value of the volume function at one point.

    ``method`` is "fiber" for exact rational evaluations and "estimate"
    when the global cone is not polyhedral and only a counting estimate
    is available.
    """

    value: object  # Fraction or float
    method: str

    @property
    def exact(self):
        return self.method == "fiber"


@dataclass(frozen=True)
class MixedMultiplicityReport:
    d: tuple
    value: object                  # Fraction (exact) or float
    provenance: str  # "exact" | "estimate" | "ladder" | "extrapolated"
    ladder: tuple = ()             # a family's (p, Fraction) rungs
    positive: bool = False


class MonomialAlgebra:
    """A monomial subalgebra presented by its exponent semigroup."""

    def __init__(self, semigroup):
        self.semigroup = semigroup

    @classmethod
    def from_generators(cls, r, s, gens):
        return cls(GradedSemigroup.from_generators(r, s, gens))

    @classmethod
    def from_staircase(cls, spec):
        return cls(GradedSemigroup.from_staircase(spec))

    @property
    def r(self):
        return self.semigroup.r

    @property
    def s(self):
        return self.semigroup.s

    @property
    def is_generated(self):
        return self.semigroup.is_generated

    def axis_nonvanishing(self):
        """Whether [A]_{e_i} is nonzero, per axis."""
        out = []
        for i in range(self.s):
            e = tuple(int(i == j) for j in range(self.s))
            out.append(bool(self.semigroup.graded_piece(e)))
        return out

    # -- Hilbert function ----------------------------------------------------

    def hilbert_function(self, n):
        return self.semigroup.piece_size(tuple(n))

    def veronese(self, n):
        """Singly graded Veronese subalgebra along the ray n."""
        return MonomialAlgebra(self.semigroup.veronese_ray(n))

    # -- global cone and volume function -------------------------------------

    def global_no_cone(self, bound=8):
        """(cone, exact) for the global Newton-Okounkov cone Delta(A).

        Rays carry the valuation block first and the degree block last.
        Exact sources (`_exact`) get it; others an inner approximation
        from the points of degree <= bound (exact = False).
        """
        if self._exact:
            return self._exact_cone, True
        pts = set()
        for t in range(1, bound + 1):
            for n in compositions(t, self.s):
                pts.update(v + n for v in self.semigroup.graded_piece(n))
        rays = [p for p in pts if any(p)]
        return make_cone(rays, self.r + self.s), False

    @functools.cached_property
    def _exact(self):
        """Whether Delta(A) is known exactly, the one classifier every route
        reads: generators span it, and piecewise-linear rules in normal form
        cut it out; a quadratic staircase and a Veronese ray have none."""
        src = self.semigroup.source
        return self.is_generated or isinstance(src, StaircaseSpec) and \
            src.lower.kind in ("linear", "max") and \
            src.upper.kind in ("linear", "min")

    @functools.cached_property
    def _exact_cone(self):
        """Delta(A) with its H-representation, built once per algebra."""
        src = self.semigroup.source
        if self.is_generated:
            rays = [val + deg for val, deg in self.semigroup.generators]
            return make_cone(rays, self.r + self.s)
        ineqs = []
        dim = 1 + src.s
        for f in src.lower.forms:
            ineqs.append((Fraction(1),) + tuple(-Fraction(c) for c in f))
        for f in src.upper.forms:
            ineqs.append((Fraction(-1),) + tuple(Fraction(c) for c in f))
        for i in range(src.s):
            ineqs.append(tuple(Fraction(int(j == i + 1))
                               for j in range(dim)))
        lines, rays = dd_extreme_rays(ineqs, dim)
        if lines:
            raise UnsupportedSemigroupError("staircase cone is not pointed")
        return make_cone(rays, dim)

    def krull_dim(self):
        return self._krull_dim

    @functools.cached_property
    def _krull_dim(self):
        if not self._exact:
            return self.dim_subalgebra(range(1, self.s + 1))
        return self._group.rank

    @functools.cached_property
    def _group(self):
        return group_generated(self._generator_vectors(), self.r + self.s)

    def dim_subalgebra(self, axes):
        """dim of A_(J), degrees supported on the axes J: the rank of the
        exact cone's generators (or rays) on J, else the rational rank of
        `piece_span` at 1 <= |n| <= 8 on J, read until it is r + |J|."""
        axes = frozenset(axes)
        if not axes <= set(range(1, self.s + 1)):
            raise ValidationError(f"axes {sorted(axes)} must be within "
                                  f"1..{self.s}")
        if self._exact:
            vecs = [v for v in self._generator_vectors()
                    if all(v[self.r + i] == 0
                           for i in range(self.s) if i + 1 not in axes)]
            return group_generated(vecs, self.r + self.s).rank
        basis = []
        for v in (p + n for t in range(1, 9)
                  for n in compositions(t, self.s)
                  if all(x == 0 or i + 1 in axes for i, x in enumerate(n))
                  for p in self.semigroup.piece_span(n)):
            if rational_rank(basis + [v]) > len(basis):
                basis.append(v)
                if len(basis) == self.r + len(axes):
                    break
        return len(basis)

    def _generator_vectors(self):
        """Vectors spanning the group of A, or of an A_(J) by support."""
        if self.is_generated:
            return [val + deg for val, deg in self.semigroup.generators]
        return list(self._exact_cone.rays)

    def volume_fn_fiber(self, x):
        """F_A(x) = Vol_q(Delta(A)_x) / ind(A) for x in the orthant; exact
        with an exact cone (`_exact`), else a counting estimate."""
        x = [Fraction(v) for v in x]
        if len(x) != self.s:
            raise ValidationError(f"point {x} must have length {self.s}")
        if min(x) < 0:
            raise ValidationError(f"point ({', '.join(map(str, x))}) has a "
                                  "negative coordinate, outside the orthant")
        if not all(self.axis_nonvanishing()):
            raise UnsupportedSemigroupError(
                "volume function needs nonzero pieces on every axis")
        lam = math.lcm(*(v.denominator for v in x))
        n = tuple(int(v * lam) for v in x)
        q = self.krull_dim() - self.s
        if not self._exact:
            est = self.volume_fn_count(n, n_max=200)
            return FiberVolume(est / float(lam) ** q, "estimate")
        cone, _ = self.global_no_cone()
        fiber = cone_fiber(cone, (self.r, self.s), x)
        if fiber.affine_dim < q:
            return FiberVolume(Fraction(0), "fiber")
        if any(v <= 0 for v in n):
            raise ValidationError(f"point {x} must be positive")
        lattice, ind = self._fiber_lattice
        return FiberVolume(integral_volume(fiber, lattice) / ind, "fiber")

    @functools.cached_property
    def _fiber_lattice(self):
        """(L, ind): G_0 = G meet (Z^r x 0), L its saturation, [L : G_0].
        Every axis piece is nonzero, so each positive ray meets the interior
        of the degree cone and its Veronese ray has this L and ind.  Pieces
        of a staircase (r = 1) are intervals: G_0 = L = Z^q and ind = 1."""
        q = self.krull_dim() - self.s
        if not self.is_generated:
            return group_generated([(1,)] * q, 1), 1
        g = self._group
        ker = integer_kernel(list(zip(*g.basis))[self.r:], g.rank)
        g0 = group_generated([g.member(c)[:self.r] for c in ker.basis],
                             self.r)
        lattice = saturation(g0)
        return lattice, subgroup_index(g0, lattice)

    def volume_fn_count(self, n, n_max=500):
        """Tail-fit estimate of lim dim[A]_{kn} / k^q."""
        n = tuple(int(v) for v in n)
        if any(v <= 0 for v in n):
            raise ValidationError(f"ray {n} must be positive")
        q = self.krull_dim() - self.s
        ray = self.semigroup.veronese_ray(n)
        counts = ray.counts_upto(n_max)
        ks = range(max(1, n_max // 2), n_max + 1)
        return tail_fit(ks, [counts[k] for k in ks], q)

    # -- decomposability, truncations ----------------------------------------

    def is_decomposable(self):
        """(flag, witness): is each piece the sum of its axis pieces?

        Exact; true for s = 1.  Generated: each generator must lie in the
        sum of the axis pieces at its degree; the witness is the first that
        does not.  A staircase (s >= 2) needs nonzero unit pieces (else
        UnsupportedSemigroupError), and is then decomposable iff both rules
        are `_additive`.  Proof: by closure axis pieces are nonempty
        intervals, so [lo(n), up(n)] contains their sum [sum lo, sum up],
        equal iff lo and up add up at n.  Rounding g . n with one
        non-integer g_k does.  Non-integer g_i = p/q and g_k = p'/q' take
        fractional parts (q-1)/q at some a e_i, a < q, and (q'-1)/q' at
        some b e_k, b < q', so they round apart at a e_i + b e_k (two
        irrational ones by density).  As lo(m n)/m -> L(n), an additive
        rule is linear, g . x, on the orthant: a `max` or `min` then has g
        among its forms (at x > 0), dominating the rest, and sqrt(Q) has
        Q + Q^T = 2 g g^T with g integer (`linear` in normal form) or every
        g_i != 0 irrational.  The witness is then the lexicographically
        first failing n <= max(8, the rules' common denominator), which two
        non-integer rational g_i give; else the rule as written.
        """
        if self.s == 1:
            return True, None
        if self.is_generated:
            witness = next((deg for val, deg in self.semigroup.generators
                            if not self._in_axis_sum(val, deg)), None)
            return witness is None, witness
        if not all(self.axis_nonvanishing()):
            raise UnsupportedSemigroupError(
                "decomposability needs nonzero pieces on every axis")
        src = self.semigroup.source
        doubts = [f"the {side} rule as written: {written} is not additive"
                  for side, written in zip(("lower", "upper"), src.written)
                  if not _additive(getattr(src, side))]
        if not doubts:
            return True, None
        top = max(8, math.lcm(*(c.denominator for rule in (src.lower,
                                src.upper) for f in rule.forms for c in f)))
        axis = [[src.bounds(tuple(k * int(i == j) for j in range(self.s)))
                 for k in range(top + 1)] for i in range(self.s)]
        bad = (n for n in product(range(top + 1), repeat=self.s)
               if src.bounds(n) != tuple(map(sum, zip(
                   *(axis[i][k] for i, k in enumerate(n))))))
        return False, next(bad, doubts[0])

    def _in_axis_sum(self, val, n):
        """Whether val is in the sum of the axis pieces at n_i e_i, meeting
        the last axis by difference: that sum is never built."""
        head = {(0,) * self.r}
        for i, ni in enumerate(n[:-1]):
            e = tuple(ni * int(i == j) for j in range(self.s))
            head = {tuple(map(operator.add, p, v))
                    for p in head for v in self.semigroup.graded_piece(e)}
        last = self.semigroup.graded_piece((0,) * (self.s - 1) + n[-1:])
        return any(tuple(map(operator.sub, val, p)) in head for p in last)

    def truncation(self, a):
        """Subalgebra generated by the axis pieces up to degree a."""
        gens = []
        for i in range(self.s):
            for j in range(1, a + 1):
                e = tuple(j * int(i == j2) for j2 in range(self.s))
                gens.extend((v, e) for v in self.semigroup.graded_piece(e))
        if not gens:
            raise ValidationError(f"no axis pieces up to degree {a}")
        return MonomialAlgebra.from_generators(self.r, self.s, gens)

    def p_subalgebra(self, p):
        """Standard multigraded algebra from the degree p*e_i pieces.

        The piece at p*e_i is regraded to sit in degree e_i.
        """
        gens = []
        for i in range(self.s):
            e = tuple(p * int(i == j) for j in range(self.s))
            piece = self.semigroup.graded_piece(e)
            if not piece:
                raise ValidationError(
                    f"piece at degree {p}*e_{i + 1} is empty")
            unit = tuple(int(i == j) for j in range(self.s))
            gens.extend((v, unit) for v in sorted(piece))
        return MonomialAlgebra.from_generators(self.r, self.s, gens)

    # -- Hilbert polynomial and mixed multiplicities -------------------------

    def is_standard(self):
        if not self.is_generated:
            return False
        units = {tuple(int(i == j) for j in range(self.s))
                 for i in range(self.s)}
        return all(deg in units for _, deg in self.semigroup.generators)

    def hilbert_polynomial(self):
        """Exact multigraded Hilbert polynomial, with mixed multiplicities.

        Returns (polynomial, mixed) where mixed maps each type d with
        |d| = q to the integer e(d) = d! * [coefficient of n^d].
        """
        if not self.is_standard():
            raise ValidationError(
                "Hilbert polynomial needs a standard multigraded algebra")
        q = self.krull_dim() - self.s
        if q < 0:
            raise ValidationError("dim(A) < s; no Hilbert polynomial")
        poly = _stable_fit(self.hilbert_function, self.s, q)
        mixed = {}
        for d in compositions(q, self.s):
            c = poly.coeffs.get(d, Fraction(0))
            mixed[d] = c * math.prod(math.factorial(x) for x in d)
        return poly, mixed

    def mixed_multiplicities(self, d):
        """e(d; A) by the paper's theorem: a decomposable grading makes F_A
        a polynomial, homogeneous of degree q = |d|, so its d-th forward
        difference at (1, ..., 1), sum over 0 <= c <= d of (-1)^(q - |c|)
        prod_i C(d_i, c_i) F_A(1 + c), is d! [x^d] F_A: "exact" when each
        F_A value is, else "estimate".  The paper proves e(d) > 0 iff
        `positivity` (d); an exact value that disagrees raises
        InternalConsistencyError."""
        d = tuple(int(x) for x in d)
        q = self.krull_dim() - self.s
        if len(d) != self.s or min(d) < 0 or sum(d) != q:
            raise ValidationError(f"type {d} must be in N^{self.s} with "
                                  f"total degree q={q}")
        ok, witness = self.is_decomposable()
        if not ok:
            raise ValidationError("grading is not decomposable; " + (
                witness if isinstance(witness, str)
                else f"first failure at {witness}"))
        value, exact = Fraction(0), True
        for c in product(*(range(k + 1) for k in d)):
            fv = self.volume_fn_fiber([1 + k for k in c])
            value += (-1) ** (q - sum(c)) * math.prod(map(math.comb, d, c)) \
                * fv.value
            exact = exact and fv.exact
        flag = self.positivity(d)[0]
        if exact and flag != (value > 0):
            raise InternalConsistencyError(
                f"type {d}: exact value {value} > 0 is {value > 0}, but the "
                f"positivity criterion says {flag}")
        return MixedMultiplicityReport(
            d=d, value=value, provenance="exact" if exact else "estimate",
            positive=flag)

    def positivity(self, d):
        """(flag, certificate) for e(d; A) > 0 via subset dimensions.

        Positive iff for every nonempty subset J of the axes,
        sum_{j in J} d_j <= dim(A_(J)) - |J| (`subset_positivity`).  The
        certificate is the first violated subset, or None.
        """
        d = tuple(int(x) for x in d)
        if len(d) != self.s:
            raise ValidationError(f"type {d} must have length {self.s}")
        return subset_positivity(
            d, lambda sub: self.dim_subalgebra(sub) - len(sub))


def subset_positivity(d, rank):
    """(flag, certificate): sum_{j in J} d_j <= rank(J) for every J?

    The paper's one positivity criterion.  J runs over the nonempty
    subsets of the axes 1..len(d) by size, then in ``combinations``
    order; the certificate is the first J that fails, or None, and
    ``rank`` is called on no J after it.
    """
    axes = range(1, len(d) + 1)
    for size in axes:
        for sub in combinations(axes, size):
            if sum(d[j - 1] for j in sub) > rank(sub):
                return False, sub
    return True, None


def _additive(rule):
    """Whether a normal-form rule rounds g . n with at most one g_k not an
    integer: `linear`, or sqrt(Q) = sqrt(Q_kk) n_k (one entry in Q + Q^T)."""
    q = rule.quadratic
    if q:
        return sum(x + y != 0 for row, col in zip(q, zip(*q))
                   for x, y in zip(row, col)) == 1
    return rule.kind == "linear" and \
        sum(c.denominator > 1 for c in rule.forms[0]) <= 1


def _stable_fit(fn, s, q, n0=None, cap=512):
    """Interpolate fn on a shifted principal lattice until stable.

    Fits the full polynomial of total degree <= q in s variables on the
    grid N0*(1,..,1) + {m : |m| <= q}, verifies it on the two next
    shells, then doubles N0; two consecutive agreeing verified fits are
    accepted.  Raises RegularityNotReachedError past the cap.  fn takes
    integer points and is called once per point; the coefficients are
    Fractions.  A round is solve-free, in Newton's form
    f(N0 + m) = sum_e D^e f(N0) prod_i C(m_i, e_i): the forward
    differences are exact, both checks evaluate that form against
    binomial tables, and only returned or reported fits get monomial
    coefficients.
    """
    exps = tuple(m for t in range(q + 1) for m in compositions(t, s))
    shells = tuple(m for t in (q + 1, q + 2) for m in compositions(t, s))
    n0 = n0 if n0 is not None else q + 1
    value = functools.cache(fn)
    plan = _difference_plan(exps)
    held_out = _binomial_rows(shells, exps, q, 0)
    prev = None  # (N0, differences) of a verified round
    fits = []
    while n0 <= cap:
        values = [value(tuple(n0 + x for x in m)) for m in exps]
        diffs = values.copy()
        for a, b in plan:
            diffs[a] -= diffs[b]
        ok = all(_dot(diffs, row) == value(tuple(n0 + x for x in m))
                 for m, row in zip(shells, held_out))
        fits.append((n0, diffs))
        if ok and prev is not None and all(
                _dot(prev[1], row) == v for v, row in zip(
                    values, _binomial_rows(exps, exps, q, n0 - prev[0]))):
            return MultidegreePolynomial(
                num_vars=s, degree=q, coeffs=_monomial_coeffs(
                    diffs, exps, n0, q))
        prev = (n0, diffs) if ok else None
        n0 *= 2
    raise RegularityNotReachedError(
        f"Hilbert fit did not stabilize up to N0={cap}",
        last_fits=[(base, _monomial_coeffs(diffs, exps, base, q))
                   for base, diffs in fits[-2:]])


def _difference_plan(exps):
    """Pairs (a, b) such that values[a] -= values[b], in order, turns
    [f(m) for m in exps] into [D^e f(0) for e in exps]: per axis i and
    order j, f(m) - f(m - e_i) for each m_i >= j, highest m_i first."""
    pos = {m: k for k, m in enumerate(exps)}
    q = max(map(sum, exps))
    plan = []
    for i in range(len(exps[0])):
        line = sorted(exps, key=lambda m: -m[i])
        for j in range(1, q + 1):
            plan.extend((pos[m], pos[m[:i] + (m[i] - 1,) + m[i + 1:]])
                        for m in line if m[i] >= j)
    return plan


@functools.lru_cache(maxsize=64)
def _binomial_rows(points, exps, q, shift):
    """((prod_i C(shift + m_i, e_i) for e in exps) for m in points), on
    tuples: fits of one shape share their tables."""
    top = max(max(m) for m in points)
    table = [[math.comb(shift + t, e) for e in range(q + 1)]
             for t in range(top + 1)]
    return tuple(tuple(math.prod(table[x][k] for x, k in zip(m, e))
                       for e in exps) for m in points)


def _dot(xs, ys):
    return sum(map(operator.mul, xs, ys))


def _monomial_coeffs(diffs, exps, n0, q):
    """Monomial coefficients of the Newton form based at N0*(1,..,1),
    as integers over q!: e! C(x - N0, e) = prod_{j<e} (x - N0 - j), and
    prod_i e_i! divides q! when |e| <= q."""
    falling = [[1]]
    for j in range(q):
        prev = falling[-1]
        falling.append([a - (n0 + j) * b
                        for a, b in zip([0] + prev, prev + [0])])
    total = dict.fromkeys(exps, 0)
    qfact = math.factorial(q)
    for d, e in zip(diffs, exps):
        if not d:
            continue
        w = d * (qfact // math.prod(map(math.factorial, e)))
        for k in product(*(range(x + 1) for x in e)):
            total[k] += w * math.prod(falling[x][y] for x, y in zip(e, k))
    return {k: Fraction(c, qfact) for k, c in total.items() if c}

"""Reference Fraction evaluation of staircase rules, for the staircase tests.

These are ``BoundRule.value``, the bounded closure scan that once
admitted staircases, and the cone-ray Krull dimension as they were
before the rules were compiled to integers: every bound is a sum of
``Fraction`` products rounded on its own, the closure scan evaluates the
bounds pair by pair, and the rank comes from the rays of the cone over
every enumerated piece point.  They stay here as independent oracles
only; the library certifies closure from the rules
(``semigroup.closure_doubt``).
"""

import math
from fractions import Fraction

from oklab.errors import ValidationError
from oklab.lattice import group_generated
from oklab.polytope import compositions, make_cone


def _ceil_frac(x):
    return -((-x.numerator) // x.denominator) if isinstance(x, Fraction) \
        else -((-x) // 1)


def _floor_frac(x):
    return x.numerator // x.denominator if isinstance(x, Fraction) else x // 1


def _form_at(coeffs, n):
    return sum(Fraction(c) * k for c, k in zip(coeffs, n))


def _quadratic_at(rows, n):
    return sum(rows[i][j] * n[i] * n[j]
               for i in range(len(rows)) for j in range(len(rows)))


def value(rule, n, side):
    """Integer bound of ``rule`` at degree n; side 'lower' or 'upper'."""
    rnd = _ceil_frac if side == "lower" else _floor_frac
    if rule.kind == "linear":
        return rnd(_form_at(rule.forms[0], n))
    if rule.kind == "max":
        return max(rnd(_form_at(f, n)) for f in rule.forms)
    if rule.kind == "min":
        return min(rnd(_form_at(f, n)) for f in rule.forms)
    if rule.kind == "ceil_sqrt_quadratic":
        q = _quadratic_at(rule.quadratic, n)
        if q < 0:
            raise ValidationError("quadratic form is negative at "
                                  f"{n}; not positive semidefinite")
        return math.isqrt(q - 1) + 1 if q > 0 else 0
    raise ValidationError(f"unknown bound rule kind {rule.kind!r}")


def bounds(spec, n):
    return value(spec.lower, n, "lower"), value(spec.upper, n, "upper")


def check_closure(spec, bound):
    """Sub/superadditivity of the bounds over the test box."""
    degrees = [d for t in range(1, bound + 1)
               for d in compositions(t, spec.s)]
    vals = {}
    for n in degrees + [(0,) * spec.s]:
        vals[n] = bounds(spec, n)
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
            if tot not in vals:
                vals[tot] = bounds(spec, tot)
            lt, ut = vals[tot]
            if lt > lm + ln or ut < um + un:
                raise ValidationError(
                    f"staircase not closed under addition at {m} + {n}")


def cone_rays(spec, bound=8):
    """Rays of the cone over every piece point of degree 1..bound."""
    pts = set()
    for t in range(1, bound + 1):
        for n in compositions(t, spec.s):
            lo, up = bounds(spec, n)
            pts.update((j,) + n for j in range(lo, up + 1))
    return list(make_cone([p for p in pts if any(p)], 1 + spec.s).rays)


def dim_subalgebra(spec, axes, bound=8):
    """dim of A_(J) from the cone rays with degree support in J."""
    rays = [v for v in cone_rays(spec, bound)
            if all(v[1 + i] == 0
                   for i in range(spec.s) if i + 1 not in axes)]
    return group_generated(rays, 1 + spec.s).rank

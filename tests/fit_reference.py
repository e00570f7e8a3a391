"""Vandermonde reference for the Hilbert-polynomial fit.

This is ``oklab.algebra._stable_fit`` as it was before it took Newton
differences: each round solves the Fraction Vandermonde system of the
grid N0*(1,..,1) + {m : |m| <= q} by elimination and checks the two next
shells against the monomial form.  It stays here as an oracle only.
"""

import functools
import math

from oklab.errors import RegularityNotReachedError
from oklab.polytope import MultidegreePolynomial, _solve_square, compositions


def stable_fit(fn, s, q, n0=None, cap=512):
    exps = [m for t in range(q + 1) for m in compositions(t, s)]
    n0 = n0 if n0 is not None else q + 1
    value = functools.cache(fn)
    prev = None
    fits = []
    while n0 <= cap:
        grid = [tuple(n0 + m[i] for i in range(s)) for m in exps]
        rows = [[_monomial(p, e) for e in exps] for p in grid]
        coeffs = _solve_square(rows, [value(p) for p in grid])
        coeffs = {e: c for e, c in zip(exps, coeffs) if c}
        held_out = [tuple(n0 + m[i] for i in range(s))
                    for t in (q + 1, q + 2) for m in compositions(t, s)]
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        scaled = [(e, c.numerator * (den // c.denominator))
                  for e, c in coeffs.items()]
        ok = all(sum(c * _monomial(p, e) for e, c in scaled)
                 == den * value(p) for p in held_out)
        fits.append((n0, coeffs))
        if ok and prev is not None and prev == coeffs:
            return MultidegreePolynomial(num_vars=s, degree=q, coeffs=coeffs)
        prev = coeffs if ok else None
        n0 *= 2
    raise RegularityNotReachedError(
        f"Hilbert fit did not stabilize up to N0={cap}", last_fits=fits[-2:])


def _monomial(point, exp):
    return math.prod(p ** e for p, e in zip(point, exp))

"""Per-point reference for the ideal mixed-multiplicity fit.

This is ``oklab.ideals.fixed_ideal_mixed_multiplicities`` as it was
before it kept one colength table per J-part: every point of the fit is
counted on its own grid by ``_bhattacharya_value``.  It stays here as an
oracle only.
"""

import math

from oklab.algebra import _stable_fit
from oklab.ideals import PowersFamily, _bhattacharya_value


def fixed_ideal_mixed_multiplicities(ideal_i, ideals_j):
    d = ideal_i.num_vars
    s = len(ideals_j)
    ifam = PowersFamily(ideal_i)
    jfams = [PowersFamily(j) for j in ideals_j]
    poly = _stable_fit(lambda pt: _bhattacharya_value(ifam, jfams, pt),
                       s + 1, d, n0=2, cap=64)
    out = {}
    for exp, coeff in poly.coeffs.items():
        if sum(exp) != d or exp[0] == 0:
            continue
        norm = math.factorial(exp[0]) * math.prod(
            math.factorial(e) for e in exp[1:])
        out[(exp[0] - 1,) + exp[1:]] = coeff * norm
    return out

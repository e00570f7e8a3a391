"""The bounded decomposability scan, for the decomposability tests.

``MonomialAlgebra.is_decomposable`` decides from generators or from the
staircase rules; this scan compares pieces with the sums of their axis
pieces, point set against point set, and stays here as the oracle.
"""

import functools
import itertools
import operator


def splits_at(a, n):
    """Whether piece(n) is the sum of the axis pieces at n_i e_i."""
    sg = a.semigroup
    axes = [sg.graded_piece(tuple(k * (i == j) for j in range(a.s)))
            for i, k in enumerate(n)]
    sums = functools.reduce(
        lambda acc, piece: {tuple(map(operator.add, p, v))
                            for p in acc for v in piece},
        axes, {(0,) * a.r})
    return sg.graded_piece(tuple(n)) == sums


def decomposable_upto(a, bound):
    """The bounded scan: does every degree n <= bound split?"""
    return all(splits_at(a, n)
               for n in itertools.product(range(bound + 1), repeat=a.s))

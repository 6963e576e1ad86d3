"""Exact scalar arithmetic: big rationals, Bernoulli numbers, combinatorial constants.

Every coefficient in this package is a ``fractions.Fraction`` (arbitrary
precision, always in lowest terms with positive denominator).  No floating
point is used anywhere.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

__all__ = [
    "bernoulli",
    "odd_double_factorial",
    "binomial",
]


@functools.cache
def bernoulli(m: int) -> Fraction:
    """B_m with the x/(e^x - 1) convention (B_1 = -1/2, B_odd = 0 for m >= 3).

    Computed from the recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 and memoized;
    the sum visits j in increasing order, so each B_j it needs is already cached.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m + 1, j) * bernoulli(j)
    return -acc / (m + 1)


def odd_double_factorial(k: int) -> int:
    """(2k-1)!! = 1*3*5*...*(2k-1), with (-1)!! = 1 for k = 0."""
    if k < 0:
        raise ValueError("odd_double_factorial expects k >= 0")
    out = 1
    for j in range(1, 2 * k, 2):
        out *= j
    return out


def binomial(n: int, k: int) -> int:
    """C(n, k), zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial expects n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)

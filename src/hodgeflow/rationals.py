"""Exact scalar arithmetic: big rationals, Bernoulli numbers, combinatorial constants.

Every coefficient in this package is a ``fractions.Fraction`` (arbitrary
precision, always in lowest terms with positive denominator).  No floating
point is used anywhere.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

__all__ = [
    "bernoulli",
    "odd_double_factorial",
    "binomial",
]

_BERNOULLI_CACHE: list[Fraction] = [Fraction(1)]
_BERNOULLI_LOCK = threading.Lock()


def bernoulli(m: int) -> Fraction:
    """B_m with the x/(e^x - 1) convention (B_1 = -1/2, B_odd = 0 for m >= 3).

    Computed from the recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 and memoized.
    """
    if m < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if m < len(_BERNOULLI_CACHE):
        return _BERNOULLI_CACHE[m]
    with _BERNOULLI_LOCK:
        while len(_BERNOULLI_CACHE) <= m:
            n = len(_BERNOULLI_CACHE)
            acc = Fraction(0)
            for j in range(n):
                acc += math.comb(n + 1, j) * _BERNOULLI_CACHE[j]
            _BERNOULLI_CACHE.append(-acc / (n + 1))
    return _BERNOULLI_CACHE[m]


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

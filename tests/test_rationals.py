"""Exact scalar layer: Bernoulli numbers against an independent oracle."""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hodgeflow.rationals import bernoulli, binomial, odd_double_factorial


def bernoulli_by_long_division(count: int) -> list[Fraction]:
    """Coefficients of x/(e^x - 1) by solving (e^x - 1)/x * sum B_m x^m/m! = 1."""
    out: list[Fraction] = []
    for m in range(count + 1):
        acc = Fraction(1 if m == 0 else 0)
        for j in range(m):
            acc -= out[j] / factorial(j) * Fraction(1, factorial(m - j + 1))
        out.append(acc * factorial(m))
    return out


def test_bernoulli_matches_long_division_oracle():
    oracle = bernoulli_by_long_division(14)
    for m, want in enumerate(oracle):
        assert bernoulli(m) == want


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)


def test_bernoulli_defining_recurrence():
    for m in range(1, 41):
        assert sum(comb(m + 1, j) * bernoulli(j) for j in range(m + 1)) == 0


def test_bernoulli_odd_vanish():
    for l in range(1, 21):
        assert bernoulli(2 * l + 1) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_odd_double_factorial():
    assert odd_double_factorial(0) == 1
    assert odd_double_factorial(1) == 1
    assert odd_double_factorial(2) == 3
    assert odd_double_factorial(3) == 15


@given(st.integers(min_value=1, max_value=40))
def test_odd_double_factorial_recurrence(k):
    assert odd_double_factorial(k) == (2 * k - 1) * odd_double_factorial(k - 1)


def test_binomial():
    assert binomial(4, 2) == 6
    assert binomial(5, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0


@given(
    st.fractions(min_value=-100, max_value=100).filter(lambda x: x != 0),
)
def test_fraction_round_trip(x):
    assert x * (1 / x) == 1

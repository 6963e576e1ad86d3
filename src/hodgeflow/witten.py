"""Independent point-case oracle: psi-class intersection numbers and their tau series.

Values come from the standard recursion on the largest insertion (the n-point
loop equation), normalized by <tau_0^3>_0 = 1.  The genus-one constant
<tau_1>_1 = 1/24 enters through the recursion's dilaton-sector central term;
that it is forced by the base normalization is checked in the test suite by
eliminating it between the recursion and the string equation.

The exponential is built by t-degree, with an explicit hbar offset so the
series ring never needs negative exponents: the returned series equals
hbar^offset * exp(sum_g hbar^{g-1} F_g) inside the window.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Iterator

from .rationals import odd_double_factorial
from .series import (
    Monomial,
    PARAM_HBAR,
    Series,
    Truncation,
    _accumulate,
    _merge_exps,
    t_var,
)

__all__ = [
    "intersection",
    "correlator_dimension_ok",
    "genus_potential",
    "z_point",
    "default_hbar_offset",
]

_MEMO: dict[tuple[int, tuple[int, ...]], Fraction] = {}


@cache
def _dfac(k: int) -> int:
    # (2k+1)!!
    return odd_double_factorial(k + 1)


def correlator_dimension_ok(g: int, ks: tuple[int, ...]) -> bool:
    return sum(ks) == 3 * g - 3 + len(ks)


def _sub_multisets(items: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """(subset, complement, multiplicity) over sub-multisets of a sorted tuple."""
    distinct: list[tuple[int, int]] = []
    for v in items:
        if distinct and distinct[-1][0] == v:
            distinct[-1] = (v, distinct[-1][1] + 1)
        else:
            distinct.append((v, 1))

    def rec(idx: int, chosen: list[int], left: list[int], ways: int) -> Iterator:
        if idx == len(distinct):
            yield tuple(chosen), tuple(left), ways
            return
        v, m = distinct[idx]
        for take in range(m + 1):
            yield from rec(
                idx + 1,
                chosen + [v] * take,
                left + [v] * (m - take),
                ways * math.comb(m, take),
            )

    yield from rec(0, [], [], 1)


def _insert(ks: tuple[int, ...], v: int) -> tuple[int, ...]:
    """The sorted tuple ks with v added."""
    i = bisect_right(ks, v)
    return ks[:i] + (v,) + ks[i:]


def intersection(g: int, ks: tuple[int, ...] | list[int]) -> Fraction:
    """<tau_{k_1} ... tau_{k_n}>_g for the point target; 0 off the dimension shell."""
    key = (g, tuple(sorted(ks)))
    got = _MEMO.get(key)
    if got is not None:
        return got
    ks = key[1]
    if g < 0 or (ks and ks[0] < 0):
        raise ValueError("invalid correlator key")
    if 2 * g - 2 + len(ks) <= 0 or not correlator_dimension_ok(g, ks):
        return Fraction(0)
    if g == 0 and ks == (0, 0, 0):
        return Fraction(1)
    k = ks[-1]
    rest = ks[:-1]
    if k == 0:
        # only the base case passes the dimension shell with all-zero insertions
        return Fraction(0)
    # each term as (numerator, denominator) of twice its value, summed once
    # over the lcm of the denominators
    parts: list[tuple[int, int]] = []
    # transfer onto each distinct remaining insertion, times its multiplicity;
    # the weight (2d+2k-1)!!/(2d-1)!! is an integer
    for d, mult in Counter(rest).items():
        j = rest.index(d)
        v = intersection(g, _insert(rest[:j] + rest[j + 1 :], d + k - 1))
        w = 2 * mult * (_dfac(d + k - 1) // _dfac(d - 1))
        parts.append((w * v.numerator, v.denominator))
    # boundary terms, each weighted (2a+1)!!(2b+1)!!/2: one handle less, or a
    # stable split
    if g >= 1:
        for a in range(0, k - 1):
            b = k - 2 - a
            v = intersection(g - 1, _insert(_insert(rest, a), b))
            parts.append((_dfac(a) * _dfac(b) * v.numerator, v.denominator))
    # the left factor's dimension shell fixes a = 3*g1 + shift, and then the
    # right factor is on its shell too; 0 <= a <= k-2 also keeps both factors
    # stable, so every other split contributes nothing
    for left, right, ways in _sub_multisets(rest):
        shift = len(left) - sum(left) - 2
        for g1 in range(max(0, -(shift // 3)), g + 1):
            a = 3 * g1 + shift
            if a > k - 2:
                break
            left_value = intersection(g1, _insert(left, a))
            if not left_value:
                continue
            b = k - 2 - a
            right_value = intersection(g - g1, _insert(right, b))
            parts.append((
                _dfac(a) * _dfac(b) * ways * left_value.numerator * right_value.numerator,
                left_value.denominator * right_value.denominator,
            ))
    # central constant 1/8 of the dilaton-sector equation, doubled
    if k == 1 and not rest and g == 1:
        parts.append((1, 4))
    den = math.lcm(*(d for _, d in parts))
    value = Fraction(sum(n * (den // d) for n, d in parts), 2 * _dfac(k) * den)
    _MEMO[key] = value
    return value


def _insertion_multisets(
    n: int, total: int, max_index: int, low: int = 0
) -> Iterator[tuple[int, ...]]:
    """The non-decreasing n-tuples of parts in low..max_index summing to total,
    in lexicographic order."""
    if n == 0:
        if total == 0:
            yield ()
        return
    # the other n - 1 parts lie in first..max_index
    for first in range(max(low, total - (n - 1) * max_index), min(max_index, total // n) + 1):
        for tail in _insertion_multisets(n - 1, total - first, max_index, first):
            yield (first,) + tail


def genus_potential(g: int, trunc: Truncation) -> Series:
    """F_g: sum over insertions of the correlator times the t-monomial / automorphisms."""
    terms: dict[Monomial, Fraction] = {}
    for n in range(1, trunc.max_t_degree + 1):
        want = 3 * g - 3 + n
        if want < 0:
            continue
        for ks in _insertion_multisets(n, want, trunc.max_var_index):
            value = intersection(g, ks)
            if not value:
                continue
            counts = Counter(ks)
            denom = math.prod(math.factorial(c) for c in counts.values())
            mono = Monomial.build({t_var(k): e for k, e in counts.items()})
            if trunc.admits(mono):
                terms[mono] = value / denom
    return Series(trunc, terms)


def default_hbar_offset(trunc: Truncation) -> int:
    # one inverse power of hbar per genus-0 factor; each needs t-degree >= 3
    return trunc.max_t_degree // 3


def z_point(
    trunc: Truncation, genus_max: int, offset: int | None = None
) -> Series:
    """hbar^offset * exp(sum_{g<=genus_max} hbar^{g-1} F_g), exact in the window.

    The offset (default max_t_degree // 3) makes every representable term's
    hbar exponent non-negative; anything needing a lower exponent would exceed
    the t-degree window and is provably absent.

    Z = exp(G), G = sum_g hbar^{g-1} F_g, is built by t-degree: with G_j the
    t-degree-j part of G and Y_n the stored t-degree-n part of Z,
    n Y_n = sum_{j=1..n} j G_j Y_{n-j}, so each pair of terms is multiplied
    once.  A genus-g term of G moves the stored hbar exponent by g - 1.
    """
    if offset is None:
        offset = default_hbar_offset(trunc)
    top = trunc.max_t_degree
    # j G_j as (t-exponents, hbar move, coefficient) triples, by t-degree j
    g_terms: list[list[tuple]] = [[] for _ in range(top + 1)]
    for g in range(genus_max + 1):
        for m, c in genus_potential(g, trunc).terms.items():
            j = m.grade()[0]
            g_terms[j].append((m.vars, g - 1, j * c))
    # Y_n keyed by (t-exponents, stored hbar exponent).  A later genus-0 factor
    # lowers the stored exponent by 1 at a t-degree cost >= 3 and no other
    # factor lowers it, so a term no later factor can bring back into the
    # window is dropped when it is made
    layers = [{((), offset): Fraction(1)}]
    for n in range(1, top + 1):
        reach = trunc.max_hbar_degree + (top - n) // 3
        out: dict[tuple, Fraction] = {}
        for j in range(1, n + 1):
            for (y_vars, y_e), y_c in layers[n - j].items():
                for g_vars, move, g_c in g_terms[j]:
                    e = y_e + move
                    if e <= reach:
                        _accumulate(out, (_merge_exps(y_vars, g_vars), e), y_c * g_c)
        layers.append({key: c / n for key, c in out.items()})
    terms = []
    for layer in layers:
        for (t_exps, stored), c in layer.items():
            if stored < 0:
                raise ValueError(
                    "hbar offset too small for the window: raise offset or shrink degree"
                )
            terms.append((Monomial.build(t_exps, {PARAM_HBAR: stored}), c))
    return Series(trunc, terms)

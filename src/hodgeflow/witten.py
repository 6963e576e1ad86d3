"""Independent point-case oracle: psi-class intersection numbers and their tau series.

Values come from the standard recursion on the largest insertion (the n-point
loop equation), normalized by <tau_0^3>_0 = 1.  The genus-one constant
<tau_1>_1 = 1/24 enters through the recursion's dilaton-sector central term;
that it is forced by the base normalization is checked in the test suite by
eliminating it between the recursion and the string equation.

The exponential is taken once, of sum_g hbar^g F_g, with an explicit hbar
offset so the series ring never needs negative exponents: the returned series
equals hbar^offset * exp(sum_g hbar^{g-1} F_g) inside the window.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, count
from typing import Iterator

from .rationals import odd_double_factorial
from .series import (
    Monomial,
    PARAM_HBAR,
    Series,
    Truncation,
    exp_terms,
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


def intersection(g: int, ks: tuple[int, ...] | list[int]) -> Fraction:
    """<tau_{k_1} ... tau_{k_n}>_g for the point target; 0 off the dimension shell."""
    if g < 0 or any(k < 0 for k in ks):
        raise ValueError("invalid correlator key")
    key = (g, tuple(sorted(ks)))
    ks = key[1]
    n = len(ks)
    if 2 * g - 2 + n <= 0:
        return Fraction(0)
    if not correlator_dimension_ok(g, ks):
        return Fraction(0)
    got = _MEMO.get(key)
    if got is not None:
        return got
    if g == 0 and ks == (0, 0, 0):
        return Fraction(1)
    k = ks[-1]
    rest = ks[:-1]
    if k == 0:
        # only the base case passes the dimension shell with all-zero insertions
        return Fraction(0)
    total = Fraction(0)
    # transfer onto each remaining insertion
    for j, d in enumerate(rest):
        new = rest[:j] + rest[j + 1 :] + (d + k - 1,)
        total += Fraction(_dfac(d + k - 1), _dfac(d - 1)) * intersection(g, new)
    # boundary terms: one handle less, or a stable split
    if g >= 1:
        for a in range(0, k - 1):
            b = k - 2 - a
            w = Fraction(_dfac(a) * _dfac(b), 2)
            total += w * intersection(g - 1, rest + (a, b))
    # the left factor's dimension shell fixes a, and then the right factor is
    # on its shell too; 0 <= a <= k-2 also keeps both factors stable, so every
    # other split contributes nothing
    splits = list(_sub_multisets(rest))
    for g1 in range(0, g + 1):
        for left, right, ways in splits:
            a = 3 * g1 - 2 + len(left) - sum(left)
            if not 0 <= a <= k - 2:
                continue
            left_value = intersection(g1, left + (a,))
            if not left_value:
                continue
            b = k - 2 - a
            w = Fraction(_dfac(a) * _dfac(b), 2)
            total += w * ways * left_value * intersection(g - g1, right + (b,))
    # central constant of the dilaton-sector equation
    if k == 1 and not rest and g == 1:
        total += Fraction(1, 8)
    value = total / _dfac(k)
    _MEMO[key] = value
    return value


def _insertion_multisets(
    n: int, total: int, max_index: int
) -> Iterator[tuple[int, ...]]:
    for combo in combinations_with_replacement(range(min(total, max_index) + 1), n):
        if sum(combo) == total:
            yield combo


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

    H = sum_g hbar^g F_g is exponentiated once, and its k-th power, divided by
    hbar^k, is shifted by hbar^(offset - k).  H has no constant term, so H^k
    vanishes for k > max_t_degree, and a window wider by max_t_degree in hbar
    holds every term a shift brings back into this window.
    """
    if offset is None:
        offset = default_hbar_offset(trunc)
    wide = trunc.replace(max_hbar_degree=trunc.max_hbar_degree + trunc.max_t_degree)
    h = Series.sum(
        wide,
        (
            genus_potential(g, wide).mul_monomial(Monomial.build((), {PARAM_HBAR: g}))
            for g in range(genus_max + 1)
        ),
    )
    # a term of H^k is stored at hbar^(e + offset - k); a later genus-0 factor
    # lowers that by 1 at a t-degree cost >= 3 and no other factor lowers it, so
    # a term no later factor can bring back into the window is dropped early
    ks = count(1)

    def step(power: Series) -> Series:
        k = next(ks)
        kept = {}
        for m, c in h.mul(power).terms.items():
            d, _, e, _ = m.grade()
            if e + offset - k - (trunc.max_t_degree - d) // 3 <= trunc.max_hbar_degree:
                kept[m] = c
        return Series(wide, kept, _clean=True)

    error = ValueError("exp of the free energy outlived the t-degree window")
    powers = exp_terms(Series.one(wide), step, trunc.max_t_degree + 1, error)
    shifted = []
    for k, power in enumerate(powers):
        for m, c in power.terms.items():
            stored = m.grade()[2] + offset - k
            if stored < 0:
                raise ValueError(
                    "hbar offset too small for the window: raise offset or shrink degree"
                )
            shifted.append((Monomial.build(m.vars, {PARAM_HBAR: stored}), c))
    return Series(trunc, shifted)

"""Scalar and parametric series: coupling tails, shift polynomials, flow constants.

Orientation notes for the expansion letters (see series module):

* in ``b_omega`` and everything derived from it, the stored ``z`` exponent e
  encodes z^{-e} (only inverse powers occur);
* in ``q_omega`` / ``q_u``, the stored ``x``/``y`` exponents are the
  plain non-negative powers of the defining expansion;
* in ``phi``, the stored ``z`` exponent is the plain positive power (the
  polynomial lives in u and z and is converted to q-variables downstream).

The one-variable flow equation fixing the constants a_m is solved in a small
dedicated Laurent helper because its right-hand side carries a single positive
power of z alongside the inverse-power tail.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterator

from .rationals import bernoulli, binomial
from .series import (
    Monomial,
    PARAM_U,
    PARAM_X,
    PARAM_Y,
    PARAM_Z,
    ParamId,
    Series,
    Truncation,
    TruncationError,
    _accumulate,
    _pack,
    exp_nilpotent,
    exp_terms,
    omega_param,
    q_var,
)

__all__ = [
    "CrossCheckError",
    "omega_bernoulli",
    "single_lambda_rule",
    "u_wide",
    "b_omega",
    "r_poly",
    "c_const",
    "q_omega",
    "q_omega_nested",
    "q_omega_division",
    "q_u",
    "divide_x_plus_y",
    "phi",
    "phi_coefficients",
    "phi_tilde",
    "ZLaurent",
    "rhs_target",
    "flow_expansion",
    "solve_a_coeffs",
]


class CrossCheckError(Exception):
    """Two independent computations of the same quantity disagreed: a defect in
    the program, not in the input."""


def omega_bernoulli(l: int) -> Fraction:
    """The coupling value -B_{2l} / (2l (2l-1)) selecting the single-lambda flow."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return -bernoulli(2 * l) / (2 * l * (2 * l - 1))


def _l_range(max_weight: int) -> range:
    # w[l] carries weight 2l-1
    return range(1, (max_weight + 1) // 2 + 1)


def b_omega(trunc: Truncation) -> Series:
    """Sum_l -w[l] z^{-(2l-1)}, stored on the inverse-power orientation of z."""
    terms = {}
    for l in _l_range(trunc.max_omega_weight):
        m = Monomial.build((), {omega_param(l): 1, PARAM_Z: 2 * l - 1})
        terms[m] = Fraction(-1)
    return Series(trunc, terms)


def _odd_partitions(total: int, largest: int | None = None) -> Iterator[list[int]]:
    """Partitions of `total` into odd parts, descending."""
    if total == 0:
        yield []
        return
    top = total if largest is None else min(total, largest)
    if top % 2 == 0:
        top -= 1
    for part in range(top, 0, -2):
        for rest in _odd_partitions(total - part, part):
            yield [part] + rest


@functools.cache
def _r_terms(i: int) -> dict[Monomial, Fraction]:
    """The coefficient map of r_poly(i), built once per i."""
    terms: dict[Monomial, Fraction] = {}
    for parts in _odd_partitions(i):
        coeff = Fraction(1)
        for mult in Counter(parts).values():
            coeff *= Fraction((-1) ** mult, math.factorial(mult))
        # each odd partition gives its own coupling monomial
        terms[Monomial.build((), ((omega_param((w + 1) // 2), 1) for w in parts))] = coeff
    return terms


def r_poly(i: int, trunc: Truncation | None = None) -> Series:
    """Coefficient of z^{-i} in exp(b_omega): a weight-i homogeneous coupling polynomial.

    Closed form: sum over partitions of i into odd parts 2l-1 of
    prod_l (-w[l])^{mult} / mult!.
    """
    if i < 0:
        raise ValueError("i must be >= 0")
    if trunc is None:
        trunc = Truncation(0, 0, 0, 0, i)
    return Series(trunc, _r_terms(i))


def single_lambda_rule(
    trunc: Truncation, u_per_weight: int = 2
) -> dict[ParamId, Series]:
    """The single-lambda couplings as a substitution rule: w[l] ->
    omega_bernoulli(l) * u^{u_per_weight*(2l-1)} for every w[l] the window holds."""
    return {
        omega_param(l): Series.of_monomial(
            trunc,
            Monomial.build((), {PARAM_U: u_per_weight * (2 * l - 1)}),
            omega_bernoulli(l),
        )
        for l in _l_range(trunc.max_omega_weight)
    }


def u_wide(trunc: Truncation) -> Truncation:
    """The window widened so that every coupling reaching the u window is kept:
    a coupling of weight w instantiates to u^{2w}."""
    return trunc.replace(
        max_omega_weight=max(trunc.max_omega_weight, trunc.max_u_degree // 2)
    )


@functools.cache
def c_const(i: int) -> Fraction:
    """r_poly(i) evaluated at the single-lambda couplings; C_0 = 1, C_1 = 1/12."""
    total = Fraction(0)
    for m, coeff in r_poly(i).terms.items():
        value = coeff
        for p, e in m.params:
            if p.kind == "w":
                value *= omega_bernoulli(p.index) ** e
        total += value
    return total


def _ordered_odd_tuples(max_weight: int) -> Iterator[list[int]]:
    """Ordered tuples (l_1, ..., l_n), n >= 1, with sum of (2l-1) <= max_weight."""
    stack: list[tuple[list[int], int]] = [([], 0)]
    while stack:
        prefix, weight = stack.pop()
        for l in _l_range(max_weight - weight):
            tup = prefix + [l]
            yield tup
            stack.append((tup, weight + 2 * l - 1))


def q_omega_nested(trunc: Truncation) -> Series:
    """The double-expansion closed form of the symmetric kernel in x, y."""
    terms: dict[Monomial, Fraction] = {}
    for ls in _ordered_odd_tuples(trunc.max_omega_weight):
        n = len(ls)
        couplings = [(omega_param(l), 1) for l in ls]
        base = Fraction((-1) ** n, math.factorial(n))
        l1 = ls[0]
        rest = [2 * l - 1 for l in ls[1:]]
        prefix = [0]
        for w in rest:
            prefix.append(prefix[-1] + w)
        total_rest = prefix[-1]
        for i in range(0, 2 * l1 - 1):
            j = 2 * l1 - 2 - i
            sign = Fraction((-1) ** (i + 1))
            for k in range(n):
                xexp = i + prefix[k]
                yexp = j + (total_rest - prefix[k])
                c = base * sign * binomial(n - 1, k)
                m = Monomial.build((), couplings + [(PARAM_X, xexp), (PARAM_Y, yexp)])
                _accumulate(terms, m, c)
    return Series(trunc, terms)


_MONOMIAL_Y = Monomial.build((), {PARAM_Y: 1})


def divide_x_plus_y(s: Series) -> Series:
    """Exact division by (x + y); raises if the remainder is nonzero."""
    rem = dict(s.terms)
    quo: dict[Monomial, Fraction] = {}

    def xexp(m: Monomial) -> int:
        for p, e in m.params:
            if p == PARAM_X:
                return e
        return 0

    while rem:
        m = max(rem, key=xexp)
        a = xexp(m)
        if a == 0:
            raise TruncationError("numerator is not divisible by (x + y)")
        c = rem.pop(m)
        qm = Monomial(m.vars, _pack({**dict(m.params), PARAM_X: a - 1}))
        _accumulate(quo, qm, c)
        # subtract (x + y) * qm: the x-part cancels m, the y-part feeds back
        _accumulate(rem, qm.mul(_MONOMIAL_Y), -c)
    return Series(s.trunc, quo)


def q_omega_division(trunc: Truncation) -> Series:
    """(1 - exp(tail(x) + tail(y))) / (x + y), computed by exact long division."""
    terms = {}
    for l in _l_range(trunc.max_omega_weight):
        for letter in (PARAM_X, PARAM_Y):
            m = Monomial.build((), {omega_param(l): 1, letter: 2 * l - 1})
            terms[m] = Fraction(-1)
    both_tails = Series(trunc, terms)
    numerator = Series.one(trunc).sub(exp_nilpotent(both_tails))
    return divide_x_plus_y(numerator)


def q_omega(trunc: Truncation) -> Series:
    """Symmetric kernel, computed both ways and cross-checked before returning."""
    nested = q_omega_nested(trunc)
    divided = q_omega_division(trunc)
    if nested != divided:
        raise CrossCheckError("kernel expansions disagree: nested sum vs long division")
    return nested


def q_u(trunc: Truncation) -> Series:
    """Kernel at couplings scaled by u^{2(2l-1)}; checked against the kernel at
    the single-lambda values (u = 1) rescaled by x -> u^2 x, y -> u^2 y and u^2.

    The kernel is enumerated once, in u_wide(trunc), which holds every coupling
    that reaches the u window, and both routes are instantiated from it.
    """
    wide = u_wide(trunc)
    kernel = q_omega(wide)
    direct = kernel.substitute(single_lambda_rule(wide))
    at_b = kernel.substitute(single_lambda_rule(wide, u_per_weight=0))
    rescale = {
        p: Series.of_monomial(wide, Monomial.build((), {PARAM_U: 2, p: 1}))
        for p in (PARAM_X, PARAM_Y)
    }
    scaled = at_b.substitute(rescale).mul_monomial(Monomial.build((), {PARAM_U: 2}))
    if direct != scaled:
        raise CrossCheckError("u-coupling kernel disagrees with the rescaled kernel")
    return direct.truncated(trunc)


# -- shift polynomials ---------------------------------------------------------


@functools.cache
def phi_coefficients(k: int) -> dict[tuple[int, int], Fraction]:
    """Exponent map (u_exp, z_exp) -> coefficient of the k-th shift polynomial."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return {(0, 1): Fraction(1)}
    out: dict[tuple[int, int], Fraction] = {}
    for (a, j), c in phi_coefficients(k - 1).items():
        base = c * j
        for da, dj, w in ((2, 0, 1), (1, 1, 2), (0, 2, 1)):
            _accumulate(out, (a + da, j + dj), base * w)
    return out


def phi(k: int) -> Series:
    """((u+z)^2 z d/dz)^k applied to z, as a polynomial in u and (positive-power) z."""
    coeffs = phi_coefficients(k)
    trunc = Truncation(0, 0, max(2 * k, 0) + 1, 0, 0)
    return Series(
        trunc,
        {
            Monomial.build((), {PARAM_U: a, PARAM_Z: j}): c
            for (a, j), c in coeffs.items()
        },
    )


def phi_tilde(k: int, color: int, trunc: Truncation) -> Series:
    """Shift polynomial with z^j replaced by q[j, color]; exact within the window."""
    if k > trunc.t_reach():
        raise TruncationError("shift polynomial needs q-index up to 2k+1")
    terms = {}
    for (a, j), c in phi_coefficients(k).items():
        m = Monomial.build({q_var(j, color): 1}, {PARAM_U: a} if a else ())
        if trunc.admits(m):
            terms[m] = c
    return Series(trunc, terms)


# -- the one-variable flow fixing the constants a_m -----------------------------


class ZLaurent:
    """Laurent polynomial in one letter with exponents capped above by construction."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None) -> None:
        self.terms: dict[int, Fraction] = {
            e: Fraction(c) for e, c in (terms or {}).items() if c
        }

    def coefficient(self, e: int) -> Fraction:
        return self.terms.get(e, Fraction(0))

    def add(self, other: "ZLaurent") -> "ZLaurent":
        out = dict(self.terms)
        for e, c in other.terms.items():
            _accumulate(out, e, c)
        return ZLaurent(out)

    def scale(self, v: Fraction | int) -> "ZLaurent":
        v = Fraction(v)
        return ZLaurent({e: c * v for e, c in self.terms.items()})

    def drop_below(self, floor: int) -> "ZLaurent":
        return ZLaurent({e: c for e, c in self.terms.items() if e >= floor})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = " + ".join(f"{c}*z^{e}" for e, c in sorted(self.terms.items(), reverse=True))
        return f"ZLaurent({body or '0'})"


def _inv_sqrt_series(f: list[Fraction], order: int) -> list[Fraction]:
    """g with g^2 * f = 1 (f[0] = 1, positive branch), through w^order."""
    if f[0] != 1:
        raise ValueError("inverse square root needs leading coefficient 1")
    g = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        # [w^n] (g^2 f) = 0
        acc = Fraction(0)
        for i in range(0, n + 1):
            for j in range(0, n - i + 1):
                if i == n or j == n:
                    continue
                acc += g[i] * g[j] * f[n - i - j]
        g[n] = -acc / 2
    return g


def rhs_target(order: int) -> ZLaurent:
    """Expansion of (-2 log(1 - 1/(1+z)) - 2/(1+z))^{-1/2} through z^{1-order}.

    The bracket equals w^2 sum_{k>=0} 2 w^k/(k+2) at w = 1/(1+z); the inverse
    square root takes the branch with leading term w^{-1} = 1 + z, so the
    result opens as z + 2/3 - z^{-1}/12 + ...
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    floor = 1 - order
    buf = order + 2
    f = [Fraction(2, k + 2) for k in range(buf + 1)]
    g = _inv_sqrt_series(f, buf)
    out: dict[int, Fraction] = {}
    for j, gj in enumerate(g):
        if gj == 0:
            continue
        p = j - 1  # power of w
        if p == -1:
            _accumulate(out, 1, gj)
            _accumulate(out, 0, gj)
        elif p == 0:
            _accumulate(out, 0, gj)
        else:
            # w^p = z^{-p} (1 + 1/z)^{-p} = sum_i (-1)^i C(p+i-1, i) z^{-p-i}
            i = 0
            while -p - i >= floor:
                _accumulate(out, -p - i, gj * Fraction((-1) ** i * binomial(p + i - 1, i)))
                i += 1
    return ZLaurent(out).drop_below(floor)


def flow_expansion(a: list[Fraction], order: int) -> ZLaurent:
    """exp(sum_m a_m z^{1-m} d/dz) . z through z^{1-order}."""
    floor = 1 - order

    def vector_field(p: ZLaurent) -> ZLaurent:
        out: dict[int, Fraction] = {}
        for e, c in p.terms.items():
            if e == 0:
                continue
            for m, am in enumerate(a, start=1):
                if am != 0 and e - m >= floor:
                    _accumulate(out, e - m, c * e * am)
        return ZLaurent(out)

    error = CrossCheckError("flow expansion failed to terminate")
    terms = exp_terms(ZLaurent({1: Fraction(1)}), vector_field, order + 4, error)
    return functools.reduce(ZLaurent.add, terms, ZLaurent()).drop_below(floor)


def solve_a_coeffs(count: int) -> list[Fraction]:
    """The unique a_1..a_count matching the flow to its closed-form target.

    Solved order by order (the z^{1-m} coefficient is linear in a_m with unit
    coefficient), then re-verified by a full round trip at the final order.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    target = rhs_target(count)
    a: list[Fraction] = []
    for m in range(1, count + 1):
        partial = flow_expansion(a + [Fraction(0)], count)
        a.append(target.coefficient(1 - m) - partial.coefficient(1 - m))
    if flow_expansion(a, count) != rhs_target(count):
        raise CrossCheckError("flow round trip failed")
    return a

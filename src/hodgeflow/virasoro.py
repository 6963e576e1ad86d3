"""The graded family of raising operators on q-variables and its split.

L_m = X_m + (hbar/2) Y_m with

    X_m = sum_{k>0} sum_a (k+m) q[k,a] d/dq[k+m,a]
    Y_m = sum_{a+b=m} sum_{mn} a b eta^{mn} d2/dq[a,m] dq[b,n]

for m >= 1 only; q[n] and d/dq[n] vanish for n <= 0 by convention, which the
builders realize by their index ranges.  The u-weighted sums X+ and Y+ drive
the split exp(sum a_m u^m L_m) = exp(X+) exp((hbar/2) Q+), with Q+ the
alternating ad-tower of Y+ under X+.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .operators import (
    Case,
    Operator,
    OperatorClassError,
    contraction,
    exp_basis_cases,
    zassenhaus_tail,
)
from .pairing import Pairing, point_pairing
from .rationals import odd_double_factorial
from .series import (
    Monomial,
    PARAM_HBAR,
    PARAM_U,
    Series,
    Truncation,
    q_var,
)
from .special import c_const, phi_tilde, solve_a_coeffs

__all__ = [
    "build_x",
    "build_y",
    "build_l",
    "u_weighted",
    "VirasoroBundle",
    "build_virasoro",
    "bracket_cases",
    "delta_map",
    "odd_part",
    "split_cases",
    "raised_odd_case",
    "q_variables",
]


def q_variables(pairing: Pairing, trunc: Truncation) -> list:
    return [
        q_var(k, a)
        for k in range(1, trunc.max_var_index + 1)
        for a in pairing.colors()
    ]


def build_x(m: int, pairing: Pairing, trunc: Truncation) -> Operator:
    if m < 1:
        raise ValueError("m must be >= 1")
    return Operator.sum(
        Operator.atom(k + m, mult=[q_var(k, a)], deriv=[q_var(k + m, a)])
        for a in pairing.colors()
        for k in range(1, trunc.max_var_index - m + 1)
    )


def build_y(m: int, pairing: Pairing, trunc: Truncation) -> Operator:
    if m < 1:
        raise ValueError("m must be >= 1")
    return Operator.sum(
        contraction(pairing, q_var, a, m - a, a * (m - a)) for a in range(1, m)
    ).truncate(trunc)


def build_l(m: int, pairing: Pairing, trunc: Truncation) -> Operator:
    return build_x(m, pairing, trunc).add(
        build_y(m, pairing, trunc).scale(Fraction(1, 2), {PARAM_HBAR: 1})
    )


def u_weighted(
    build: Callable[[int, Pairing, Truncation], Operator],
    a: Sequence[Fraction],
    pairing: Pairing,
    trunc: Truncation,
) -> Operator:
    """sum_m a_m u^m build(m), m = 1 .. len(a): X+ from build_x, Y+ from build_y."""
    return Operator.sum(
        build(m, pairing, trunc).scale(a_m, {PARAM_U: m})
        for m, a_m in enumerate(a, start=1)
    )


@dataclass(eq=False)
class VirasoroBundle:
    """The raising operators of one window, each built on first use and then kept.

    X_m carries u^m, so the aggregates run over m up to the u-degree window.
    Assigning a field replaces it for every later reader; the negative
    controls perturb a tower this way.
    """

    pairing: Pairing
    trunc: Truncation

    @functools.cached_property
    def a(self) -> tuple[Fraction, ...]:
        return tuple(solve_a_coeffs(self.trunc.max_u_degree))

    @functools.cached_property
    def x_plus(self) -> Operator:
        """sum a_m u^m X_m"""
        return u_weighted(build_x, self.a, self.pairing, self.trunc)

    @functools.cached_property
    def y_plus(self) -> Operator:
        """sum a_m u^m Y_m"""
        return u_weighted(build_y, self.a, self.pairing, self.trunc)

    @functools.cached_property
    def l_weighted(self) -> Operator:
        """sum a_m u^m L_m"""
        return self.x_plus.add(self.y_plus.scale(Fraction(1, 2), {PARAM_HBAR: 1}))

    @functools.cached_property
    def q_plus(self) -> Operator:
        """The alternating ad-tower of y_plus under x_plus."""
        return zassenhaus_tail(self.x_plus, self.y_plus, self.trunc)

    @functools.cached_property
    def q_plus_odd(self) -> Operator:
        """q_plus restricted to odd q-indices."""
        return odd_part(self.q_plus)


def build_virasoro(pairing: Pairing, trunc: Truncation) -> VirasoroBundle:
    """The raising-operator bundle of a window; nothing is built until a field is read."""
    return VirasoroBundle(pairing, trunc)


def odd_part(op: Operator) -> Operator:
    """Atoms touching only odd q-indices (in derivatives and multiplications)."""
    out: dict = {}
    for key, c in op.atoms.items():
        _, mult, deriv = key
        if all(v.index % 2 == 1 for v, _ in mult) and all(
            v.index % 2 == 1 for v, _ in deriv
        ):
            out[key] = c
    return Operator(out, _clean=True)


def bracket_cases(m: int, n: int, pairing: Pairing, trunc: Truncation) -> list[Case]:
    """[L_m, L_n] = (m-n) L_{m+n} symbolically, plus its two graded halves.

    Exact on the windowed ring provided m + n <= max_var_index.
    """
    if m + n > trunc.max_var_index:
        raise ValueError("bracket check needs max_var_index >= m + n")
    xm, xn = build_x(m, pairing, trunc), build_x(n, pairing, trunc)
    ym, yn = build_y(m, pairing, trunc), build_y(n, pairing, trunc)
    return [
        (
            f"[L{m},L{n}]",
            build_l(m, pairing, trunc).commutator(build_l(n, pairing, trunc)),
            build_l(m + n, pairing, trunc).scale(m - n),
        ),
        (
            f"[X{m},X{n}]",
            xm.commutator(xn),
            build_x(m + n, pairing, trunc).scale(m - n),
        ),
        (
            f"[X{m},Y{n}]+[Y{m},X{n}]",
            xm.commutator(yn).add(ym.commutator(xn)),
            build_y(m + n, pairing, trunc).scale(m - n),
        ),
    ]


def delta_map(op_pt: Operator, pairing: Pairing) -> Operator:
    """Color a colorless second-order pure-derivative operator through the pairing:

    d2/dq[m] dq[n] -> sum eta^{mn} d2/dq[m,mu] dq[n,nu], extended linearly.
    """
    parts = []
    for (params, mult, deriv), c in op_pt.atoms.items():
        if mult:
            raise OperatorClassError("delta map expects pure-derivative atoms")
        flat: list = []
        for v, e in deriv:
            if v.kind != "q" or v.color != 0:
                raise OperatorClassError("delta map expects colorless q-derivatives")
            flat.extend([v] * e)
        if len(flat) != 2:
            raise OperatorClassError("delta map expects exactly second order")
        va, vb = flat
        parts.append(contraction(pairing, q_var, va.index, vb.index, c, params))
    return Operator.sum(parts)


def split_cases(bundle: VirasoroBundle) -> Iterator[Case]:
    """exp(sum a_m u^m L_m) = exp(X+) exp((hbar/2) Q+) on the q-monomial basis,
    plus the colored-vs-point compatibility Q+_odd = Delta(Q+^pt_odd)."""
    trunc = bundle.trunc
    pairing = bundle.pairing
    q_half = bundle.q_plus.scale(Fraction(1, 2), {PARAM_HBAR: 1})
    yield from exp_basis_cases(
        bundle.l_weighted,
        [("split", [bundle.x_plus, q_half])],
        trunc,
        q_variables(pairing, trunc),
        trunc.max_t_degree,
    )
    pt_bundle = (
        bundle
        if pairing.rank == 1 and pairing.eta[0][0] == 1
        else build_virasoro(point_pairing(), trunc)
    )
    recolored = delta_map(pt_bundle.q_plus_odd, pairing)
    yield "odd tower vs recolored point tower", bundle.q_plus_odd, recolored


def raised_odd_case(n: int, alpha: int, bundle: VirasoroBundle) -> Case:
    """exp(X+) . q[2n+1, a] = 1/(2n-1)!! sum_i C_i u^{2i} (shift polynomial)_{n-i}.

    Exact at every u-window: u-degree only adds up under products, so both
    sides drop the same terms.  Needs max_var_index >= 2n+1.
    """
    trunc = bundle.trunc
    if n > trunc.t_reach():
        raise ValueError("need max_var_index >= 2n+1")
    start = Series.of_var(trunc, q_var(2 * n + 1, alpha))
    lhs = bundle.x_plus.exp_apply(start)
    rhs = Series.sum(
        trunc,
        (
            phi_tilde(n - i, alpha, trunc).mul_monomial(
                Monomial.build((), {PARAM_U: 2 * i}), c_const(i)
            )
            for i in range(0, n + 1)
        ),
    ).scale(Fraction(1, odd_double_factorial(n)))
    return f"raise q[{2*n+1},{alpha}]", lhs, rhs

"""Flow operators on the descendant variables and their exact factorization.

The flow generator splits into three graded pieces:

* an index-shifting part (one variable in, one derivative out) that acts as a
  change of coordinates under exponentiation;
* a constant-derivative part;
* a second-order contraction part pairing two derivatives through the inverse
  pairing matrix.

Exponentials of the whole generator factor exactly into the exponentials of
the shift part, a quantized kernel, and a shift of coordinates;
factorization_cases compares both sides on the full monomial basis of the
window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .operators import Case, Operator, contraction, exp_basis_cases
from .pairing import Pairing
from .series import (
    Monomial,
    PARAM_HBAR,
    PARAM_X,
    PARAM_Y,
    ParamId,
    Requirement,
    Series,
    Truncation,
    omega_param,
    t_var,
)
from .special import r_poly, single_lambda_rule, u_wide

__all__ = [
    "WOmegaParts",
    "build_d",
    "w_omega_parts",
    "build_w_omega",
    "build_w_u",
    "build_shift_u",
    "build_p_u",
    "instantiate_omega",
    "theta_map",
    "build_p",
    "hat_t",
    "t_variables",
    "factorization_cases",
    "hat_t_cases",
    "HAT_T_WINDOW",
]


def t_variables(pairing: Pairing, trunc: Truncation) -> list:
    return [
        t_var(i, a)
        for i in range(trunc.max_var_index + 1)
        for a in pairing.colors()
    ]


@dataclass(frozen=True)
class WOmegaParts:
    """The three graded summands of the coupled flow generator."""

    shift: Operator        # variable-shift family, lowers indices by 2l-1
    derivative: Operator   # constant first-order derivatives
    contraction: Operator  # second-order, enters with an explicit hbar/2

    def total(self) -> Operator:
        half = self.contraction.scale(Fraction(1, 2), {PARAM_HBAR: 1})
        return Operator.sum((self.shift, self.derivative, half))


def _d_parts(
    l: int, pairing: Pairing, trunc: Truncation, params: dict[ParamId, int]
) -> WOmegaParts:
    """The three summands of D_l (see build_d), each atom carrying params and the
    contraction without its hbar/2; atoms on a variable beyond the index window
    are dropped (they annihilate every retained monomial)."""
    shift = Operator.sum(
        Operator.atom(
            -1, params=params, mult=[t_var(i, a)], deriv=[t_var(i + 2 * l - 1, a)]
        )
        for a in pairing.colors()
        for i in range(trunc.max_var_index + 1)
    )
    derivative = Operator.atom(1, params=params, deriv=[t_var(2 * l, 0)])
    second = Operator.sum(
        contraction(pairing, t_var, i, 2 * l - 2 - i, (-1) ** i, params)
        for i in range(2 * l - 1)
    )
    parts = (shift, derivative, second)
    return WOmegaParts(*(part.truncate(trunc) for part in parts))


def build_d(l: int, pairing: Pairing, trunc: Truncation) -> Operator:
    """The l-th flow generator:

    d/dt[2l,0] - sum_{i,a} t[i,a] d/dt[i+2l-1,a]
    + (hbar/2) sum_{i+j=2l-2} (-1)^i eta^{mn} d2/dt[i,m] dt[j,n],

    with variable indices capped by the window (dropped atoms annihilate every
    retained monomial).
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    return _d_parts(l, pairing, trunc, {}).total()


def w_omega_parts(pairing: Pairing, trunc: Truncation) -> WOmegaParts:
    """sum_l w[l] D_l in its three parts, l capped by the coupling-weight window."""
    per_l = [
        _d_parts(l, pairing, trunc, {omega_param(l): 1})
        for l in range(1, (trunc.max_omega_weight + 1) // 2 + 1)
    ]
    return WOmegaParts(
        Operator.sum(d.shift for d in per_l),
        Operator.sum(d.derivative for d in per_l),
        Operator.sum(d.contraction for d in per_l),
    )


def build_w_omega(pairing: Pairing, trunc: Truncation) -> Operator:
    """sum_l w[l] D_l with l capped by the coupling-weight window."""
    return w_omega_parts(pairing, trunc).total()


def build_w_u(pairing: Pairing, trunc: Truncation) -> Operator:
    """The single-lambda flow generator -sum_l B_{2l}/(2l(2l-1)) u^{2(2l-1)} D_l,
    ranged by the u window."""
    wide = u_wide(trunc)
    return instantiate_omega(build_w_omega(pairing, wide), wide)


def build_shift_u(pairing: Pairing, trunc: Truncation) -> Operator:
    """The index-shifting part at the single-lambda couplings, ranged by the u window."""
    wide = u_wide(trunc)
    return instantiate_omega(w_omega_parts(pairing, wide).shift, wide)


def build_p_u(trunc: Truncation) -> Operator:
    """The coordinate-shift generator at the single-lambda couplings."""
    wide = u_wide(trunc)
    return instantiate_omega(build_p(wide), wide)


def instantiate_omega(op: Operator, trunc: Truncation) -> Operator:
    """Replace every coupling w[l] in an operator by its single-lambda value
    -B_{2l}/(2l(2l-1)) u^{2(2l-1)}."""
    return op.substitute_params(single_lambda_rule(trunc), trunc)


def theta_map(b: Series, pairing: Pairing, trunc: Truncation) -> Operator:
    """Linear extension of x^i y^j -> sum eta^{mn} d2/dt[i,m] dt[j,n].

    Non-(x,y) parameters in a term ride along as atom coefficients; variable
    content is rejected.  Target indices beyond the window are dropped.
    """
    parts = []
    for m, c in b.terms.items():
        if m.vars:
            raise ValueError("theta map expects a parameter-only series")
        i = j = 0
        rest: list[tuple[ParamId, int]] = []
        for p, e in m.params:
            if p == PARAM_X:
                i = e
            elif p == PARAM_Y:
                j = e
            else:
                rest.append((p, e))
        if i > trunc.max_var_index or j > trunc.max_var_index:
            continue
        parts.append(contraction(pairing, t_var, i, j, c, rest))
    return Operator.sum(parts)


def build_p(trunc: Truncation) -> Operator:
    """-sum_{i>=1} R_i d/dt[1+i, 0], indices and weights capped by the window."""
    return Operator.sum(
        Operator.atom(-c, params=m.params, deriv=[t_var(1 + i, 0)])
        for i in range(1, trunc.max_omega_weight + 1)
        for m, c in r_poly(i, trunc).terms.items()
    ).truncate(trunc)


def hat_t(n: int, alpha: int, trunc: Truncation) -> Series:
    """Closed form of the shifted coordinate:

    sum_{i=0}^{n} R_i t[n-i, alpha], minus R_{n-1} exactly when alpha = 0, n >= 2.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    out = Series.sum(
        trunc,
        (
            r_poly(i, trunc).mul_monomial(Monomial.build({t_var(n - i, alpha): 1}))
            for i in range(0, n + 1)
        ),
    )
    if alpha == 0 and n >= 2:
        out = out.sub(r_poly(n - 1, trunc))
    return out


def factorization_cases(
    pairing: Pairing,
    trunc: Truncation,
    whole: Operator,
    shift: Operator,
    kernel: Operator,
    p_shift: Operator,
) -> Iterator[Case]:
    """exp(whole) = exp(shift) exp((hbar/2) kernel) exp(p_shift) on the basis.

    Both factor orders of the two commuting right factors are checked.
    """
    q_half = kernel.scale(Fraction(1, 2), {PARAM_HBAR: 1})
    orders = [
        ("q.p order", [shift, q_half, p_shift]),
        ("p.q order", [shift, p_shift, q_half]),
    ]
    variables = t_variables(pairing, trunc)
    return exp_basis_cases(whole, orders, trunc, variables, trunc.max_t_degree)


HAT_T_WINDOW = Requirement("max_t_degree", 1, "hat-t check needs max_t_degree >= 1")


def hat_t_cases(
    parts: WOmegaParts, p_shift: Operator, pairing: Pairing, trunc: Truncation, n_max: int
) -> Iterator[Case]:
    """Shifted coordinates: operator action vs closed form, and the z-packaged identity.

    (a) exp(shift) exp(p_shift) . t[n,a] equals the closed form;
    (b) the generating identity z g_0 + sum (-z)^n sum_a hat_t[n,a] g_a =
        (z g_0 + sum (-z)^n sum_a t[n,a] g_a) . sum_i R_i (-z)^i, compared
        coefficientwise in (z-power, color).

    parts and p_shift are w_omega_parts and build_p at trunc.  Exact for every
    n_max <= max_var_index at every coupling-weight window (w-weight only adds up).
    Needs HAT_T_WINDOW: t-degree 0 cuts each start t[n,a] but not -R_{n-1}.
    """
    if not HAT_T_WINDOW.holds(trunc):
        raise ValueError(HAT_T_WINDOW.reason)
    if n_max > trunc.max_var_index:
        raise ValueError("hat-t check needs max_var_index >= n_max")

    def column_term(n: int, i: int, a: int) -> Series:
        # R_i (-z)^i times the (-z)^(n-i) coefficient of the bracket at color a
        factor = r_poly(i, trunc).scale(Fraction((-1) ** i))
        bracket = Series.of_var(trunc, t_var(n - i, a), Fraction((-1) ** (n - i)))
        if n - i == 1 and a == 0:
            bracket = bracket.add(Series.one(trunc))
        return factor.mul(bracket)

    for n in range(0, n_max + 1):
        for a in pairing.colors():
            start = Series.of_var(trunc, t_var(n, a))
            via_ops = parts.shift.exp_apply(p_shift.exp_apply(start))
            yield f"coordinate shift t[{n},{a}]", via_ops, hat_t(n, a, trunc)
    # (b) compare per z-power and color
    for n in range(0, n_max + 1):
        for a in pairing.colors():
            lhs = hat_t(n, a, trunc).scale(Fraction((-1) ** n))
            if n == 1 and a == 0:
                lhs = lhs.add(Series.one(trunc))
            rhs = Series.sum(trunc, (column_term(n, i, a) for i in range(0, n + 1)))
            yield f"z-series column (n={n}, a={a})", lhs, rhs


"""End-to-end wiring: change of variables, the substitution bridge, the main identity.

The two variable worlds stay distinct throughout: flow operators act on t-world
series, the raising operators act on q-world series, and the only crossings are
the two substitutions below (full, and its u = 0 degeneration).  Substituting
first and acting after is never confused with acting first and substituting
after; that separation is exactly what the bridge identity certifies.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator

from .hodge import (
    HAT_T_WINDOW,
    WOmegaParts,
    build_p,
    build_p_u,
    build_shift_u,
    build_w_u,
    factorization_cases,
    hat_t_cases,
    theta_map,
    w_omega_parts,
)
from .operators import Case, Operator, OperatorClassError, check
from .pairing import Pairing, pairing_from_spec, point_pairing
from .rationals import odd_double_factorial
from .report import Report
from .series import (
    Monomial,
    PARAM_HBAR,
    PARAM_U,
    PARAM_X,
    PARAM_Y,
    Requirement,
    Series,
    Truncation,
    TruncationError,
    _accumulate,
    _pack,
    basis_monomials,
    q_var,
    random_series,
    t_var,
)
from .special import (
    c_const,
    phi_tilde,
    q_omega,
    q_u,
    rhs_target,
    flow_expansion,
    solve_a_coeffs,
)
from .virasoro import (
    VirasoroBundle,
    bracket_cases,
    delta_map,
    raised_odd_case,
    split_cases,
)
from .witten import default_hbar_offset, z_point

__all__ = [
    "Context",
    "u_zero_substitute",
    "change_vars",
    "to_q_world",
    "bridge_cases",
    "verify_substitution_bridge",
    "kernel_match_case",
    "theta_recoloring_cases",
    "main_identity_case",
    "verify_hodge_to_gw",
    "log_true_coefficient",
    "VerificationConfig",
    "ALL_SUITES",
    "run_suite",
]


class Context(VirasoroBundle):
    """The operators of one run at one pairing and window, each built on first use
    and then kept: the raising side of VirasoroBundle (a, X+, Y+, L+, Q+ and its
    odd part) and the flow side below.

    The builders are looked up among this module's globals when a field is first
    read, so rebinding one here (a negative control, the bench tracer) changes
    what the context builds.
    """

    @functools.cached_property
    def w_parts(self) -> WOmegaParts:
        return w_omega_parts(self.pairing, self.trunc)

    @functools.cached_property
    def p(self) -> Operator:
        return build_p(self.trunc)

    @functools.cached_property
    def w_u(self) -> Operator:
        return build_w_u(self.pairing, self.trunc)

    @functools.cached_property
    def shift_u(self) -> Operator:
        return build_shift_u(self.pairing, self.trunc)

    @functools.cached_property
    def p_u(self) -> Operator:
        return build_p_u(self.trunc)

    @functools.cached_property
    def kernel(self) -> Operator:
        """theta(q_u), the quantized kernel at the single-lambda couplings."""
        return theta_map(q_u(self.trunc), self.pairing, self.trunc)


def u_zero_substitute(s: Series) -> Series:
    """t[k,a] -> (2k-1)!! q[2k+1,a], term by term; raises if an index overflows."""
    trunc = s.trunc
    reach = trunc.t_reach()
    out: dict[Monomial, Fraction] = {}
    for m, c in s.terms.items():
        factor = Fraction(1)
        new_vars = []
        for v, e in m.vars:
            if v.kind != "t":
                raise ValueError("u_zero substitution expects a t-world series")
            if v.index > reach:
                raise TruncationError("q-index 2k+1 exceeds the window")
            factor *= Fraction(odd_double_factorial(v.index)) ** e
            new_vars.append((q_var(2 * v.index + 1, v.color), e))
        _accumulate(out, Monomial(_pack(new_vars), m.params), c * factor)
    return Series(trunc, out, _clean=True)


def _full_replacement(n: int, alpha: int, trunc: Truncation) -> Series:
    repl = phi_tilde(n, alpha, trunc)
    if alpha == 0 and n >= 2:
        const = Monomial.build((), {PARAM_U: 2 * (n - 1)})
        if trunc.admits(const):
            repl = repl.add(
                Series.of_monomial(trunc, const, Fraction((-1) ** n) * c_const(n - 1))
            )
    return repl


def change_vars(s: Series) -> Series:
    """The full change of variables on a t-world series, exact in its window:

    t[n,a] -> (shift polynomial in q, u) plus the alternating constant
    (-1)^n C_{n-1} u^{2(n-1)} when a = 0 and n >= 2.

    With the u-window closed to zero it degenerates to u_zero_substitute.
    """
    rule: dict = {}
    for v in s.variables():
        if v.kind != "t":
            raise ValueError("change of variables expects a t-world series")
        rule[v] = _full_replacement(v.index, v.color, s.trunc)
    return s.substitute(rule)


def to_q_world(op: Operator, trunc: Truncation) -> Operator:
    """Chain rule of the u_zero substitution on constant pure-derivative operators:

    d/dt[k,a] -> 1/(2k-1)!! d/dq[2k+1,a].  Indices beyond the window drop.
    """
    reach = trunc.t_reach()
    out: dict = {}
    for (params, mult, deriv), c in op.atoms.items():
        if mult:
            raise OperatorClassError("q-world transport needs pure-derivative atoms")
        factor = Fraction(1)
        new_deriv = []
        for v, e in deriv:
            if v.kind != "t":
                raise OperatorClassError("q-world transport expects t-derivatives")
            if v.index > reach:
                break
            factor /= Fraction(odd_double_factorial(v.index)) ** e
            new_deriv.append((q_var(2 * v.index + 1, v.color), e))
        else:
            _accumulate(out, (params, (), _pack(new_deriv)), c * factor)
    return Operator(out, _clean=True)


def _random_inputs(
    pairing: Pairing, draw: Truncation, seeds: range, terms: int
) -> Iterator[Series]:
    """One random_series per seed over the t[i,a] with 2i+1 <= max_var_index and
    hbar and u up to the window's: `terms` distinct terms, or every monomial it
    can draw when the window holds fewer."""
    pool = [t_var(i, a) for i in range(draw.t_reach() + 1) for a in pairing.colors()]
    hbar, u = draw.max_hbar_degree, draw.max_u_degree
    monomials = islice(basis_monomials(pool, draw.max_t_degree), terms)
    count = min(terms, len(list(monomials)) * (hbar + 1) * (u + 1))
    for seed in seeds:
        yield random_series(seed, draw, count, pool, hbar, u)


def bridge_cases(
    ctx: Context,
    n_max: int,
    seed: int,
    random_count: int = 10,
) -> Iterator[Case]:
    """{exp(shift_u) exp(p_u) . G}|_full  =  exp(X+) . {G}|_u_zero.

    Driven on every coordinate t[n,a] for n <= n_max and on seeded random G of
    t-degree <= 2.  Needs max_var_index >= 2 n_max + 1.
    """
    pairing, trunc = ctx.pairing, ctx.trunc
    if n_max > trunc.t_reach():
        raise ValueError("bridge check needs max_var_index >= 2 n_max + 1")

    def inputs():
        for n in range(0, n_max + 1):
            for a in pairing.colors():
                yield f"bridge t[{n},{a}]", Series.of_var(trunc, t_var(n, a))
        t, u = min(2, trunc.max_t_degree), min(2, trunc.max_u_degree)
        draw = trunc.replace(max_t_degree=t, max_u_degree=u, max_hbar_degree=0)
        seeds = range(seed, seed + random_count)
        for s, g in zip(seeds, _random_inputs(pairing, draw, seeds, 6)):
            yield f"bridge random seed={s}", g.truncated(trunc)

    for tag, g in inputs():
        lhs = change_vars(ctx.shift_u.exp_apply(ctx.p_u.exp_apply(g)))
        yield tag, lhs, ctx.x_plus.exp_apply(u_zero_substitute(g))


def verify_substitution_bridge(
    pairing: Pairing,
    trunc: Truncation,
    n_max: int,
    seed: int = 0,
    random_count: int = 10,
) -> Report:
    """bridge_cases as one report."""
    ctx = Context(pairing, trunc)
    cases = bridge_cases(ctx, n_max, seed, random_count)
    return check("bridge", pairing.name, trunc, cases)


def kernel_match_case(ctx: Context) -> Case:
    """The quantized kernel transported to the q-world equals the odd ad-tower.

    Atom-by-atom operator equality; the linchpin connecting the flow side to
    the raising-operator side.
    """
    return "kernel", to_q_world(ctx.kernel, ctx.trunc), ctx.q_plus_odd


def theta_recoloring_cases(pairing: Pairing, trunc: Truncation) -> Iterator[Case]:
    """Transporting the colored kernel map commutes with coloring the point kernel
    map, on x^i y^j for i, j <= 4."""
    pt = point_pairing()
    top = min(4, trunc.t_reach())
    for i in range(0, top + 1):
        for j in range(0, top + 1):
            xy = Series.of_monomial(trunc, Monomial.build((), {PARAM_X: i, PARAM_Y: j}))
            colored = to_q_world(theta_map(xy, pairing, trunc), trunc)
            recolored = delta_map(to_q_world(theta_map(xy, pt, trunc), trunc), pairing)
            yield f"x^{i} y^{j}", colored, recolored


def main_identity_case(z: Series, ctx: Context) -> Case:
    """The main identity on a concrete input series, with ctx built at z's window:

    {exp(flow_u) . z}|_full substitution  =  exp(sum a_m u^m L_m) . {z}|_u_zero.

    Exact within the window provided max_var_index >= 2 * (largest t-index of z) + 1.
    """
    trunc = z.trunc
    support = max((v.index for v in z.variables()), default=0)
    if support > trunc.t_reach():
        raise ValueError("window too narrow: need max_var_index >= 2*support+1")
    lhs = change_vars(ctx.w_u.exp_apply(z))
    rhs = ctx.l_weighted.exp_apply(u_zero_substitute(z))
    return "main identity", lhs, rhs


def verify_hodge_to_gw(z: Series, pairing: Pairing, label: str = "theorem") -> Report:
    """main_identity_case(z) as one report."""
    case = main_identity_case(z, Context(pairing, z.trunc))
    return check(label, pairing.name, z.trunc, [case])


def log_true_coefficient(stored: Series, offset: int, target: Monomial) -> Fraction:
    """[target] of log Z where stored = hbar^offset * Z and target carries the
    true (un-offset) hbar exponent.

    Correct whenever every product contributing to the target either lies in
    the stored window or is excluded by the degree window (the caller's side of
    the bargain; holds for offset = max_t_degree // 3 exponentials).

    The k-th power is read only at the probe target * hbar^(k*offset), and
    every exponent is non-negative, so only the terms dividing some probe are
    kept; the window is a down-set, so it admits every divisor of an admitted
    probe and the restriction changes no coefficient that is read.
    """
    trunc0 = stored.trunc
    k_max = trunc0.max_t_degree
    target_h = target.grade()[2]
    big = trunc0.replace(
        max_hbar_degree=trunc0.max_hbar_degree + k_max * max(offset, 1) + target_h
    )
    base_params = {p: e for p, e in target.params if p.kind != "hbar"}
    var_caps = dict(target.vars)
    param_caps = base_params | {PARAM_HBAR: target_h + k_max * offset}

    def divides_a_probe(m: Monomial) -> bool:
        return all(e <= var_caps.get(v, 0) for v, e in m.vars) and all(
            e <= param_caps.get(p, 0) for p, e in m.params
        )

    kept = Series(big, ((m, c) for m, c in stored.terms.items() if divides_a_probe(m)))
    x = kept.sub(Series.of_monomial(big, Monomial.build((), {PARAM_HBAR: offset})))
    total = Fraction(0)
    power = Series.one(big)
    for k in range(1, k_max + 1):
        power = power.mul(x)
        if power.is_zero():
            break
        probe = Monomial.build(
            target.vars, base_params | {PARAM_HBAR: target_h + k * offset}
        )
        total += Fraction((-1) ** (k + 1), k) * power.coefficient(probe)
    return total


# -- suite runner ------------------------------------------------------------


# Every suite takes the run's context and seed and returns its reports.


def _constants_suite(ctx: Context, seed: int) -> list[Report]:
    def cases():
        a = solve_a_coeffs(10)
        expected_a = [Fraction(2, 3), Fraction(-1, 12), Fraction(7, 540)]
        for m, want in enumerate(expected_a, start=1):
            yield f"a_{m}", a[m - 1], want
        yield "flow round trip (order 10)", flow_expansion(a, 10), rhs_target(10)
        expected_c = [
            Fraction(1),
            Fraction(1, 12),
            Fraction(1, 288),
            Fraction(-139, 51840),
        ]
        for i, want in enumerate(expected_c):
            yield f"C_{i}", c_const(i), want
        for n in range(1, 11):
            acc = sum(
                Fraction((-1) ** (n - i)) * c_const(i) * c_const(n - i)
                for i in range(n + 1)
            )
            yield f"alternating C identity n={n}", acc, Fraction(0)

    return [check("constants", "-", ctx.trunc, cases())]


def _w_factorization_suite(ctx: Context, seed: int) -> list[Report]:
    pairing, trunc, parts = ctx.pairing, ctx.trunc, ctx.w_parts
    kernel = theta_map(q_omega(trunc), pairing, trunc)
    formal = factorization_cases(
        pairing, trunc, parts.total(), parts.shift, kernel, ctx.p
    )
    from_u = factorization_cases(
        pairing, trunc, ctx.w_u, ctx.shift_u, ctx.kernel, ctx.p_u
    )
    return [
        check("w-factorization", pairing.name, trunc, formal),
        check("w-factorization[from_u]", pairing.name, trunc, from_u),
    ]


def _hat_t_suite(ctx: Context, seed: int) -> list[Report]:
    pairing, trunc = ctx.pairing, ctx.trunc
    n_max = min(trunc.max_var_index, max(trunc.max_omega_weight, 1))
    cases = hat_t_cases(ctx.w_parts, ctx.p, pairing, trunc, n_max)
    return [check("hat-t", pairing.name, trunc, cases)]


def _brackets_suite(ctx: Context, seed: int) -> list[Report]:
    pairing, trunc = ctx.pairing, ctx.trunc
    m_hi = trunc.max_var_index // 2
    cases = (
        case
        for m in range(1, m_hi + 1)
        for n in range(1, m_hi + 1)
        for case in bracket_cases(m, n, pairing, trunc)
    )
    return [check(f"brackets(m,n<={m_hi})", pairing.name, trunc, cases)]


def _virasoro_split_suite(ctx: Context, seed: int) -> list[Report]:
    return [check("virasoro-split", ctx.pairing.name, ctx.trunc, split_cases(ctx))]


def _ex_closed_form_suite(ctx: Context, seed: int) -> list[Report]:
    pairing, trunc = ctx.pairing, ctx.trunc
    n_hi = min(trunc.t_reach(), trunc.max_u_degree // 2)
    cases = (
        raised_odd_case(n, a, ctx)
        for n in range(0, n_hi + 1)
        for a in pairing.colors()
    )
    return [check(f"ex-closed-form(n<={n_hi})", pairing.name, trunc, cases)]


def _bridge_suite(ctx: Context, seed: int) -> list[Report]:
    pairing, trunc = ctx.pairing, ctx.trunc
    recoloring = theta_recoloring_cases(pairing, trunc)
    return [
        check("bridge", pairing.name, trunc, bridge_cases(ctx, trunc.t_reach(), seed)),
        check("kernel-match", pairing.name, trunc, [kernel_match_case(ctx)]),
        check("theta-recoloring", pairing.name, trunc, recoloring),
    ]


def _theorem_suite(ctx: Context, seed: int) -> list[Report]:
    pairing, trunc = ctx.pairing, ctx.trunc
    reports: list[Report] = []
    support = trunc.t_reach()
    if pairing.rank == 1 and pairing.eta[0][0] == 1:
        z_trunc = trunc.replace(max_var_index=support)
        offset = default_hbar_offset(z_trunc)
        z = z_point(z_trunc, genus_max=2, offset=offset).truncated(trunc)
        case = main_identity_case(z, ctx)
        reports.append(check("theorem[point-dvv]", pairing.name, trunc, [case]))
        # log_true_coefficient's bargain for u^2 t[0,0] at true hbar^0: up to
        # u^2 the flow is one step of D_1, which reaches t[0] from the genus-0
        # term t[0]^3 (its hbar-contraction; t-degree 3, so offset >= 1) and
        # from t[0] t[2] (its derivative d/dt[2]).  Both must lie in z's window,
        # and the target, stored at hbar^offset, in the flowed window.
        if (
            trunc.max_t_degree >= 3
            and support >= 2
            and trunc.max_u_degree >= 2
            and trunc.max_hbar_degree >= offset
        ):
            flowed = ctx.w_u.exp_apply(z)
            got = log_true_coefficient(
                flowed, offset, Monomial.build({t_var(0): 1}, {PARAM_U: 2})
            )
            case = ("u^2 t[0,0] log coefficient", got, Fraction(-1, 24))
            reports.append(
                check(
                    "theorem[one-point genus-1 log coefficient]",
                    pairing.name,
                    trunc,
                    [case],
                )
            )
    seeds = range(seed + 100, seed + 110)
    randoms = _random_inputs(pairing, trunc.replace(max_u_degree=0), seeds, 8)
    cases = (main_identity_case(z.truncated(trunc), ctx) for z in randoms)
    reports.append(check("theorem[random x10]", pairing.name, trunc, cases))
    reports.append(check("kernel-match", pairing.name, trunc, [kernel_match_case(ctx)]))
    return reports


# X+ and Y+ start at u^1: a window closed in u holds none of them
_RAISING = Requirement("max_u_degree", 1, "the raising operators need max_u_degree >= 1")
# t[0,a] becomes q[1,a] at u = 0: the raised and substituted inputs start there
_INPUTS = Requirement("max_var_index", 1, "the inputs need max_var_index >= 1")
_BRACKETS = Requirement("max_var_index", 2, "bracket check needs max_var_index >= 2")
# at t-degree 0 every input is cut to a constant: no case holds a variable
_VARIABLES = Requirement("max_t_degree", 1, "the inputs need max_t_degree >= 1")
# each suite and the window it is exact in; run_suite leaves it out of any other
_SUITES: dict[str, tuple[Callable[[Context, int], list[Report]], tuple]] = {
    "constants": (_constants_suite, ()),
    "w-factorization": (_w_factorization_suite, ()),
    "hat-t": (_hat_t_suite, (HAT_T_WINDOW,)),
    "brackets": (_brackets_suite, (_BRACKETS,)),
    "virasoro-split": (_virasoro_split_suite, (_RAISING,)),
    "ex-closed-form": (_ex_closed_form_suite, (_RAISING, _INPUTS, _VARIABLES)),
    "bridge": (_bridge_suite, (_RAISING, _INPUTS, _VARIABLES)),
    "theorem": (_theorem_suite, (_RAISING, _INPUTS, _VARIABLES)),
}
ALL_SUITES = tuple(_SUITES)


@dataclasses.dataclass
class VerificationConfig:
    """Window budgets, pairing, seed, and the suites to run."""

    pairing_spec: str = "point"
    max_t_degree: int = 3
    max_var_index: int = 8
    max_u_degree: int = 6
    max_hbar_degree: int = 2
    max_omega_weight: int = 4
    seed: int = 0
    suites: tuple[str, ...] = ALL_SUITES

    def truncation(self) -> Truncation:
        window = dataclasses.fields(Truncation)
        return Truncation(**{f.name: getattr(self, f.name) for f in window})


def run_suite(config: VerificationConfig) -> list[Report]:
    """Run the selected suites; the configuration is judged before any runs.

    A suite whose window misses one of its requirements is left out; the run
    is rejected with the first one's reason when every selected suite is.
    """
    pairing = pairing_from_spec(config.pairing_spec)
    unknown = set(config.suites) - set(ALL_SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    repeated = {s for s in config.suites if config.suites.count(s) > 1}
    if repeated:
        raise ValueError(f"repeated suites: {sorted(repeated)}")
    trunc = config.truncation()
    unmet = {s: [r for r in _SUITES[s][1] if not r.holds(trunc)] for s in config.suites}
    admitted = [s for s in config.suites if not unmet[s]]
    if config.suites and not admitted:
        raise ValueError(unmet[config.suites[0]][0].reason)
    ctx = Context(pairing, trunc)
    reports: list[Report] = []
    for suite in admitted:
        reports.extend(_SUITES[suite][0](ctx, config.seed))
    return reports

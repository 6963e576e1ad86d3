"""Acceptance suite: every criterion at its stated window, zero tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s); all arithmetic
is exact, so "pass" always means coefficientwise identity.
"""

import random
import time
from fractions import Fraction

from test_hodge import formal_factorization_cases

from hodgeflow.hodge import build_p, build_w_u, hat_t_cases, w_omega_parts
from hodgeflow.operators import check
from hodgeflow.pairing import hyperbolic2_pairing, point_pairing
from hodgeflow.pipeline import (
    Context,
    kernel_match_case,
    log_true_coefficient,
    verify_hodge_to_gw,
    verify_substitution_bridge,
)
from hodgeflow.series import (
    Monomial,
    PARAM_U,
    Series,
    Truncation,
    omega_param,
    random_series,
    t_var,
)
from hodgeflow.special import (
    c_const,
    flow_expansion,
    omega_bernoulli,
    q_u,
    r_poly,
    rhs_target,
    solve_a_coeffs,
)
from hodgeflow.virasoro import (
    bracket_cases,
    build_virasoro,
    raised_odd_case,
    split_cases,
)
from hodgeflow.witten import default_hbar_offset, intersection, z_point

PT = point_pairing()
H2 = hyperbolic2_pairing()


def _report(name: str, ok: bool, started: float) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name} ({time.time() - started:.2f}s)")
    assert ok, name


def test_criterion_01_flow_constants():
    started = time.time()
    a = solve_a_coeffs(11)
    ok = (
        a[0] == Fraction(2, 3)
        and a[1] == Fraction(-1, 12)
        and a[2] == Fraction(7, 540)
        and flow_expansion(a, 11) == rhs_target(11)  # round trip through z^{-10}
    )
    # C_0..C_3 against direct exponentiation of the even-Bernoulli tail
    oracle = [Fraction(1)]
    arg = {2 * l - 1: -omega_bernoulli(l) for l in (1, 2)}
    for n in range(1, 4):
        # exp by derivative recurrence: n c_n = sum_k k arg_k c_{n-k}
        c_n = sum(
            Fraction(k) * arg.get(k, Fraction(0)) * oracle[n - k]
            for k in range(1, n + 1)
        ) / n
        oracle.append(c_n)
    ok = ok and [c_const(i) for i in range(4)] == oracle
    _report("criterion 1: flow constants a_m and C_i", ok, started)


def test_criterion_02_alternating_c_identity():
    started = time.time()
    ok = all(
        sum(
            Fraction((-1) ** (n - i)) * c_const(i) * c_const(n - i)
            for i in range(n + 1)
        )
        == 0
        for n in range(1, 11)
    )
    _report("criterion 2: alternating C convolution vanishes (n <= 10)", ok, started)


def test_criterion_03_virasoro_brackets():
    started = time.time()
    trunc = Truncation(3, 12, 6, 2, 0)
    ok = True
    for pairing in (PT, H2):
        for m in range(1, 7):
            for n in range(1, 7):
                cases = bracket_cases(m, n, pairing, trunc)
                report = check(f"bracket({m},{n})", pairing.name, trunc, cases)
                ok = ok and report.passed
    _report("criterion 3: bracket relation, m,n <= 6, both pairings", ok, started)


def test_criterion_04_flow_factorization():
    started = time.time()
    trunc = Truncation(3, 8, 6, 2, 4)
    ok = True
    for p in (PT, H2):
        cases = formal_factorization_cases(p, trunc)
        ok = ok and check("w-factorization", p.name, trunc, cases).passed
    _report("criterion 4: flow factorization on the full basis", ok, started)


def test_criterion_05_hat_t():
    started = time.time()
    trunc = Truncation(3, 8, 0, 0, 8)
    ok = True
    for p in (PT, H2):
        cases = hat_t_cases(w_omega_parts(p, trunc), build_p(trunc), p, trunc, 8)
        ok = ok and check("hat-t", p.name, trunc, cases).passed
    _report("criterion 5: shifted coordinates, n <= 8", ok, started)


def test_criterion_06_kernel_scaling_and_constants():
    started = time.time()
    # q_u cross-checks the u-rescaled kernel internally; request it deep
    ok = not q_u(Truncation(0, 0, 10, 0, 0)).is_zero()
    trunc = Truncation(0, 0, 16, 0, 8)
    for i in range(9):
        inst = r_poly(i, trunc).substitute(
            {
                omega_param(l): Series.of_monomial(
                    trunc,
                    Monomial.build((), {PARAM_U: 2 * (2 * l - 1)}),
                    omega_bernoulli(l),
                )
                for l in range(1, i + 1)
            }
        )
        want = Series.of_monomial(
            trunc, Monomial.build((), {PARAM_U: 2 * i} if i else {}), c_const(i)
        )
        ok = ok and inst == want
    _report("criterion 6: kernel u-scaling and u^{2i} C_i identity", ok, started)


def test_criterion_07_virasoro_split():
    started = time.time()
    trunc = Truncation(3, 8, 6, 2, 0)
    ok = True
    for pairing in (PT, H2):
        bundle = build_virasoro(pairing, trunc)
        report = check("virasoro-split", pairing.name, trunc, split_cases(bundle))
        ok = ok and report.passed
    _report("criterion 7: weighted-sum split and odd-tower recoloring", ok, started)


def test_criterion_08_raised_odd_variables():
    started = time.time()
    trunc = Truncation(1, 11, 10, 0, 0)
    ok = True
    for pairing in (PT, H2):
        bundle = build_virasoro(pairing, trunc)
        for n in range(0, 6):
            for a in pairing.colors():
                case = raised_odd_case(n, a, bundle)
                identity = f"ex-closed-form(n={n},a={a})"
                ok = ok and check(identity, pairing.name, trunc, [case]).passed
    _report("criterion 8: closed raise formula, n <= 5, u <= 10", ok, started)


def test_criterion_09_bridge():
    started = time.time()
    r_pt = verify_substitution_bridge(
        PT, Truncation(2, 13, 14, 0, 0), n_max=6, seed=7, random_count=10
    )
    r_h2 = verify_substitution_bridge(
        H2, Truncation(2, 13, 14, 0, 0), n_max=6, seed=11, random_count=4
    )
    _report("criterion 9: substitution bridge, n <= 6 + random", r_pt.passed and r_h2.passed, started)


def test_criterion_10_main_identity():
    started = time.time()
    # (a) geometric input from the recursion oracle
    trunc = Truncation(4, 15, 6, 2, 0)
    z_trunc = trunc.replace(max_var_index=7)
    offset = default_hbar_offset(z_trunc)
    z = z_point(z_trunc, genus_max=2, offset=offset).truncated(trunc)
    ok = verify_hodge_to_gw(z, PT, label="theorem[point]").passed
    flowed = build_w_u(PT, trunc).exp_apply(z)
    ok = ok and log_true_coefficient(
        flowed, offset, Monomial.build({t_var(0): 1}, {PARAM_U: 2})
    ) == Fraction(-1, 24)
    case = kernel_match_case(Context(PT, trunc))
    ok = ok and check("kernel-match", PT.name, trunc, [case]).passed
    # (b) ten seeded random inputs over the rank-2 pairing
    trunc2 = Truncation(3, 7, 4, 2, 0)
    pool = [t_var(i, a) for i in range(4) for a in range(2)]
    for i in range(10):
        z_rand = random_series(1000 + i, trunc2, 8, variables=pool, max_hbar=2)
        ok = ok and verify_hodge_to_gw(z_rand, H2).passed
    case = kernel_match_case(Context(H2, trunc2))
    ok = ok and check("kernel-match", H2.name, trunc2, [case]).passed
    _report("criterion 10: end-to-end identity, geometric + random", ok, started)


def test_criterion_11_oracle_self_consistency():
    started = time.time()
    rng = random.Random(31)
    ok = intersection(1, (1,)) == Fraction(1, 24)
    checked = 0
    while checked < 50:
        g = rng.randint(0, 3)
        n = rng.randint(1, 5)
        total = 3 * g - 3 + n
        if total < 0 or 2 * g - 2 + n <= 0:
            continue
        ks = [0] * n
        for _ in range(total):
            ks[rng.randrange(n)] += 1
        key = tuple(ks)
        lhs_string = intersection(g, key + (0,))
        rhs_string = sum(
            intersection(g, key[:j] + (key[j] - 1,) + key[j + 1 :])
            for j in range(n)
            if key[j] >= 1
        )
        lhs_dilaton = intersection(g, key + (1,))
        ok = (
            ok
            and lhs_string == rhs_string
            and lhs_dilaton == (2 * g - 2 + n) * intersection(g, key)
        )
        checked += 1
    _report("criterion 11: oracle string/dilaton equations, 50 keys", ok, started)

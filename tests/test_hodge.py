"""Flow generators, their factorization, and the coordinate-shift machinery."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeflow import pipeline
from hodgeflow.hodge import (
    build_d,
    build_p,
    build_p_u,
    build_shift_u,
    build_w_omega,
    build_w_u,
    factorization_cases,
    hat_t,
    hat_t_cases,
    instantiate_omega,
    theta_map,
    t_variables,
    w_omega_parts,
)
from hodgeflow.operators import Operator, check, exp_basis_cases
from hodgeflow.pairing import hyperbolic2_pairing, point_pairing
from hodgeflow.pipeline import VerificationConfig, run_suite
from hodgeflow.report import Mismatch
from hodgeflow.series import (
    Monomial,
    PARAM_HBAR,
    PARAM_U,
    PARAM_X,
    PARAM_Y,
    Series,
    Truncation,
    omega_param,
    random_series,
    t_var,
)
from hodgeflow.special import (
    omega_bernoulli,
    q_omega,
    q_u,
    r_poly,
    single_lambda_rule,
    solve_a_coeffs,
)
from hodgeflow.virasoro import build_x, build_y, delta_map, u_weighted

PT = point_pairing()
H2 = hyperbolic2_pairing()
TR = Truncation(3, 8, 6, 2, 4)


def test_build_d_point_structure():
    d1 = build_d(1, PT, TR)
    # contains d/dt2, -t_i d/dt_{i+1}, (hbar/2) d^2/dt0^2
    assert d1.atoms[((), (), ((t_var(2), 1),))] == 1
    assert d1.atoms[((), ((t_var(0), 1),), ((t_var(1), 1),))] == -1
    key_hbar = (((PARAM_HBAR, 1),), (), ((t_var(0), 2),))
    assert d1.atoms[key_hbar] == Fraction(1, 2)


def test_build_d_hyperbolic_second_order():
    d1 = build_d(1, H2, TR)
    key = (((PARAM_HBAR, 1),), (), ((t_var(0, 0), 1), (t_var(0, 1), 1)))
    assert d1.atoms[key] == 1  # both orderings of the off-diagonal pairing add up


def test_build_d_alternating_signs():
    d2 = build_d(2, PT, TR)
    for i in range(3):
        j = 2 - i
        if i == j:
            key = (((PARAM_HBAR, 1),), (), ((t_var(i), 2),))
        else:
            key = (((PARAM_HBAR, 1),), (), tuple(sorted(((t_var(i), 1), (t_var(j), 1)))))
        got = d2.atoms[key]
        if i == 1:
            assert got == Fraction(-1, 2)  # single diagonal term, sign (-1)^1
        else:
            assert got == 1  # (0,2) and (2,0) accumulate into one atom


def test_w_parts_sum_to_w_omega():
    for pairing in (PT, H2):
        assert w_omega_parts(pairing, TR).total() == build_w_omega(pairing, TR)


def test_shift_part_weight_one():
    parts = w_omega_parts(PT, Truncation(3, 4, 6, 2, 1))
    want = Operator.zero()
    for i in range(4):
        want = want.add(
            Operator.atom(
                -1, params={omega_param(1): 1}, mult=[t_var(i)], deriv=[t_var(i + 1)]
            )
        )
    assert parts.shift == want


def test_derivative_part_structure():
    parts = w_omega_parts(PT, TR)
    want = Operator.atom(1, params={omega_param(1): 1}, deriv=[t_var(2)]).add(
        Operator.atom(1, params={omega_param(2): 1}, deriv=[t_var(4)])
    )
    assert parts.derivative == want


def test_omega_vanishes_with_zero_weight_window():
    empty = w_omega_parts(PT, Truncation(3, 8, 6, 2, 0))
    assert empty.total().is_zero()


def test_instantiate_single_coupling():
    tr = Truncation(0, 0, 8, 0, 4)
    w1 = Series.of_param(tr, omega_param(1))
    assert w1.substitute(single_lambda_rule(tr)) == Series.of_monomial(
        tr, Monomial.build((), {PARAM_U: 2}), Fraction(-1, 12)
    )


def test_build_w_u_matches_instantiated_w_omega():
    for pairing in (PT, H2):
        wide = TR.replace(max_omega_weight=TR.max_u_degree // 2)
        via_inst = instantiate_omega(build_w_omega(pairing, wide), wide)
        assert build_w_u(pairing, TR) == via_inst.truncate(TR)


def test_theta_point_and_colored():
    tr = TR
    x0y0 = Series.of_monomial(tr, Monomial.build((), {PARAM_X: 0, PARAM_Y: 0}))
    assert theta_map(x0y0, PT, tr) == Operator.atom(1, deriv=[t_var(0), t_var(0)])
    x1y2 = Series.of_monomial(tr, Monomial.build((), {PARAM_X: 1, PARAM_Y: 2}))
    got = theta_map(x1y2, H2, tr)
    want = Operator.atom(1, deriv=[t_var(1, 0), t_var(2, 1)]).add(
        Operator.atom(1, deriv=[t_var(1, 1), t_var(2, 0)])
    )
    assert got == want


def test_theta_of_u_kernel_matches_instantiated_kernel():
    for pairing in (PT, H2):
        wide = TR.replace(max_omega_weight=TR.max_u_degree // 2)
        via_inst = instantiate_omega(theta_map(q_omega(wide), pairing, wide), wide)
        assert theta_map(q_u(TR), pairing, TR) == via_inst.truncate(TR)


def test_build_p_weight_one():
    p = build_p(Truncation(3, 8, 6, 2, 1))
    assert p == Operator.atom(1, params={omega_param(1): 1}, deriv=[t_var(2)])


def test_p_exponential_shifts_only_deep_zero_color():
    p = build_p(TR)
    t2 = Series.of_var(TR, t_var(2, 0))
    assert p.exp_apply(t2) == t2.sub(r_poly(1, TR))
    t1 = Series.of_var(TR, t_var(1, 0))
    assert p.exp_apply(t1) == t1
    t2c = Series.of_var(TR, t_var(2, 1))
    assert build_p(TR).exp_apply(t2c) == t2c  # only color 0 shifts


def test_ad_tower_closed_form():
    tr = Truncation(3, 12, 6, 2, 6)
    parts = w_omega_parts(PT, tr)
    tower = parts.derivative
    for n in range(1, 4):
        if n > 1:
            tower = parts.shift.commutator(tower)
        closed = Operator.zero()
        for ls in _ordered_tuples(n, tr.max_omega_weight):
            target = 1 + sum(2 * l - 1 for l in ls)
            if target > tr.max_var_index:
                continue
            params: dict = {}
            for l in ls:
                p = omega_param(l)
                params[p] = params.get(p, 0) + 1
            closed = closed.add(Operator.atom(1, params=params, deriv=[t_var(target)]))
        assert tower.truncate(tr) == closed, n


def _ordered_tuples(n: int, max_weight: int):
    if n == 0:
        yield []
        return
    for l in range(1, (max_weight + 1) // 2 + 1):
        w = 2 * l - 1
        for rest in _ordered_tuples(n - 1, max_weight - w):
            yield [l] + rest


def formal_factorization_cases(pairing, trunc):
    """factorization_cases at the formal couplings w[l], as the suite builds them."""
    parts = w_omega_parts(pairing, trunc)
    kernel = theta_map(q_omega(trunc), pairing, trunc)
    p_shift = build_p(trunc)
    return factorization_cases(
        pairing, trunc, parts.total(), parts.shift, kernel, p_shift
    )


def test_w_factorization_small_windows():
    # the suite checks the coupled factorization and its single-lambda instance
    cfg = VerificationConfig("point", 2, 5, 4, 2, 3, suites=("w-factorization",))
    reports = run_suite(cfg)
    assert [r.identity for r in reports] == ["w-factorization", "w-factorization[from_u]"]
    assert all(r.passed for r in reports)
    tr = Truncation(2, 4, 4, 2, 3)
    cases = formal_factorization_cases(H2, tr)
    assert check("w-factorization", H2.name, tr, cases).passed


def test_w_factorization_fails_when_only_the_q_p_order_holds():
    # [q, p] = -hbar u t[2] d/dt[0] is central, so exp(q) exp(p) is
    # exp(q + p + [q, p]/2) = exp(whole) and exp(p) exp(q) is not
    trunc = Truncation(3, 3, 3, 3, 0)
    kernel = Operator.atom(2, mult=[t_var(1)], deriv=[t_var(0)])
    p = Operator.atom(1, params={PARAM_U: 1}, mult=[t_var(2)], deriv=[t_var(1)])
    q_half = kernel.scale(Fraction(1, 2), {PARAM_HBAR: 1})
    whole = q_half.add(p).add(
        Operator.atom(
            Fraction(-1, 2), params={PARAM_HBAR: 1, PARAM_U: 1}, mult=[t_var(2)], deriv=[t_var(0)]
        )
    )
    both = factorization_cases(PT, trunc, whole, Operator.zero(), kernel, p)
    report = check("w-factorization", PT.name, trunc, both)
    assert not report.passed
    assert report.cases == 35
    assert report.mismatches[0] == Mismatch("p.q order . t[0,0] at hbar * u * t[2,0]", "0", "1")
    variables = t_variables(PT, trunc)
    q_p = exp_basis_cases(whole, [("q.p order", [q_half, p])], trunc, variables, 3)
    alone = check("w-factorization", PT.name, trunc, q_p)
    assert alone.passed and alone.cases == 35


def test_zassenhaus_tail_of_derivative_part_is_coordinate_shift():
    from hodgeflow.operators import zassenhaus_tail

    for pairing in (PT, H2):
        tr = Truncation(3, 9, 6, 2, 6)
        parts = w_omega_parts(pairing, tr)
        assert zassenhaus_tail(parts.shift, parts.derivative, tr) == build_p(tr)


def test_zassenhaus_tail_of_contraction_part_is_quantized_kernel():
    from hodgeflow.operators import zassenhaus_tail

    for pairing in (PT, H2):
        tr = Truncation(3, 8, 6, 2, 5)
        parts = w_omega_parts(pairing, tr)
        tail = zassenhaus_tail(parts.shift, parts.contraction, tr)
        assert tail == theta_map(q_omega(tr), pairing, tr)


def test_zassenhaus_factorization_accepts_flow_parts():
    from test_operators import verify_zassenhaus_factorization

    tr = Truncation(2, 5, 4, 2, 3)
    parts = w_omega_parts(PT, tr)
    r = verify_zassenhaus_factorization(
        parts.shift, parts.derivative, tr, t_variables(PT, tr), pairing="point"
    )
    assert r.passed
    r2 = verify_zassenhaus_factorization(
        parts.shift, parts.contraction, tr, t_variables(PT, tr), pairing="point"
    )
    assert r2.passed


def test_exp_shift_on_single_coordinate_is_r_convolution():
    tr = Truncation(3, 8, 6, 2, 4)
    parts = w_omega_parts(PT, tr)
    got = parts.shift.exp_apply(Series.of_var(tr, t_var(3)))
    want = Series.zero(tr)
    for i in range(0, 4):
        want = want.add(
            r_poly(i, tr).mul_monomial(Monomial.build({t_var(3 - i): 1}))
        )
    assert got == want


def test_quantized_conjugation_equals_coordinate_substitution():
    # applying the two coordinate-change exponentials equals substituting the
    # shifted coordinates after the kernel exponential
    tr = Truncation(2, 5, 4, 2, 3)
    parts = w_omega_parts(PT, tr)
    p_shift = build_p(tr)
    kernel = theta_map(q_omega(tr), PT, tr).scale(Fraction(1, 2), {PARAM_HBAR: 1})
    rule = {t_var(n): hat_t(n, 0, tr) for n in range(tr.max_var_index + 1)}
    for seed in (2, 9):
        z = random_series(seed, tr, 6, variables=t_variables(PT, tr), max_hbar=1)
        inner = kernel.exp_apply(z)
        lhs = parts.shift.exp_apply(p_shift.exp_apply(inner))
        assert lhs == inner.substitute(rule)


def test_hat_t_examples():
    assert hat_t(0, 1, TR) == Series.of_var(TR, t_var(0, 1))
    want1 = Series.of_var(TR, t_var(1, 1)).add(
        r_poly(1, TR).mul_monomial(Monomial.build({t_var(0, 1): 1}))
    )
    assert hat_t(1, 1, TR) == want1
    got = hat_t(2, 0, TR)
    want2 = (
        Series.of_var(TR, t_var(2, 0))
        .add(r_poly(1, TR).mul_monomial(Monomial.build({t_var(1, 0): 1})))
        .add(r_poly(2, TR).mul_monomial(Monomial.build({t_var(0, 0): 1})))
        .sub(r_poly(1, TR))
    )
    assert got == want2


def test_hat_t_suite():
    tr = Truncation(2, 6, 0, 0, 6)
    cases = hat_t_cases(w_omega_parts(H2, tr), build_p(tr), H2, tr, 6)
    r = check("hat-t", H2.name, tr, cases)
    assert r.passed
    # past the index window t[7,a] is cut but hat_t(7, a) keeps R_i t[7-i,a]
    with pytest.raises(ValueError, match="max_var_index >= n_max"):
        list(hat_t_cases(w_omega_parts(H2, tr), build_p(tr), H2, tr, 7))


@settings(max_examples=20, deadline=None)
@given(
    pairing=st.sampled_from([PT, H2]),
    weight=st.integers(1, 4),
    data=st.data(),
)
def test_hat_t_holds_and_can_fail_at_weight_windows_below_n_max(pairing, weight, data):
    # w-weight only adds up, so a coupling-weight window below n_max cuts both
    # sides alike; doubling p's first atom, w[1] d/dt[2,0], shows at t[2,0]
    n_max = data.draw(st.integers(weight + 1, 6))
    tr = Truncation(2, 6, 0, 0, weight)
    parts, p_shift = w_omega_parts(pairing, tr), build_p(tr)
    cases = hat_t_cases(parts, p_shift, pairing, tr, n_max)
    assert check("hat-t", pairing.name, tr, cases).passed
    key, c = p_shift.sorted_atoms()[0]
    doubled = p_shift.add(Operator({key: c}))
    cases = hat_t_cases(parts, doubled, pairing, tr, n_max)
    assert not check("hat-t", pairing.name, tr, cases).passed


def test_flow_at_u_zero_is_identity():
    tr = Truncation(3, 6, 0, 2, 0)
    z = random_series(4, tr, 6, max_hbar=2)
    assert build_w_u(PT, tr).exp_apply(z) == z


def test_d_on_t_free_series_keeps_only_derivative_parts():
    tr = TR
    const = Series.constant(tr, 5)
    assert build_d(1, PT, tr).apply(const).is_zero()
    u2 = Series.of_monomial(tr, Monomial.build((), {PARAM_U: 2}))
    assert build_d(2, PT, tr).apply(u2).is_zero()


def test_shift_u_and_p_u_windows_follow_u_budget():
    tr = Truncation(3, 8, 6, 2, 0)  # no coupling window at all
    assert not build_shift_u(PT, tr).is_zero()
    assert not build_p_u(tr).is_zero()


def _builder_renders(pairing, trunc):
    """Each builder's operator at one pairing and window, its sorted atoms rendered."""
    a = solve_a_coeffs(trunc.max_u_degree)
    parts = w_omega_parts(pairing, trunc)
    ops = {f"build_d({l})": build_d(l, pairing, trunc) for l in (1, 2, 3, 4)}
    ops.update(
        shift=parts.shift,
        derivative=parts.derivative,
        contraction=parts.contraction,
        build_w_omega=build_w_omega(pairing, trunc),
        build_w_u=build_w_u(pairing, trunc),
        build_p=build_p(trunc),
        theta_q_u=theta_map(q_u(trunc), pairing, trunc),
        x_plus=u_weighted(build_x, a, pairing, trunc),
        y_plus=u_weighted(build_y, a, pairing, trunc),
        delta_y_plus=delta_map(u_weighted(build_y, a, PT, trunc), pairing),
    )
    ops.update({f"build_x({m})": build_x(m, pairing, trunc) for m in (1, 2, 3)})
    ops.update({f"build_y({m})": build_y(m, pairing, trunc) for m in (2, 3, 4, 9)})
    return {name: op.render() for name, op in ops.items()}


# the last window, with build_d(4) and build_y(9), cuts atoms at the index window
DIGEST_WINDOWS = (
    Truncation(3, 8, 6, 2, 4),
    Truncation(6, 15, 8, 3, 0),
    Truncation(2, 6, 4, 2, 0),
    Truncation(2, 5, 4, 1, 6),
)

# sha256 over the renders of each builder at point then hyperbolic2, each at
# DIGEST_WINDOWS in order; pinned from the builders before they were rewritten
# onto Operator.sum and the single D_l routine
BUILDER_DIGESTS = {
    "build_d(1)": "464bf7001f244ba6830c567b95e7a693c7e5d63eecec3ccab8636a5c1a0e6b35",
    "build_d(2)": "e7b69e82e370294e4428a276349a471f47833d08ab31ea23aecb2ff193a339e4",
    "build_d(3)": "cb6bad8e4776bc62b60226f309258a9ecbc8428bdd3a215b27bfcc6281847cdc",
    "build_d(4)": "56f70cfd31ed3d3fe80bd7bcc79088b49d4e77baa2afa425316686d53c574c0c",
    "shift": "20c2f6835fddafa8068b2cb0ea1823c017f0280d3916d450935731c2c7d414a2",
    "derivative": "34ae3b18986a15fd1579d19a48fe4c3d7eff19f2d4cb9e08a818f159e2851ce0",
    "contraction": "2666f0c9f5664f40b12433fc4719add3cb7b3e226a5a692c0a256afa98cb0a05",
    "build_w_omega": "8eac4c4cfc28b6ba85ddd0a85b41639536767b10c45d80c21bfb9068aa444f87",
    "build_w_u": "f84298ea89d488459f74d4eb3e2c50d5f919fcf305e55ccef88b269149d0e08b",
    "build_p": "458360f043c132e2078d6a670fd22d9898e116db50c4dd89aee7ecc53c3d0a4f",
    "theta_q_u": "4779a2059197d1156fa059cf0601751a5012eae35c4aff52b8c820a22454abed",
    "x_plus": "0d35012b307bba63ec56f569bc03e8210f49b64431219fd4871c365a556e4854",
    "y_plus": "bc53580f66bbf49d792510ccbec9c046bca616e32db1d27625ef76b0ecadd3ae",
    "delta_y_plus": "bc53580f66bbf49d792510ccbec9c046bca616e32db1d27625ef76b0ecadd3ae",
    "build_x(1)": "fca083c9c1c6029db0ab1feed1b077ad79893d8c22f67313f547f1eb77cb8f2f",
    "build_x(2)": "3864af6af860091752f9f1b4eb844d439bbb1b77f6aaa9d80e873151c1778b2c",
    "build_x(3)": "588cbef1dba8e5c9af77c2e76a8c74fa8d2a49a4a4c31c202431d34c61d12fc9",
    "build_y(2)": "32a5318e11d4cdb66b7126045bb3de832e922a1d3bf1c4429ccbc736a881bf47",
    "build_y(3)": "3c391b1b8f79a668409dd6210c064ef683e5cf8b634aa6b4bc300901a4cb304c",
    "build_y(4)": "96000165ba6e6983e9122c697a8978a451ed365e71722456ac68aa398e8bb9a2",
    "build_y(9)": "eaddbb5b82d7e3947db6958af65ebc5b916654d46014e5929f7d461ca5b6adf8",
}


def test_builder_atoms_are_pinned():
    digests = {}
    for pairing in (PT, H2):
        for trunc in DIGEST_WINDOWS:
            for name, text in _builder_renders(pairing, trunc).items():
                digests.setdefault(name, hashlib.sha256()).update(text.encode() + b"\n")
    assert {name: h.hexdigest() for name, h in digests.items()} == BUILDER_DIGESTS


def test_w_u_at_hbar_zero_is_the_exp_of_the_scaled_flow_generators():
    # an hbar-0 window drops the contraction atoms, which cannot act there, so
    # W_u is a derivation; its exp equals that of the full sum of scaled D_l
    trunc = Truncation(2, 13, 14, 0, 0)
    for pairing in (PT, H2):
        w_u = build_w_u(pairing, trunc)
        assert w_u.is_window_derivation(trunc)
        # l <= 4: D_l enters at u^{2(2l-1)}, which must fit u^14
        reference = Operator.sum(
            build_d(l, pairing, trunc).scale(
                omega_bernoulli(l), {PARAM_U: 2 * (2 * l - 1)}
            )
            for l in range(1, 5)
        )
        assert not reference.is_window_derivation(trunc)
        pool = t_variables(pairing, trunc.replace(max_var_index=4))
        for seed in (3, 11):
            z = random_series(seed, trunc, 6, variables=pool, max_u=2)
            assert w_u.exp_apply(z) == reference.exp_apply(z)


def test_hat_t_fails_on_a_doubled_coordinate_shift_atom(monkeypatch):
    build_p = pipeline.build_p

    def doubled(trunc):
        p = build_p(trunc)
        key, c = p.sorted_atoms()[0]
        return p.add(Operator({key: c}))

    monkeypatch.setattr(pipeline, "build_p", doubled)
    (report,) = run_suite(VerificationConfig(suites=("hat-t",)))
    assert not report.passed
    # exp(p) . t[2,0] = t[2,0] + w[1] before the doubling
    assert report.mismatches[0] == Mismatch("coordinate shift t[2,0] at w[1]", "2", "1")

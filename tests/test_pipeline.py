"""Change of variables, the bridge identity, the main identity, the runner."""

import collections
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeflow import hodge, operators, pipeline, special, virasoro

from hodgeflow.hodge import build_w_u
from hodgeflow.pairing import hyperbolic2_pairing, pairing_from_spec, point_pairing
from hodgeflow.pipeline import (
    ALL_SUITES,
    Context,
    VerificationConfig,
    change_vars,
    kernel_match_case,
    log_true_coefficient,
    run_suite,
    theta_recoloring_cases,
    to_q_world,
    u_zero_substitute,
    verify_hodge_to_gw,
    verify_substitution_bridge,
)
from hodgeflow.operators import Operator, OperatorClassError, check
from hodgeflow.report import Mismatch
from hodgeflow.series import (
    Monomial,
    PARAM_HBAR,
    PARAM_U,
    PARAM_X,
    PARAM_Y,
    Series,
    Truncation,
    TruncationError,
    q_var,
    random_series,
    t_var,
)
from hodgeflow.special import ZLaurent, c_const, flow_expansion
from hodgeflow.witten import default_hbar_offset, z_point

PT = point_pairing()
H2 = hyperbolic2_pairing()


def kernel_match_report(pairing, trunc):
    case = kernel_match_case(Context(pairing, trunc))
    return check("kernel-match", pairing.name, trunc, [case])


def test_u_zero_substitution_examples():
    tr = Truncation(3, 8, 6, 2, 0)
    s = Series.of_var(tr, t_var(0, 1))
    assert u_zero_substitute(s) == Series.of_var(tr, q_var(1, 1))
    s2 = Series.of_monomial(tr, Monomial.build({t_var(2): 1, t_var(0): 1}))
    want = Series.of_monomial(tr, Monomial.build({q_var(5): 1, q_var(1): 1}), 3)
    assert u_zero_substitute(s2) == want


def test_u_zero_substitution_overflow():
    tr = Truncation(3, 8, 6, 2, 0)
    with pytest.raises(TruncationError):
        u_zero_substitute(Series.of_var(tr, t_var(4)))


def test_change_vars_examples():
    tr = Truncation(3, 8, 6, 2, 0)
    assert change_vars(Series.of_var(tr, t_var(0))) == Series.of_var(
        tr, q_var(1)
    )
    got1 = change_vars(Series.of_var(tr, t_var(1)))
    assert got1.coefficient(Monomial.build({q_var(1): 1}, {PARAM_U: 2})) == 1
    assert got1.coefficient(Monomial.build({q_var(2): 1}, {PARAM_U: 1})) == 2
    assert got1.coefficient(Monomial.build({q_var(3): 1})) == 1
    got2 = change_vars(Series.of_var(tr, t_var(2)))
    assert got2.coefficient(Monomial.build((), {PARAM_U: 2})) == c_const(1)
    assert got2.coefficient(Monomial.build({q_var(5): 1})) == 3
    assert got2.coefficient(Monomial.build({q_var(3): 1}, {PARAM_U: 2})) == 12


def test_change_vars_constant_shift_sign_alternates():
    tr = Truncation(3, 11, 8, 2, 0)
    got3 = change_vars(Series.of_var(tr, t_var(3)))
    assert got3.coefficient(Monomial.build((), {PARAM_U: 4})) == -c_const(2)
    got4 = change_vars(Series.of_var(tr, t_var(4)))
    assert got4.coefficient(Monomial.build((), {PARAM_U: 6})) == c_const(3)


def test_change_vars_nonzero_color_has_no_shift():
    tr = Truncation(3, 8, 6, 2, 0)
    got = change_vars(Series.of_var(tr, t_var(2, 1)))
    assert got.coefficient(Monomial.build((), {PARAM_U: 2})) == 0


def test_full_plan_degenerates_to_u_zero():
    tr = Truncation(3, 9, 0, 2, 0)  # u window closed
    for n in range(0, 5):
        s = Series.of_var(tr, t_var(n))
        assert change_vars(s) == u_zero_substitute(s), n


def test_change_vars_is_multiplicative():
    # replacements for deep zero-color coordinates carry constants, so the
    # window must hold f*g whole for the homomorphism statement to be exact
    narrow = Truncation(3, 9, 6, 2, 0)
    tr = narrow.replace(max_t_degree=6)
    f = random_series(3, narrow, 5, variables=[t_var(i) for i in range(4)]).truncated(tr)
    g = random_series(44, narrow, 5, variables=[t_var(i) for i in range(4)]).truncated(tr)
    assert change_vars(f.mul(g)) == change_vars(f).mul(
        change_vars(g)
    )


def test_to_q_world_chain_rule():
    tr = Truncation(2, 8, 6, 2, 0)
    op = Operator.atom(1, deriv=[t_var(1, 0), t_var(2, 1)])
    got = to_q_world(op, tr)
    want = Operator.atom(
        Fraction(1, 3), deriv=[q_var(3, 0), q_var(5, 1)]
    )
    assert got == want
    with pytest.raises(OperatorClassError):
        to_q_world(Operator.atom(1, mult=[t_var(0)], deriv=[t_var(1)]), tr)


def test_substitution_bridge_small():
    r = verify_substitution_bridge(
        PT, Truncation(2, 9, 10, 0, 0), n_max=4, seed=1, random_count=3
    )
    assert r.passed
    r2 = verify_substitution_bridge(
        H2, Truncation(2, 7, 8, 0, 0), n_max=3, seed=2, random_count=3
    )
    assert r2.passed


def test_bridge_fails_on_perturbed_coordinate_shift(monkeypatch):
    # 7 coordinates x 2 colors plus 4 random inputs, all counted when it fails
    build_p_u = pipeline.build_p_u
    monkeypatch.setattr(pipeline, "build_p_u", lambda tr: build_p_u(tr).scale(3))
    r = verify_substitution_bridge(
        H2, Truncation(2, 13, 14, 0, 0), n_max=6, seed=0, random_count=4
    )
    assert not r.passed
    assert r.cases == 18
    assert len(r.mismatches) == 5
    assert r.mismatches[0] == Mismatch("bridge t[2,0] at u^2", "-1/6", "0")


def test_constants_fail_on_a_perturbed_c_const(monkeypatch):
    monkeypatch.setattr(
        pipeline, "c_const", lambda i: 2 * c_const(i) if i == 2 else c_const(i)
    )
    (report,) = run_suite(VerificationConfig(suites=("constants",)))
    assert not report.passed
    assert report.cases == 18
    assert report.mismatches[0] == Mismatch("C_2", "1/144", "1/288")


def test_constants_fail_on_a_flow_expansion_that_drops_a_term(monkeypatch):
    def dropped(a, order):
        terms = flow_expansion(a, order).terms
        return ZLaurent({e: c for e, c in terms.items() if e != -3})

    monkeypatch.setattr(pipeline, "flow_expansion", dropped)
    (report,) = run_suite(VerificationConfig(suites=("constants",)))
    assert not report.passed
    assert [m.monomial for m in report.mismatches] == ["flow round trip (order 10)"]


def test_ex_closed_form_fails_on_a_perturbed_c_const(monkeypatch):
    monkeypatch.setattr(
        virasoro, "c_const", lambda i: c_const(i) + 1 if i == 1 else c_const(i)
    )
    (report,) = run_suite(VerificationConfig(suites=("ex-closed-form",)))
    assert not report.passed
    assert report.cases == 4
    first = Mismatch("raise q[3,0] at u^2 * q[1,0]", "13/12", "25/12")
    assert report.mismatches[0] == first


def test_theorem_fails_on_a_perturbed_double_factorial(monkeypatch):
    # 3!! read as 4 breaks the u = 0 substitution t[2] -> 3!! q[5]; the log
    # coefficient is read before that crossing and still passes
    true = pipeline.odd_double_factorial
    monkeypatch.setattr(pipeline, "odd_double_factorial", lambda k: 4 if k == 2 else true(k))
    reports = {r.identity: r for r in run_suite(VerificationConfig(suites=("theorem",)))}
    failed = {name for name, r in reports.items() if not r.passed}
    assert failed == {"theorem[point-dvv]", "theorem[random x10]", "kernel-match"}
    assert reports["theorem[one-point genus-1 log coefficient]"].passed
    first = Mismatch("kernel at u^6 d/dq[1,0] d/dq[5,0]", "139/103680", "139/77760")
    assert reports["kernel-match"].mismatches[0] == first


def test_theta_recoloring_fails_on_a_one_color_theta_map(monkeypatch):
    def first_color_theta(b, pairing, trunc):
        """hodge.theta_map with both derivatives on the first color of each entry."""
        atoms = []
        for m, c in b.terms.items():
            rest = dict(m.params)
            i, j = rest.pop(PARAM_X, 0), rest.pop(PARAM_Y, 0)
            if max(i, j) <= trunc.max_var_index:
                atoms += (
                    Operator.atom(c * v, params=rest, deriv=[t_var(i, mu), t_var(j, mu)])
                    for mu, _, v in pairing.inverse_entries()
                )
        return Operator.sum(atoms)

    monkeypatch.setattr(pipeline, "theta_map", first_color_theta)
    tr = VerificationConfig().truncation()
    r = check("theta-recoloring", H2.name, tr, theta_recoloring_cases(H2, tr))
    assert not r.passed
    assert r.cases == 16
    assert len(r.mismatches) == 5
    assert r.mismatches[0] == Mismatch("x^0 y^0 at d/dq[1,0] d/dq[1,1]", "0", "2")


def test_kernel_match_both_pairings():
    for pairing in (PT, H2):
        assert kernel_match_report(pairing, Truncation(1, 8, 6, 0, 0)).passed


@pytest.mark.parametrize(
    "pairing, color", [(PT, 0), (H2, 1)], ids=["point", "hyperbolic2"]
)
def test_kernel_match_fails_on_perturbed_odd_tower(pairing, color):
    tr = Truncation(1, 8, 6, 0, 0)
    ctx = Context(pairing, tr)
    bump = Operator.atom(1, params={PARAM_U: 4}, deriv=[q_var(1, color), q_var(3, 0)])
    ctx.q_plus_odd = ctx.q_plus_odd.add(bump)
    r = check("kernel-match", pairing.name, tr, [kernel_match_case(ctx)])
    assert not r.passed
    name = f"kernel at u^4 d/dq[1,{color}] d/dq[3,0]"
    assert r.mismatches == [Mismatch(name, "-1/144", "143/144")]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    degree=st.integers(1, 3),
    u=st.integers(0, 6),
    more_degree=st.integers(0, 2),
    more_u=st.integers(0, 3),
    pairing=st.sampled_from([PT, H2]),
)
def test_change_vars_window_consistency(seed, degree, u, more_degree, more_u, pairing):
    # the input lies in the narrow window: the constant shifts lower t-degree
    narrow = Truncation(degree, 7, u, 1, 0)
    wide = narrow.replace(max_t_degree=degree + more_degree, max_u_degree=u + more_u)
    pool = [t_var(i, a) for i in range(4) for a in pairing.colors()]
    g = random_series(seed, narrow, 5, variables=pool, max_hbar=1, max_u=min(u, 2))
    got = change_vars(g.truncated(wide))
    want = change_vars(g)
    assert got.truncated(narrow) == want


def test_bridge_closed_form_for_deep_coordinate():
    # both sides of the bridge on t[2,0] equal sum_i C_i u^{2i} phi~_{2-i}
    from hodgeflow.hodge import build_p_u, build_shift_u
    from hodgeflow.special import phi_tilde

    tr = Truncation(1, 9, 6, 0, 0)
    g = Series.of_var(tr, t_var(2))
    lhs = change_vars(build_shift_u(PT, tr).exp_apply(build_p_u(tr).exp_apply(g)))
    want = Series.zero(tr)
    for i in range(0, 3):
        piece = phi_tilde(2 - i, 0, tr)
        if i:
            piece = piece.mul_monomial(Monomial.build((), {PARAM_U: 2 * i}), c_const(i))
        else:
            piece = piece.scale(c_const(0))
        want = want.add(piece)
    assert lhs == want


def test_theta_recoloring():
    tr = Truncation(1, 9, 0, 0, 0)
    assert check("theta-recoloring", H2.name, tr, theta_recoloring_cases(H2, tr)).passed


def test_main_identity_trivial_input():
    tr = Truncation(2, 7, 4, 2, 0)
    assert verify_hodge_to_gw(Series.one(tr), PT, label="z=1").passed


def test_main_identity_single_variable_inputs():
    tr = Truncation(2, 9, 4, 2, 0)
    for n in (0, 1, 2):
        z = Series.of_var(tr, t_var(n))
        assert verify_hodge_to_gw(z, PT).passed, n


def test_main_identity_random_inputs():
    tr = Truncation(3, 7, 4, 2, 0)
    pool = [t_var(i, a) for i in range(4) for a in range(2)]
    for seed in range(3):
        z = random_series(seed + 200, tr, 6, variables=pool, max_hbar=2)
        assert verify_hodge_to_gw(z, H2).passed, seed


def test_main_identity_rejects_narrow_window():
    tr = Truncation(2, 7, 4, 2, 0)
    with pytest.raises(ValueError):
        verify_hodge_to_gw(Series.of_var(tr, t_var(5)), PT)


def test_point_case_log_coefficient():
    trunc = Truncation(4, 15, 6, 2, 0)
    z_trunc = trunc.replace(max_var_index=7)
    offset = default_hbar_offset(z_trunc)
    z = z_point(z_trunc, genus_max=2, offset=offset).truncated(trunc)
    flowed = build_w_u(PT, trunc).exp_apply(z)
    got = log_true_coefficient(
        flowed, offset, Monomial.build({t_var(0): 1}, {PARAM_U: 2})
    )
    assert got == Fraction(-1, 24)


def test_genus_two_single_lambda_value_from_flow():
    # the flow's log reproduces the classical genus-2 one-lambda integral 1/480
    trunc = Truncation(4, 15, 6, 3, 0)
    z_trunc = trunc.replace(max_var_index=7)
    offset = default_hbar_offset(z_trunc)
    z = z_point(z_trunc, genus_max=3, offset=offset).truncated(trunc)
    flowed = build_w_u(PT, trunc).exp_apply(z)
    got = log_true_coefficient(
        flowed, offset, Monomial.build({t_var(3): 1}, {PARAM_U: 2, PARAM_HBAR: 1})
    )
    assert got == Fraction(-1, 480)


def test_log_coefficient_recovers_plain_potential():
    # with no flow applied, the log gives back the genus potentials
    tr = Truncation(4, 7, 0, 2, 0)
    offset = default_hbar_offset(tr)
    z = z_point(tr, genus_max=2, offset=offset)
    got = log_true_coefficient(z, offset, Monomial.build({t_var(1): 1}))
    assert got == Fraction(1, 24)
    got0 = log_true_coefficient(z, offset, Monomial.build({t_var(0): 3, t_var(1): 1}))
    assert got0 == 0  # true hbar^0 has no such connected term


def _log_coefficient_full_power_loop(stored, offset, target):
    """log_true_coefficient with the powers of every stored term (the reference)."""
    trunc0 = stored.trunc
    k_max = trunc0.max_t_degree
    target_h = target.grade()[2]
    big = trunc0.replace(
        max_hbar_degree=trunc0.max_hbar_degree + k_max * max(offset, 1) + target_h
    )
    x = stored.truncated(big).sub(
        Series.of_monomial(big, Monomial.build((), {PARAM_HBAR: offset} if offset else ()))
    )
    base_params = [(p, e) for p, e in target.params if p.kind != "hbar"]
    total = Fraction(0)
    power = Series.one(big)
    for k in range(1, k_max + 1):
        power = power.mul(x)
        if power.is_zero():
            break
        h = target_h + k * offset
        probe = Monomial.build(
            dict(target.vars), dict(base_params) | ({PARAM_HBAR: h} if h else {})
        )
        total += Fraction((-1) ** (k + 1), k) * power.coefficient(probe)
    return total


def _log_monomial(exps):
    # t[0], t[1], hbar, u
    e0, e1, h, u = exps
    return Monomial.build({t_var(0): e0, t_var(1): e1}, {PARAM_HBAR: h, PARAM_U: u})


@settings(max_examples=150, deadline=None)
@given(
    trunc=st.builds(
        Truncation,
        st.integers(2, 5),
        st.integers(0, 1),
        st.integers(0, 2),
        st.integers(1, 4),
        st.just(0),
    ),
    terms=st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, 1)] * 2, st.integers(0, 2), st.integers(0, 1)),
            st.integers(-3, 3).filter(bool),
        ),
        min_size=1,
        max_size=12,
    ),
    offset=st.integers(0, 2),
    with_unit=st.booleans(),
    picks=st.lists(st.integers(0, 11), max_size=3),
    drawn=st.tuples(*[st.integers(0, 3)] * 2, st.integers(0, 6), st.integers(0, 3)),
)
def test_log_coefficient_matches_the_full_power_loop(
    trunc, terms, offset, with_unit, picks, drawn
):
    stored = Series(trunc, [(_log_monomial(e), Fraction(c)) for e, c in terms])
    if with_unit:
        stored = stored.add(Series.of_param(trunc, PARAM_HBAR, offset))
    if picks:
        # a product of stored monomials read at its true hbar exponent, so
        # the power loop has something to find; else the drawn target, which
        # may leave the window in any grade
        exps = [sum(terms[i % len(terms)][0][j] for i in picks) for j in range(4)]
        exps[2] = max(exps[2] - len(picks) * offset, 0)
        drawn = tuple(exps)
    target = _log_monomial(drawn)
    want = _log_coefficient_full_power_loop(stored, offset, target)
    assert log_true_coefficient(stored, offset, target) == want


def test_log_coefficient_check_only_where_it_can_hold():
    # the theorem suite rejects the window or reports no FAIL; the log check
    # is emitted exactly where its window precondition holds
    emitted = set()
    for t, index, u, hbar in itertools.product((1, 2, 3), (3, 5), (1, 2, 4), (0, 1)):
        cfg = VerificationConfig("point", t, index, u, hbar, 2, suites=("theorem",))
        try:
            reports = run_suite(cfg)
        except ValueError:
            continue
        assert all(r.passed for r in reports), [r.summary_line() for r in reports]
        if any(r.identity.endswith("log coefficient]") for r in reports):
            emitted.add((t, index, u, hbar))
    assert emitted == {(3, 5, 2, 1), (3, 5, 4, 1)}


def test_run_suite_smoke():
    cfg = VerificationConfig(
        pairing_spec="point",
        max_t_degree=2,
        max_var_index=5,
        max_u_degree=4,
        max_hbar_degree=2,
        max_omega_weight=3,
        suites=("constants", "hat-t", "brackets"),
    )
    reports = run_suite(cfg)
    assert len(reports) == 3
    assert all(r.passed for r in reports)


def test_no_small_window_fails():
    # a correct program passes every check it accepts: each suite on each
    # pairing either passes or rejects the window with ValueError
    failed = []
    windows = itertools.product((0, 1), (2, 5), (0, 3), (0, 1), (0, 3))
    for spec, window, suite in itertools.product(
        ("point", "hyperbolic2"), windows, ALL_SUITES
    ):
        try:
            reports = run_suite(VerificationConfig(spec, *window, suites=(suite,)))
        except ValueError:
            continue
        failed += [(spec, window, r.identity) for r in reports if not r.passed]
    assert failed == []


# the window each suite needs, as lower bounds on Truncation fields; stated
# here apart from pipeline._SUITES so that a changed bound fails a test
NEEDS = {
    "constants": {},
    "w-factorization": {},
    "hat-t": {"max_t_degree": 1},
    "brackets": {"max_var_index": 2},
    "virasoro-split": {"max_u_degree": 1},
    "ex-closed-form": {"max_u_degree": 1, "max_var_index": 1, "max_t_degree": 1},
    "bridge": {"max_u_degree": 1, "max_var_index": 1, "max_t_degree": 1},
    "theorem": {"max_u_degree": 1, "max_var_index": 1, "max_t_degree": 1},
}


def test_requirement_table_declares_each_suites_window():
    declared = {
        suite: {r.field: r.bound for r in needs}
        for suite, (_, needs) in pipeline._SUITES.items()
    }
    assert declared == NEEDS


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    spec=st.sampled_from(["point", "hyperbolic2"]),
    window=st.tuples(
        st.integers(0, 2),
        st.integers(0, 5),
        st.integers(0, 3),
        st.integers(0, 1),
        st.integers(0, 2),
    ),
)
def test_each_suite_runs_exactly_where_its_requirements_hold(spec, window):
    # each suite alone: refused with the reason of its first unmet requirement
    # where one fails; elsewhere no guard of a case builder fires, and every
    # report passes with at least one case
    for suite in ALL_SUITES:
        config = VerificationConfig(spec, *window, suites=(suite,))
        trunc = config.truncation()
        if not all(getattr(trunc, f) >= b for f, b in NEEDS[suite].items()):
            needs = pipeline._SUITES[suite][1]
            unmet = [r.reason for r in needs if not r.holds(trunc)]
            with pytest.raises(ValueError) as refused:
                run_suite(config)
            assert [str(refused.value)] == unmet[:1], suite
            continue
        reports = run_suite(config)
        assert reports, suite
        assert all(r.passed and r.cases >= 1 for r in reports), [
            r.summary_line() for r in reports
        ]


def test_random_inputs_hold_every_drawable_monomial_of_a_small_window():
    # t[0] alone at t-degree 0 leaves 1, u and u^2 to draw (the bridge's draw
    # window); with t-degree 1 and hbar <= 1 there are 1, t[0], hbar, hbar t[0]
    point = point_pairing()
    for draw, count in ((Truncation(0, 1, 2, 0, 0), 3), (Truncation(1, 2, 0, 1, 0), 4)):
        randoms = pipeline._random_inputs(point, draw, range(5), 6)
        assert [len(g.terms) for g in randoms] == [count] * 5


def test_hodge_and_virasoro_only_generate_cases():
    # every report is made in pipeline: the builder modules hand it cases
    for module in (hodge, virasoro):
        names = set(dir(module))
        assert not names & {"check", "Report"}, module.__name__
        assert not [n for n in names if n.startswith("verify_")], module.__name__


@pytest.mark.parametrize("spec, towers", [("point", 1), ("hyperbolic2", 2)])
def test_run_suite_builds_each_operator_once(monkeypatch, spec, towers):
    # the run's context builds each operator once; off the point pairing the
    # split also builds the point pairing's tower.  w_omega_parts runs once
    # for the context and once inside each of build_w_u and build_shift_u;
    # build_p once for the context and once inside build_p_u
    calls = collections.Counter()
    for home, name in (
        (hodge, "build_w_u"),
        (hodge, "build_shift_u"),
        (hodge, "build_p_u"),
        (hodge, "w_omega_parts"),
        (hodge, "build_p"),
        (special, "q_u"),
        (operators, "zassenhaus_tail"),
    ):
        original = getattr(home, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (hodge, operators, pipeline, special, virasoro):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    cfg = VerificationConfig(
        pairing_spec=spec,
        max_t_degree=3,
        max_var_index=5,
        max_u_degree=4,
        max_hbar_degree=2,
        max_omega_weight=2,
    )
    reports = run_suite(cfg)
    assert all(r.passed for r in reports)
    assert calls == {
        "build_w_u": 1,
        "build_shift_u": 1,
        "build_p_u": 1,
        "w_omega_parts": 3,
        "build_p": 2,
        "q_u": 1,
        "zassenhaus_tail": towers,
    }


@pytest.mark.parametrize("spec", ["point", "hyperbolic2"])
def test_default_window_derivations_exponentiate_by_substitution(monkeypatch, spec):
    # X+, shift_u and p_u have one first-order derivative and at most one
    # multiplication per atom; the flow, L+ and the kernel do not
    trunc = VerificationConfig().truncation()
    ctx = Context(pairing_from_spec(spec), trunc)
    substituted = []
    original = Series.substitute

    def counting(self, rule):
        substituted.append(rule)
        return original(self, rule)

    monkeypatch.setattr(Series, "substitute", counting)
    t_start = Series.of_var(trunc, t_var(2))
    q_start = Series.of_var(trunc, q_var(3))
    for name, start, derivation in (
        ("x_plus", q_start, True),
        ("shift_u", t_start, True),
        ("p_u", t_start, True),
        ("w_u", t_start, False),
        ("l_weighted", q_start, False),
        ("kernel", t_start, False),
    ):
        op = getattr(ctx, name)
        assert op.is_window_derivation(trunc) == derivation, name
        before = len(substituted)
        op.exp_apply(start)
        assert len(substituted) - before == derivation, name


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_suite(VerificationConfig(suites=("nonsense",)))


def test_run_suite_rejects_singular_pairing(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rank": 2, "eta": [["1", "1"], ["1", "1"]]}')
    with pytest.raises(ValueError):
        run_suite(VerificationConfig(pairing_spec=str(bad), suites=("constants",)))


def test_run_suite_rejects_asymmetric_pairing(tmp_path):
    bad = tmp_path / "asym.json"
    bad.write_text('{"rank": 2, "eta": [["0", "1"], ["2", "0"]]}')
    with pytest.raises(ValueError):
        run_suite(VerificationConfig(pairing_spec=str(bad), suites=("constants",)))


def test_pairing_file_roundtrip(tmp_path):
    good = tmp_path / "eta.json"
    good.write_text('{"rank": 2, "eta": [["0", "1/2"], ["1/2", "0"]]}')
    cfg = VerificationConfig(
        pairing_spec=str(good),
        max_t_degree=2,
        max_var_index=5,
        max_u_degree=2,
        max_hbar_degree=1,
        max_omega_weight=2,
        suites=("brackets",),
    )
    reports = run_suite(cfg)
    assert all(r.passed for r in reports)


def test_rank_three_pairing_with_rational_entries():
    # exercises exact inversion with pivot swaps and non-unit inverse entries
    from hodgeflow.pairing import Pairing
    from hodgeflow.virasoro import bracket_cases

    eta3 = Pairing("rank3", [[0, 0, 1], [0, 2, 0], [1, 0, 0]])
    assert eta3.eta_inv[1][1] == Fraction(1, 2)
    tr = Truncation(2, 6, 3, 2, 0)
    assert check("bracket(1,2)", eta3.name, tr, bracket_cases(1, 2, eta3, tr)).passed
    assert kernel_match_report(eta3, Truncation(1, 7, 4, 0, 0)).passed
    pool = [t_var(i, a) for i in range(3) for a in range(3)]
    z = random_series(71, tr, 6, variables=pool, max_hbar=2)
    assert verify_hodge_to_gw(z, eta3).passed


def test_report_json_schema():
    r = kernel_match_report(PT, Truncation(1, 6, 4, 0, 0))
    d = r.as_dict()
    assert set(d) == {"identity", "pairing", "truncation", "status", "cases", "mismatches"}
    assert d["status"] == "pass"

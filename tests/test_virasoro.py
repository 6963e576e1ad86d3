"""Raising operators: brackets, the u-weighted split, and the closed raise formula."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeflow import virasoro
from hodgeflow.operators import Operator, OperatorClassError, check
from hodgeflow.pairing import hyperbolic2_pairing, point_pairing
from hodgeflow.pipeline import VerificationConfig, run_suite
from hodgeflow.report import Mismatch
from hodgeflow.series import (
    Monomial,
    PARAM_U,
    Series,
    Truncation,
    q_var,
)
from hodgeflow.special import c_const
from hodgeflow.virasoro import (
    bracket_cases,
    build_l,
    build_virasoro,
    build_x,
    build_y,
    delta_map,
    odd_part,
    raised_odd_case,
    split_cases,
)

PT = point_pairing()
H2 = hyperbolic2_pairing()
TRQ = Truncation(3, 12, 6, 2, 0)


def test_x1_point_structure():
    x1 = build_x(1, PT, TRQ)
    want = Operator.zero()
    for k in range(1, 12):
        want = want.add(Operator.atom(k + 1, mult=[q_var(k)], deriv=[q_var(k + 1)]))
    assert x1 == want


def test_y_point_values():
    assert build_y(1, PT, TRQ).is_zero()
    assert build_y(2, PT, TRQ) == Operator.atom(1, deriv=[q_var(1), q_var(1)])
    y4 = build_y(4, PT, TRQ)
    # ordered pairs (1,3), (2,2), (3,1): the off-diagonal ones combine
    assert y4.atoms[((), (), ((q_var(1), 1), (q_var(3), 1)))] == 6
    assert y4.atoms[((), (), ((q_var(2), 2),))] == 4


def test_bracket_relation_samples():
    for pairing in (PT, H2):
        for m, n in ((1, 2), (2, 5)):
            cases = bracket_cases(m, n, pairing, TRQ)
            assert check(f"bracket({m},{n})", pairing.name, TRQ, cases).passed


def test_bracket_antisymmetry_diagonal():
    lm = build_l(3, PT, TRQ)
    assert lm.commutator(lm).is_zero()


def test_bracket_sign_example():
    l1, l2 = build_l(1, PT, TRQ), build_l(2, PT, TRQ)
    assert l1.commutator(l2) == build_l(3, PT, TRQ).neg()


def test_y_operators_commute():
    for m, n in ((2, 3), (3, 5), (4, 4)):
        assert build_y(m, H2, TRQ).commutator(build_y(n, H2, TRQ)).is_zero()


def test_bundle_weighting():
    b = build_virasoro(PT, Truncation(2, 8, 4, 2, 0))
    assert b.a[0] == Fraction(2, 3)
    # every atom of the u-weighted aggregates carries positive u-degree
    for op in (b.x_plus, b.y_plus, b.l_weighted, b.q_plus):
        for (params, _, _), _c in op.atoms.items():
            assert any(p.kind == "u" for p, _ in params)


def test_q_plus_lowest_order():
    # at u^2 the tower is a_2 Y_2 (Y_1 = 0 kills the bracket correction)
    b = build_virasoro(PT, Truncation(2, 8, 2, 2, 0))
    want = build_y(2, PT, b.trunc).scale(Fraction(-1, 12), {PARAM_U: 2})
    assert b.q_plus == want


def test_q_plus_shape():
    b = build_virasoro(H2, Truncation(2, 6, 4, 2, 0))
    assert b.q_plus.atoms
    for (_, mult, deriv) in b.q_plus.atoms:
        assert not mult
        assert sum(e for _, e in deriv) == 2


def test_odd_part_filters_even_indices():
    op = Operator.atom(1, deriv=[q_var(1), q_var(3)]).add(
        Operator.atom(2, deriv=[q_var(2), q_var(3)])
    )
    assert odd_part(op) == Operator.atom(1, deriv=[q_var(1), q_var(3)])


def test_delta_map_examples():
    pt_op = Operator.atom(1, deriv=[q_var(1), q_var(1)])
    assert delta_map(pt_op, PT) == pt_op
    got = delta_map(Operator.atom(1, deriv=[q_var(1), q_var(2)]), H2)
    want = Operator.atom(1, deriv=[q_var(1, 0), q_var(2, 1)]).add(
        Operator.atom(1, deriv=[q_var(1, 1), q_var(2, 0)])
    )
    assert got == want


def test_delta_map_linear():
    a = Operator.atom(3, deriv=[q_var(1), q_var(4)])
    b = Operator.atom(Fraction(1, 2), deriv=[q_var(2), q_var(2)])
    assert delta_map(a.add(b), H2) == delta_map(a, H2).add(delta_map(b, H2))


def test_delta_map_rejects_bad_shapes():
    with pytest.raises(OperatorClassError):
        delta_map(Operator.atom(1, mult=[q_var(1)], deriv=[q_var(2), q_var(2)]), H2)
    with pytest.raises(OperatorClassError):
        delta_map(Operator.atom(1, deriv=[q_var(1)]), H2)
    with pytest.raises(OperatorClassError):
        delta_map(Operator.atom(1, deriv=[q_var(1, 1), q_var(2, 0)]), H2)


def test_ad_tower_recoloring():
    # the colored ad-tower equals the recolored point ad-tower, level by level
    tr = Truncation(2, 6, 4, 2, 0)
    colored = build_virasoro(H2, tr)
    pointed = build_virasoro(PT, tr)
    term_c = colored.y_plus
    term_p = pointed.y_plus
    for _ in range(3):
        assert term_c == delta_map(term_p, H2)
        term_c = colored.x_plus.commutator(term_c).truncate(tr)
        term_p = pointed.x_plus.commutator(term_p).truncate(tr)


def test_q_plus_recoloring():
    tr = Truncation(2, 6, 4, 2, 0)
    assert build_virasoro(H2, tr).q_plus == delta_map(
        build_virasoro(PT, tr).q_plus, H2
    )


def test_virasoro_split_small():
    for pairing in (PT, H2):
        b = build_virasoro(pairing, Truncation(2, 6, 4, 2, 0))
        assert check("virasoro-split", pairing.name, b.trunc, split_cases(b)).passed


@pytest.mark.parametrize("pairing", [PT, H2], ids=["point", "hyperbolic2"])
def test_virasoro_split_fails_on_perturbed_tower(pairing):
    b = build_virasoro(pairing, Truncation(2, 6, 4, 2, 0))
    passing = check("virasoro-split", pairing.name, b.trunc, split_cases(b))
    # only the split's tower is perturbed; the odd tower stays as built
    key, _ = b.q_plus.sorted_atoms()[0]
    b.q_plus = b.q_plus.add(Operator({key: Fraction(1)}))
    r = check("virasoro-split", pairing.name, b.trunc, split_cases(b))
    assert not r.passed
    assert r.mismatches and r.mismatches[0].monomial.startswith("split")
    assert r.cases == passing.cases
    assert len(r.mismatches) <= 5


def test_virasoro_split_doubled_towers_counts_every_case():
    # 91 basis monomials plus the recoloring case, whatever fails
    b = build_virasoro(H2, Truncation(2, 6, 6, 1, 0))
    b.q_plus, b.q_plus_odd = b.q_plus.scale(2), b.q_plus_odd.scale(2)
    r = check("virasoro-split", H2.name, b.trunc, split_cases(b))
    assert not r.passed
    assert r.cases == 92
    assert len(r.mismatches) == 5
    assert r.mismatches[0] == Mismatch(
        "split . q[1,0] * q[1,1] at hbar * u^2", "-1/12", "-1/6"
    )


def test_split_reduces_to_x_plus_on_hbar_free_slice():
    tr = Truncation(2, 6, 4, 0, 0)  # hbar window closed
    b = build_virasoro(PT, tr)
    s = Series.of_monomial(tr, Monomial.build({q_var(2): 1, q_var(3): 1}))
    assert b.l_weighted.exp_apply(s) == b.x_plus.exp_apply(s)


def raised_odd_report(n, alpha, pairing, trunc):
    case = raised_odd_case(n, alpha, build_virasoro(pairing, trunc))
    return check(f"ex-closed-form(n={n},a={alpha})", pairing.name, trunc, [case])


def test_raised_odd_variable_base_case():
    tr = Truncation(1, 12, 2, 0, 0)
    assert raised_odd_report(0, 0, PT, tr).passed
    b = build_virasoro(PT, tr)
    q1 = Series.of_var(tr, q_var(1))
    assert b.x_plus.exp_apply(q1) == q1


def test_raised_odd_variable_samples():
    tr = Truncation(1, 12, 8, 0, 0)
    assert raised_odd_report(1, 0, PT, tr).passed
    assert raised_odd_report(3, 0, PT, tr).passed
    assert raised_odd_report(1, 1, H2, tr).passed


@settings(max_examples=20, deadline=None)
@given(
    pairing=st.sampled_from([PT, H2]),
    degree=st.integers(1, 3),
    n=st.integers(2, 4),
    data=st.data(),
)
def test_raised_odd_variable_holds_and_can_fail_below_u_degree_2n(
    pairing, degree, n, data
):
    # u-degree only adds up, so a u-window below 2n cuts both sides alike; from
    # u^2 on, C_1 u^2 (shift polynomial)_{n-1} is in it and a wrong C_1 shows
    u = data.draw(st.integers(2, 2 * n - 1))
    alpha = data.draw(st.sampled_from(list(pairing.colors())))
    tr = Truncation(degree, 9, u, 1, 0)
    assert raised_odd_report(n, alpha, pairing, tr).passed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            virasoro, "c_const", lambda i: c_const(i) + 1 if i == 1 else c_const(i)
        )
        assert not raised_odd_report(n, alpha, pairing, tr).passed


def test_raised_q3_explicit():
    tr = Truncation(1, 12, 4, 0, 0)
    b = build_virasoro(PT, tr)
    got = b.x_plus.exp_apply(Series.of_var(tr, q_var(3)))
    assert got.coefficient(Monomial.build({q_var(3): 1})) == 1
    assert got.coefficient(Monomial.build({q_var(2): 1}, {PARAM_U: 1})) == 2
    assert got.coefficient(Monomial.build({q_var(1): 1}, {PARAM_U: 2})) == Fraction(13, 12)


def test_brackets_fail_on_a_doubled_y3(monkeypatch):
    # [L1,L2] = -L3 carries -(hbar/2) Y_3 = -2 hbar d/dq[1] d/dq[2] on the point
    build_y = virasoro.build_y
    monkeypatch.setattr(
        virasoro, "build_y", lambda m, p, t: build_y(m, p, t).scale(2 if m == 3 else 1)
    )
    (report,) = run_suite(VerificationConfig(suites=("brackets",)))
    assert not report.passed
    first = Mismatch("[L1,L2] at hbar d/dq[1,0] d/dq[2,0]", "-2", "-4")
    assert report.mismatches[0] == first

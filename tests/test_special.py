"""Coupling series and flow constants against independent expansions."""

from fractions import Fraction

import pytest

from hodgeflow import special
from hodgeflow.rationals import bernoulli
from hodgeflow.series import (
    Monomial,
    PARAM_U,
    PARAM_X,
    PARAM_Y,
    PARAM_Z,
    Series,
    Truncation,
    TruncationError,
    exp_nilpotent,
    omega_param,
)
from hodgeflow.special import (
    b_omega,
    c_const,
    divide_x_plus_y,
    flow_expansion,
    omega_bernoulli,
    phi,
    phi_coefficients,
    phi_tilde,
    q_omega,
    q_omega_division,
    q_omega_nested,
    q_u,
    r_poly,
    rhs_target,
    solve_a_coeffs,
)


def univariate_exp(arg: dict[int, Fraction], order: int) -> list[Fraction]:
    """exp of sum arg[k] x^k (no constant term) through x^order, by plain convolution."""
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    term = list(out)
    k = 0
    while any(term):
        k += 1
        if k > order + 1:
            break
        new = [Fraction(0)] * (order + 1)
        for i, c in enumerate(term):
            if not c:
                continue
            for j, a in arg.items():
                if i + j <= order:
                    new[i + j] += c * a
        term = [c / k for c in new]
        for i, c in enumerate(term):
            out[i] += c
    return out


def test_b_omega_examples():
    w1 = Truncation(0, 0, 0, 0, 1)
    assert b_omega(w1).render() == "-1 * w[1] * z"
    w3 = b_omega(Truncation(0, 0, 0, 0, 3))
    assert w3.coefficient(Monomial.build((), {omega_param(2): 1, PARAM_Z: 3})) == -1
    assert len(w3.terms) == 2
    assert b_omega(Truncation(0, 0, 0, 0, 0)).is_zero()


def test_r_poly_small():
    assert r_poly(0) == Series.one(Truncation(0, 0, 0, 0, 0))
    tr = Truncation(0, 0, 0, 0, 4)
    assert r_poly(1, tr) == Series.of_param(tr, omega_param(1), coeff=-1)
    r3 = r_poly(3, tr)
    assert r3.coefficient(Monomial.build((), {omega_param(2): 1})) == -1
    assert r3.coefficient(Monomial.build((), {omega_param(1): 3})) == Fraction(-1, 6)
    assert len(r3.terms) == 2


def test_r_poly_is_coefficient_of_exp_b_omega():
    tr = Truncation(0, 0, 0, 0, 7)
    expanded = exp_nilpotent(b_omega(tr))
    for i in range(8):
        part: dict[Monomial, Fraction] = {}
        for m, c in expanded.terms.items():
            zexp = dict(m.params).get(PARAM_Z, 0)
            if zexp == i:
                rest = tuple((p, e) for p, e in m.params if p != PARAM_Z)
                part[Monomial((), rest)] = c
        assert Series(tr, part) == r_poly(i, tr), i


def test_r_poly_weight_homogeneous():
    for i in range(9):
        assert all(m.grade()[3] == i for m in r_poly(i).terms)


def test_c_const_against_direct_exponentiation():
    # exp of the even-Bernoulli tail sum B_{2l}/(2l(2l-1)) x^{2l-1}, expanded
    # with a plain univariate convolution oracle
    order = 8
    arg = {
        2 * l - 1: -omega_bernoulli(l)
        for l in range(1, order + 2)
        if 2 * l - 1 <= order
    }
    oracle = univariate_exp(arg, order)
    for i in range(order + 1):
        assert c_const(i) == oracle[i], i


def test_c_const_known_values():
    assert [c_const(i) for i in range(4)] == [
        Fraction(1),
        Fraction(1, 12),
        Fraction(1, 288),
        Fraction(-139, 51840),
    ]


def test_alternating_c_identity():
    for n in range(1, 11):
        assert (
            sum(
                Fraction((-1) ** (n - i)) * c_const(i) * c_const(n - i)
                for i in range(n + 1)
            )
            == 0
        )


def test_b_at_bernoulli_couplings_is_even_tail():
    tr = Truncation(0, 0, 0, 0, 5)
    rule = {
        omega_param(l): Series.constant(tr, omega_bernoulli(l)) for l in (1, 2, 3)
    }
    got = b_omega(tr).substitute(rule)
    for l in (1, 2, 3):
        zmon = Monomial.build((), {PARAM_Z: 2 * l - 1})
        assert got.coefficient(zmon) == bernoulli(2 * l) / (2 * l * (2 * l - 1))


def test_u_scaled_tail_rescales_to_constant_tail():
    # substituting the u-scaled couplings and then sending z to u^2 z cancels
    # every u power, leaving the plain even-Bernoulli tail
    tr = Truncation(0, 0, 20, 0, 9)
    scaled = b_omega(tr).substitute(
        {
            omega_param(l): Series.of_monomial(
                tr,
                Monomial.build((), {PARAM_U: 2 * (2 * l - 1)}),
                omega_bernoulli(l),
            )
            for l in range(1, 6)
        }
    )
    rescaled: dict[Monomial, Fraction] = {}
    for m, c in scaled.terms.items():
        params = dict(m.params)
        zexp = params.get(PARAM_Z, 0)
        u = params.pop(PARAM_U, 0) - 2 * zexp  # z -> u^2 z lowers the inverse power
        assert u >= 0
        if u:
            params[PARAM_U] = u
        rescaled[Monomial.build((), params)] = c
    plain = b_omega(tr).substitute(
        {
            omega_param(l): Series.constant(tr, omega_bernoulli(l))
            for l in range(1, 6)
        }
    )
    assert Series(tr, rescaled) == plain


def test_q_omega_two_routes_agree():
    tr = Truncation(0, 0, 0, 0, 6)
    assert q_omega_nested(tr) == q_omega_division(tr)
    assert q_omega(tr) == q_omega_nested(tr)


def test_q_omega_weight_one_term():
    tr = Truncation(0, 0, 0, 0, 1)
    assert q_omega(tr) == Series.of_param(tr, omega_param(1))


def test_q_omega_symmetric():
    tr = Truncation(0, 0, 0, 0, 6)
    q = q_omega(tr)
    swap = q.substitute(
        {
            PARAM_X: Series.of_param(tr, PARAM_Y),
            PARAM_Y: Series.of_param(tr, PARAM_X),
        }
    )
    assert swap == q


def test_q_omega_vanishes_without_couplings():
    assert q_omega(Truncation(0, 0, 0, 0, 0)).is_zero()


def test_divide_x_plus_y_detects_nondivisible():
    tr = Truncation(0, 0, 0, 0, 2)
    with pytest.raises(TruncationError):
        divide_x_plus_y(Series.of_param(tr, PARAM_Y))


def test_q_u_leading_term_and_scaling():
    tr = Truncation(0, 0, 10, 0, 0)
    qu = q_u(tr)  # internally cross-checked against the rescaled kernel
    assert qu.coefficient(Monomial.build((), {PARAM_U: 2})) == Fraction(-1, 12)
    assert q_u(Truncation(0, 0, 0, 0, 0)).is_zero()


def test_u_scaled_couplings_reproduce_constants():
    # weight homogeneity: the coupling substitution turns weight i into u^{2i} C_i
    tr = Truncation(0, 0, 16, 0, 8)
    for i in range(9):
        inst = r_poly(i, tr).substitute(
            {
                omega_param(l): Series.of_monomial(
                    tr,
                    Monomial.build((), {PARAM_U: 2 * (2 * l - 1)}),
                    omega_bernoulli(l),
                )
                for l in range(1, i + 1)
            }
        )
        want = Series.of_monomial(
            tr, Monomial.build((), {PARAM_U: 2 * i} if i else {}), c_const(i)
        )
        assert inst == want, i


def test_rhs_target_expansion():
    t = rhs_target(4)
    assert t.coefficient(1) == 1
    assert t.coefficient(0) == Fraction(2, 3)
    assert t.coefficient(-1) == Fraction(-1, 12)
    assert t.coefficient(-2) == Fraction(11, 270)


def test_solve_a_first_three():
    a = solve_a_coeffs(6)
    assert a[0] == Fraction(2, 3)
    assert a[1] == Fraction(-1, 12)
    assert a[2] == Fraction(7, 540)


def test_flow_round_trip_deep():
    a = solve_a_coeffs(11)
    assert flow_expansion(a, 11) == rhs_target(11)


def test_phi_polynomials():
    assert phi(0).render() == "1 * z"
    p1 = phi(1)
    assert p1.coefficient(Monomial.build((), {PARAM_U: 2, PARAM_Z: 1})) == 1
    assert p1.coefficient(Monomial.build((), {PARAM_U: 1, PARAM_Z: 2})) == 2
    assert p1.coefficient(Monomial.build((), {PARAM_Z: 3})) == 1
    assert len(p1.terms) == 3


def test_phi_leading_coefficient_is_odd_double_factorial():
    from hodgeflow.rationals import odd_double_factorial

    for k in range(6):
        assert phi_coefficients(k)[(0, 2 * k + 1)] == odd_double_factorial(k)


def test_phi_tilde_example():
    tr = Truncation(1, 5, 4, 0, 0)
    p2 = phi_tilde(2, 0, tr)
    from hodgeflow.series import q_var

    assert p2.coefficient(Monomial.build({q_var(3): 1}, {PARAM_U: 2})) == 12
    assert p2.coefficient(Monomial.build({q_var(5): 1})) == 3
    with pytest.raises(TruncationError):
        phi_tilde(3, 0, tr)


def test_q_u_enumerates_the_kernel_once(monkeypatch):
    # both routes of q_u's cross-check start from one cross-checked kernel
    calls = []
    monkeypatch.setattr(special, "q_omega", lambda tr: calls.append(tr) or q_omega(tr))
    q_u(Truncation(0, 0, 6, 0, 0))
    assert len(calls) == 1

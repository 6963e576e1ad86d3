"""Normal-ordered operator algebra: application, brackets, graded exponentials."""

import itertools
import math
import random
import unittest.mock
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from hodgeflow import operators
from hodgeflow.operators import (
    GradingError,
    Operator,
    OperatorClassError,
    check,
    contraction,
    exp_basis_cases,
    first_mismatch,
    zassenhaus_tail,
)
from hodgeflow.pairing import hyperbolic2_pairing, point_pairing
from hodgeflow.report import Mismatch
from hodgeflow.series import (
    Monomial,
    PARAM_HBAR,
    PARAM_U,
    Series,
    Truncation,
    omega_param,
    q_var,
    random_series,
    t_var,
)
from hodgeflow.hodge import build_w_u, w_omega_parts
from hodgeflow.virasoro import build_virasoro

TR = Truncation(3, 8, 6, 2, 4)


def is_var_shift_family(op):
    """One variable in, one derivative out, same kind and color per atom."""
    for (_, mult, deriv) in op.atoms:
        if len(mult) != 1 or len(deriv) != 1:
            return False
        (mv, me), (dv, de) = mult[0], deriv[0]
        if me != 1 or de != 1:
            return False
        if mv.kind != dv.kind or mv.color != dv.color:
            return False
    return True


def is_pure_derivative(op, max_order=2):
    """No multiplication part; derivative order between 1 and max_order."""
    for (_, mult, deriv) in op.atoms:
        if mult:
            return False
        order = sum(e for _, e in deriv)
        if order < 1 or order > max_order:
            return False
    return True


def verify_zassenhaus_factorization(x_op, y_op, trunc, variables, pairing="-"):
    """Check exp(x+y) = exp(x) exp(tail) on every basis monomial in the window.

    Preconditions (checked): x is a variable-shift family, y is pure-derivative
    of order <= 2, and [x, y] stays pure-derivative (abelian class).
    """
    if not is_var_shift_family(x_op):
        raise OperatorClassError("left factor must be a variable-shift family")
    if not (y_op.is_zero() or is_pure_derivative(y_op, max_order=2)):
        raise OperatorClassError("right summand must be pure-derivative of order <= 2")
    bracket = x_op.commutator(y_op)
    if not (bracket.is_zero() or is_pure_derivative(bracket, max_order=2)):
        raise OperatorClassError("[x, y] left the abelian class")

    orders = [("exp(...)", [x_op, zassenhaus_tail(x_op, y_op, trunc)])]
    cases = exp_basis_cases(x_op.add(y_op), orders, trunc, variables, trunc.max_t_degree)
    return check("zassenhaus-special", pairing, trunc, cases)


def test_apply_basic_derivative():
    d0 = Operator.atom(1, deriv=[t_var(0)])
    assert d0.apply(Series.of_var(TR, t_var(0))) == Series.one(TR)


def test_apply_leibniz():
    op = Operator.atom(1, mult=[t_var(0)], deriv=[t_var(1)])
    square = Series.of_monomial(TR, Monomial.build({t_var(1): 2}))
    want = Series.of_monomial(TR, Monomial.build({t_var(0): 1, t_var(1): 1}), 2)
    assert op.apply(square) == want


def test_apply_second_derivative_multiplicity():
    op = Operator.atom(1, deriv=[t_var(0), t_var(0)])
    cube = Series.of_monomial(TR, Monomial.build({t_var(0): 3}))
    assert op.apply(cube) == Series.of_var(TR, t_var(0), 6)


def test_apply_is_linear():
    rng = random.Random(0)
    op = Operator.atom(2, mult=[t_var(0)], deriv=[t_var(2)]).add(
        Operator.atom(Fraction(1, 3), deriv=[t_var(1)])
    )
    for seed in range(4):
        f = random_series(seed, TR, 6)
        g = random_series(seed + 20, TR, 6)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert op.apply(f.add(g)) == op.apply(f).add(op.apply(g))
        assert op.apply(f.scale(c)) == op.apply(f).scale(c)


def test_contraction_colors_through_the_inverse_pairing():
    # eta^{01} = eta^{10} = 1 on hyperbolic2: one atom per crossed color pair
    got = contraction(hyperbolic2_pairing(), q_var, 1, 2, 3, {PARAM_U: 2})
    want = Operator.sum(
        Operator.atom(3, params={PARAM_U: 2}, deriv=[q_var(1, mu), q_var(2, 1 - mu)])
        for mu in (0, 1)
    )
    assert got == want
    same = contraction(point_pairing(), t_var, 2, 2, Fraction(-1, 2))
    assert same == Operator.atom(Fraction(-1, 2), deriv=[t_var(2), t_var(2)])


def test_commutator_canonical_pair():
    a = Operator.atom(1, deriv=[t_var(1)])
    b = Operator.atom(1, mult=[t_var(1)], deriv=[t_var(2)])
    assert a.commutator(b) == Operator.atom(1, deriv=[t_var(2)])


def _random_class_operator(rng: random.Random) -> Operator:
    """Random element of the shift / derivative / second-order classes."""
    kind = rng.choice(("shift", "deriv", "second"))
    op = Operator.zero()
    for _ in range(rng.randint(1, 3)):
        c = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 3))
        if kind == "shift":
            i = rng.randint(0, 4)
            j = rng.randint(1, 3)
            op = op.add(Operator.atom(c, mult=[t_var(i)], deriv=[t_var(i + j)]))
        elif kind == "deriv":
            op = op.add(Operator.atom(c, deriv=[t_var(rng.randint(0, 6))]))
        else:
            op = op.add(
                Operator.atom(
                    c, deriv=[t_var(rng.randint(0, 4)), t_var(rng.randint(0, 4))]
                )
            )
    return op


def test_commutator_agrees_with_application():
    rng = random.Random(42)
    for _ in range(12):
        a = _random_class_operator(rng)
        b = _random_class_operator(rng)
        f = random_series(rng.randint(0, 999), TR, 7)
        lhs = a.commutator(b).apply(f)
        rhs = a.apply(b.apply(f)).sub(b.apply(a.apply(f)))
        assert lhs == rhs


def test_jacobi_identity_on_shift_class():
    rng = random.Random(7)
    for _ in range(6):
        a, b, c = (
            _random_shift(rng),
            _random_shift(rng),
            _random_shift(rng),
        )
        total = (
            a.commutator(b).commutator(c)
            .add(b.commutator(c).commutator(a))
            .add(c.commutator(a).commutator(b))
        )
        assert total.is_zero()


def _random_shift(rng: random.Random) -> Operator:
    op = Operator.zero()
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, 4)
        j = rng.randint(1, 3)
        op = op.add(
            Operator.atom(rng.randint(1, 5), mult=[t_var(i)], deriv=[t_var(i + j)])
        )
    return op


def test_exp_apply_zero_operator_is_identity():
    s = random_series(3, TR, 5)
    assert Operator.zero().exp_apply(s) == s


def test_exp_apply_shift():
    op = Operator.atom(1, params={PARAM_U: 1}, deriv=[t_var(0)])
    got = op.exp_apply(Series.of_var(TR, t_var(0)))
    want = Series.of_var(TR, t_var(0)).add(Series.of_param(TR, PARAM_U))
    assert got == want


def test_exp_apply_nilpotent_shift_family():
    op = Operator.atom(1, mult=[t_var(0)], deriv=[t_var(1)])
    got = op.exp_apply(Series.of_var(TR, t_var(1)))
    assert got == Series.of_var(TR, t_var(1)).add(Series.of_var(TR, t_var(0)))


def test_exp_apply_rejects_ungraded_operator():
    op = Operator.atom(1, mult=[t_var(1)], deriv=[t_var(1)])
    with pytest.raises(GradingError):
        op.exp_apply(Series.of_var(TR, t_var(1)))


def test_first_order_exponential_is_ring_homomorphism():
    # the window must hold f*g whole, or the degree-lowering part of the
    # operator reaches terms on the product side that f*g already lost
    wide = Truncation(6, 8, 6, 2, 4)
    op = Operator.atom(1, params={PARAM_U: 1}, mult=[t_var(0)], deriv=[t_var(2)]).add(
        Operator.atom(Fraction(1, 2), params={PARAM_U: 2}, deriv=[t_var(1)])
    )
    for seed in (0, 5):
        f = random_series(seed, TR, 5).truncated(wide)
        g = random_series(seed + 31, TR, 5).truncated(wide)
        assert op.exp_apply(f.mul(g)) == op.exp_apply(f).mul(op.exp_apply(g))


def test_compose_normal_orders():
    # d/dt0 . t0 = t0 d/dt0 + 1
    left = Operator.atom(1, deriv=[t_var(0)])
    right = Operator.atom(1, mult=[t_var(0)])
    got = left.compose(right)
    want = Operator.atom(1, mult=[t_var(0)], deriv=[t_var(0)]).add(Operator.atom(1))
    assert got == want


def test_compose_normal_orders_higher_multiplicity():
    # d^2/dt0^2 . t0^2 = t0^2 d^2 + 4 t0 d + 2
    left = Operator.atom(1, deriv=[t_var(0), t_var(0)])
    right = Operator.atom(1, mult=[t_var(0), t_var(0)])
    got = left.compose(right)
    want = (
        Operator.atom(1, mult=[t_var(0), t_var(0)], deriv=[t_var(0), t_var(0)])
        .add(Operator.atom(4, mult=[t_var(0)], deriv=[t_var(0)]))
        .add(Operator.atom(2))
    )
    assert got == want


def test_compose_matches_application_on_random_input():
    a = Operator.atom(1, mult=[t_var(1)], deriv=[t_var(2), t_var(2)])
    b = Operator.atom(1, mult=[t_var(2), t_var(2)], deriv=[t_var(3)])
    for seed in (0, 4):
        f = random_series(seed, TR, 6)
        assert a.compose(b).apply(f) == a.apply(b.apply(f))


def test_zassenhaus_special_small_pair():
    x = Operator.atom(1, mult=[t_var(0)], deriv=[t_var(1)])
    y = Operator.atom(1, deriv=[t_var(1)])
    r = verify_zassenhaus_factorization(
        x, y, TR, [t_var(i) for i in range(3)], pairing="point"
    )
    assert r.passed


def test_zassenhaus_zero_right_factor():
    x = Operator.atom(1, mult=[t_var(0)], deriv=[t_var(2)])
    r = verify_zassenhaus_factorization(
        x, Operator.zero(), TR, [t_var(i) for i in range(3)]
    )
    assert r.passed
    assert zassenhaus_tail(x, Operator.zero(), TR).is_zero()


def test_zassenhaus_rejects_wrong_class():
    bad = Operator.atom(1, mult=[t_var(0), t_var(0)], deriv=[t_var(1)])
    with pytest.raises(OperatorClassError):
        verify_zassenhaus_factorization(
            bad, Operator.atom(1, deriv=[t_var(0)]), TR, [t_var(0)]
        )


def test_pure_derivative_operators_commute():
    a = Operator.atom(2, deriv=[t_var(0)]).add(Operator.atom(1, deriv=[t_var(1), t_var(2)]))
    b = Operator.atom(3, deriv=[t_var(4)]).add(Operator.atom(5, deriv=[t_var(0), t_var(0)]))
    assert a.commutator(b).is_zero()


def test_render_normal_order():
    op = Operator.atom(-1, params={omega_param(1): 1}, mult=[t_var(0)], deriv=[t_var(1)])
    assert op.render() == "-1 * w[1] * t[0,0] d/dt[1,0]"


# -- indexed apply against the naive loop over every (monomial, atom) pair -------

VARS = [t_var(0), t_var(1), t_var(2, 1), q_var(3)]
PARAMS = [PARAM_U, PARAM_HBAR, omega_param(1), omega_param(2)]
WINDOWS = [
    Truncation(4, 3, 3, 2, 4),
    Truncation(3, 2, 0, 0, 0),
    Truncation(5, 3, 1, 1, 3),
]


def random_operator(rng: random.Random, count: int) -> Operator:
    """Atoms with 0-2 parameters, multiplications and (possibly repeated) derivatives."""
    op = Operator.zero()
    for _ in range(count):
        op = op.add(
            Operator.atom(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                params=[(rng.choice(PARAMS), 1) for _ in range(rng.randint(0, 2))],
                mult=[rng.choice(VARS) for _ in range(rng.randint(0, 2))],
                deriv=[rng.choice(VARS) for _ in range(rng.randint(0, 2))],
            )
        )
    return op


def random_input(rng: random.Random, trunc: Truncation, count: int) -> Series:
    terms = {}
    for _ in range(count):
        vars = [(rng.choice(VARS), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
        params = [(rng.choice(PARAMS), 1) for _ in range(rng.randint(0, 2))]
        terms[Monomial.build(vars, params)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Series(trunc, terms)


def naive_apply(op: Operator, s: Series) -> Series:
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in s.terms.items():
        for (params, mult, deriv), acoeff in op.atoms.items():
            exps = dict(mono.vars)
            if any(exps.get(v, 0) < k for v, k in deriv):
                continue
            factor = coeff * acoeff
            for v, k in deriv:
                factor *= math.perm(exps[v], k)
                exps[v] -= k
            for v, k in mult:
                exps[v] = exps.get(v, 0) + k
            m = Monomial.build(exps, mono.params + params)
            out[m] = out.get(m, 0) + factor
    return Series(s.trunc, out)


@pytest.mark.parametrize("trunc", WINDOWS)
def test_apply_matches_naive_reference(trunc):
    rng = random.Random(repr(trunc))
    for _ in range(10):
        op = random_operator(rng, rng.randint(1, 12))
        for _ in range(3):
            s = random_input(rng, trunc, rng.randint(0, 25))
            assert op.apply(s) == naive_apply(op, s)


def test_apply_cancelling_atoms():
    # (t0 d/dt0 - t1 d/dt1) t0 t1 = 0
    op = Operator.atom(1, mult=[t_var(0)], deriv=[t_var(0)]).add(
        Operator.atom(-1, mult=[t_var(1)], deriv=[t_var(1)])
    )
    assert op.apply(Series.of_monomial(TR, Monomial.build({t_var(0): 1, t_var(1): 1}))).is_zero()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    small=st.builds(
        Truncation,
        st.integers(0, 4),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(0, 4),
    ),
    extra=st.tuples(*[st.integers(0, 2)] * 5),
)
def test_apply_window_consistency(seed, small, extra):
    # the input lies in the small window: derivatives lower t-degree, so
    # terms outside it could act into it
    big = Truncation(*(b + e for b, e in zip(small.as_dict().values(), extra)))
    rng = random.Random(seed)
    op = random_operator(rng, 8)
    s = random_input(rng, small, 15)
    assert op.apply(s.truncated(big)).truncated(small) == op.apply(s)


# -- the integer-numerator apply against the Fraction kernel it replaced ---------


def _fraction_apply(op: Operator, s: Series) -> Series:
    """Operator.apply summing Fraction products term by term (the reference for
    the kernel that sums integer numerators over one denominator)."""
    trunc = s.trunc
    admits = trunc.admits
    index: dict = {}
    for (params, mult, deriv), c in op.atoms.items():
        gain = Monomial(mult, params)
        _, u, h, w = gain.grade()
        index.setdefault(deriv[0][0] if deriv else None, []).append(
            (u, h, w, deriv, dict(deriv), gain, c)
        )
    free = index.get(None)
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in s.terms.items():
        var_d = dict(mono.vars)
        _, mu, mh, mw = mono.grade()
        lu = trunc.max_u_degree - mu
        lh = trunc.max_hbar_degree - mh
        lw = trunc.max_omega_weight - mw
        groups = [index[v] for v in var_d if v in index]
        if free:
            groups.append(free)
        for group in groups:
            for u, h, w, deriv, deriv_d, gain, acoeff in group:
                if u > lu or h > lh or w > lw:
                    continue
                weight = 1
                for v, k in deriv:
                    e = var_d.get(v, 0)
                    if e < k:
                        break
                    weight *= math.perm(e, k)
                else:
                    if deriv:
                        rest = []
                        for v, e in mono.vars:
                            k = deriv_d.get(v, 0)
                            if e > k:
                                rest.append((v, e - k))
                        new_mono = Monomial(tuple(rest), mono.params).mul(gain)
                    else:
                        new_mono = mono.mul(gain)
                    if not admits(new_mono):
                        continue
                    factor = coeff * acoeff
                    if weight != 1:
                        factor *= weight
                    acc = out.get(new_mono, 0) + factor
                    if acc:
                        out[new_mono] = acc
                    else:
                        del out[new_mono]
    return Series(trunc, out, _clean=True)


# large coprime and negative denominators, so that d_s and d_op both matter
DENOMINATORS = [1, -1, 2, -3, 7, -12, 2**31 - 1, -(10**9 + 7), 999_983, -(2**61 - 1)]
coefficients = st.builds(
    Fraction, st.integers(-10**6, 10**6).filter(bool), st.sampled_from(DENOMINATORS)
)
# every atom carries a windowed parameter, so its exponential terminates
first_order = st.builds(
    lambda c, params, mult, v: Operator.atom(c, [(p, 1) for p in params], mult, [v]),
    coefficients,
    st.lists(st.sampled_from(PARAMS), min_size=1, max_size=2),
    st.lists(st.sampled_from(VARS), max_size=2),
    st.sampled_from(VARS),
)
hbar_contraction = st.builds(
    lambda c, u, deriv: Operator.atom(c, [(PARAM_HBAR, 1), (PARAM_U, u)], deriv=deriv),
    coefficients,
    st.integers(0, 1),
    st.lists(st.sampled_from(VARS), min_size=2, max_size=2),
)
monomials = st.builds(
    lambda vars, params: Monomial.build(vars, [(p, 1) for p in params]),
    st.lists(st.tuples(st.sampled_from(VARS), st.integers(1, 3)), max_size=3),
    st.lists(st.sampled_from(PARAMS), max_size=2),
)


# the explain phase, which only annotates a failure already found, takes
# minutes on a wrong kernel; without it a failure is reported in seconds
@settings(
    max_examples=80, deadline=None, phases=[p for p in Phase if p is not Phase.explain]
)
@given(
    trunc=st.sampled_from(WINDOWS),
    atoms=st.lists(st.one_of(first_order, hbar_contraction), min_size=1, max_size=8),
    terms=st.lists(st.tuples(monomials, coefficients), max_size=12),
    pair_coeff=coefficients,
    product_coeff=coefficients,
)
def test_apply_and_exp_apply_match_the_fraction_kernel(
    trunc, atoms, terms, pair_coeff, product_coeff
):
    # u t0 d/dt0 - u t1 d/dt1 cancels on every t0 t1 term
    t0, t1 = VARS[:2]
    pair = [
        Operator.atom(pair_coeff, [(PARAM_U, 1)], [t0], [t0]),
        Operator.atom(-pair_coeff, [(PARAM_U, 1)], [t1], [t1]),
    ]
    op = Operator.sum(atoms + pair)
    s = Series(trunc, terms + [(Monomial.build({t0: 1, t1: 1}), product_coeff)])
    got, got_exp = op.apply(s), op.exp_apply(s)
    with unittest.mock.patch.object(Operator, "apply", _fraction_apply):
        assert got == op.apply(s)
        assert got_exp == op.exp_apply(s)
    assert all(got.terms.values()) and all(got_exp.terms.values())


# -- commutator from contractions against the compose-based formula -------------


def naive_compose(a: Operator, b: Operator) -> Operator:
    """Leibniz product over every contraction choice, zero included."""
    out: dict = {}
    for (pa, ma, da), ca in a.atoms.items():
        for (pb, mb, db), cb in b.atoms.items():
            mb_d = dict(mb)
            shared = [(v, e, mb_d[v]) for v, e in da if v in mb_d]
            for js in itertools.product(*(range(min(x, y) + 1) for _, x, y in shared)):
                weight = 1
                mult, deriv = dict(ma), dict(db)
                taken = {}
                for (v, x, y), j in zip(shared, js):
                    weight *= math.comb(x, j) * math.perm(y, j)
                    taken[v] = j
                for v, e in mb:
                    mult[v] = mult.get(v, 0) + e - taken.get(v, 0)
                for v, e in da:
                    deriv[v] = deriv.get(v, 0) + e - taken.get(v, 0)
                params = dict(pa)
                for p, e in pb:
                    params[p] = params.get(p, 0) + e
                key = (
                    tuple(sorted(params.items())),
                    tuple(sorted((v, e) for v, e in mult.items() if e)),
                    tuple(sorted((v, e) for v, e in deriv.items() if e)),
                )
                out[key] = out.get(key, 0) + ca * cb * weight
    return Operator(out)


def random_power_operator(rng: random.Random, count: int, names: list) -> Operator:
    """Atoms with exponents up to 3 on multiplications and derivatives."""

    def powers() -> list:
        return [v for v in rng.sample(names, rng.randint(0, 2)) for _ in range(rng.randint(1, 3))]

    op = Operator.zero()
    for _ in range(count):
        op = op.add(
            Operator.atom(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                params=[(rng.choice(PARAMS[:2]), 1) for _ in range(rng.randint(0, 2))],
                mult=powers(),
                deriv=powers(),
            )
        )
    return op


def test_first_mismatch_on_series():
    t0, ut1, t2 = (
        Monomial.build({t_var(0): 1}),
        Monomial.build({t_var(1): 1}, {PARAM_U: 2}),
        Monomial.build({t_var(2): 2}),
    )
    f = Series(TR, {t0: 1, ut1: 2, t2: 5})
    assert first_mismatch("tag", f, Series(TR, {t0: 1, ut1: 3})) == Mismatch(
        "tag at u^2 * t[1,0]", "2", "3"
    )
    assert first_mismatch("tag", Series(TR, {t0: 1, t2: 5}), f) == Mismatch(
        "tag at u^2 * t[1,0]", "0", "2"
    )


def test_first_mismatch_on_operators():
    shift = Operator.atom(2, mult=[t_var(0)], deriv=[t_var(1)])
    pair = Operator.atom(1, params={PARAM_HBAR: 1}, deriv=[t_var(0), t_var(0)])
    late = Operator.atom(3, params={PARAM_U: 1}, deriv=[t_var(2)])
    lhs = shift.add(pair).add(late)
    assert first_mismatch("op", lhs, shift) == Mismatch(
        "op at hbar d/dt[0,0]^2", "1", "0"
    )
    assert first_mismatch("op", shift.scale(2), lhs) == Mismatch(
        "op at t[0,0] d/dt[1,0]", "4", "2"
    )


def test_first_mismatch_on_scalars():
    assert first_mismatch("C_2", Fraction(1, 288), Fraction(-1, 24)) == Mismatch(
        "C_2", "1/288", "-1/24"
    )


def test_check_counts_every_case_and_caps_mismatches():
    # seven of fourteen cases fail: all are counted, the first five are named
    cases = [(f"case {i}", Fraction(i % 2), Fraction(0)) for i in range(14)]
    r = check("parity", "-", TR, cases)
    assert not r.passed
    assert r.cases == 14
    assert r.mismatches == [Mismatch(f"case {i}", "1", "0") for i in (1, 3, 5, 7, 9)]
    assert r.truncation == TR.as_dict()
    ok = check("parity", "-", TR, (c for c in cases if c[1] == 0))
    assert ok.passed and ok.cases == 7 and ok.mismatches == []


def test_exp_basis_cases_cover_every_order():
    # one case per basis monomial; it carries the first order that differs,
    # else the last order
    x = Operator.atom(1, params={PARAM_U: 1}, deriv=[t_var(0)])
    for orders in (
        [("equal", [x]), ("doubled", [x.scale(2)])],
        [("doubled", [x.scale(2)]), ("equal", [x])],
    ):
        r = check("orders", "-", TR, exp_basis_cases(x, orders, TR, [t_var(0)], 1))
        assert r.cases == 2
        assert r.mismatches == [Mismatch("doubled . t[0,0] at u", "1", "2")]


def test_commutator_matches_compose_difference():
    rng = random.Random(11)
    for _ in range(40):
        a = random_power_operator(rng, rng.randint(1, 6), VARS)
        b = random_power_operator(rng, rng.randint(1, 6), VARS)
        assert a.compose(b) == naive_compose(a, b)
        assert a.commutator(b) == a.compose(b).sub(b.compose(a))


def test_commutator_contracts_high_exponents_on_both_sides():
    # [d^3/dt0^3 u, t0^2 hbar d/dt1]: j = 1, 2 with C(3, j) P(2, j) = 6, 6
    a = Operator.atom(1, params={PARAM_U: 1}, deriv=[t_var(0)] * 3)
    b = Operator.atom(1, params={PARAM_HBAR: 1}, mult=[t_var(0)] * 2, deriv=[t_var(1)])
    uh = {PARAM_U: 1, PARAM_HBAR: 1}
    want = Operator.atom(6, uh, mult=[t_var(0)], deriv=[t_var(0), t_var(0), t_var(1)]).add(
        Operator.atom(6, uh, deriv=[t_var(0), t_var(1)])
    )
    assert a.commutator(b) == want == a.compose(b).sub(b.compose(a))


def test_commutator_without_shared_variable_is_zero():
    rng = random.Random(5)
    for _ in range(10):
        a = random_power_operator(rng, 4, VARS[:2])
        b = random_power_operator(rng, 4, VARS[2:])
        assert a.commutator(b).is_zero()
        assert a.compose(b) == b.compose(a)


def test_commutator_exactly_zero():
    # t0 d/dt0 + t1 d/dt1 (the Euler operator) commutes with t0 t1 d^2/dt0 dt1
    euler = Operator.atom(1, mult=[t_var(0)], deriv=[t_var(0)]).add(
        Operator.atom(1, mult=[t_var(1)], deriv=[t_var(1)])
    )
    other = Operator.atom(
        3, params={PARAM_U: 2}, mult=[t_var(0), t_var(1)], deriv=[t_var(0), t_var(1)]
    )
    assert euler.commutator(other).is_zero()
    assert not euler.compose(other).is_zero()


# -- the ad-tower and truncate under a wider u/hbar window ------------------------

U_HBAR_NARROWING = dict(
    u=st.integers(0, 5),
    hbar=st.integers(0, 2),
    extra=st.tuples(st.integers(0, 2), st.integers(0, 2)),
)


def _u_hbar_windows(index: int, u: int, hbar: int, extra: tuple) -> tuple:
    narrow = Truncation(2, index, u, hbar, 0)
    return narrow, Truncation(2, index, u + extra[0], hbar + extra[1], 0)


def random_shift_pair(rng: random.Random, index: int) -> tuple:
    """u-weighted variable-shift family x and u/hbar-weighted pure derivatives y."""
    x = y = Operator.zero()
    for _ in range(rng.randint(2, 5)):
        i = rng.randint(0, index - 1)
        x = x.add(
            Operator.atom(
                rng.randint(-3, 3) or 1,
                params={PARAM_U: rng.randint(0, 2)},
                mult=[t_var(i)],
                deriv=[t_var(rng.randint(i + 1, index))],
            )
        )
        y = y.add(
            Operator.atom(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                params={PARAM_U: rng.randint(0, 3), PARAM_HBAR: rng.randint(0, 2)},
                deriv=[t_var(rng.randint(0, index)) for _ in range(rng.randint(1, 2))],
            )
        )
    return x, y


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), **U_HBAR_NARROWING)
def test_zassenhaus_tail_window_consistency_random_pairs(seed, u, hbar, extra):
    narrow, wide = _u_hbar_windows(3, u, hbar, extra)
    rng = random.Random(seed)
    x, y = random_shift_pair(rng, 3)
    assert zassenhaus_tail(x, y, wide).truncate(narrow) == zassenhaus_tail(x, y, narrow)
    op = random_power_operator(rng, 8, VARS)
    assert op.truncate(wide).truncate(narrow) == op.truncate(narrow)


@pytest.fixture(scope="module", params=["point", "hyperbolic2"])
def wide_bundle(request):
    pairing = point_pairing() if request.param == "point" else hyperbolic2_pairing()
    return build_virasoro(pairing, Truncation(2, 8, 7, 4, 0))


@settings(max_examples=15, deadline=None)
@given(**U_HBAR_NARROWING)
def test_zassenhaus_tail_window_consistency_virasoro(wide_bundle, u, hbar, extra):
    narrow, wide = _u_hbar_windows(8, u, hbar, extra)
    x, y = wide_bundle.x_plus, wide_bundle.y_plus
    assert zassenhaus_tail(x, y, wide).truncate(narrow) == zassenhaus_tail(x, y, narrow)


def _reference_zassenhaus_tail(x_op, y_op, trunc, max_depth=64):
    """The tail summed by its own loop, each term scaled by (-1)^(n-1)/n! (the
    reference for the tower summed through exp_terms)."""
    tail = Operator.zero()
    term = y_op.truncate(trunc)
    n = 1
    while not term.is_zero():
        if n > max_depth:
            raise GradingError("ad-tower did not die out within the window")
        tail = tail.add(term.scale(Fraction((-1) ** (n - 1), math.factorial(n))))
        term = x_op.commutator(term).truncate(trunc)
        n += 1
    return tail


def test_zassenhaus_tail_matches_the_reference_loop_on_q_plus(wide_bundle):
    x, y, trunc = wide_bundle.x_plus, wide_bundle.y_plus, wide_bundle.trunc
    want = _reference_zassenhaus_tail(x, y, trunc)
    assert not want.is_zero()
    assert zassenhaus_tail(x, y, trunc) == want


def test_zassenhaus_tail_raises_grading_error_past_its_depth_bound(wide_bundle, monkeypatch):
    x, y, trunc = wide_bundle.x_plus, wide_bundle.y_plus, wide_bundle.trunc
    monkeypatch.setattr(operators, "ZASSENHAUS_MAX_DEPTH", 1)
    with pytest.raises(GradingError):
        zassenhaus_tail(x, y, trunc)


@pytest.mark.parametrize(
    "pairing", [point_pairing(), hyperbolic2_pairing()], ids=["point", "hyperbolic2"]
)
def test_zassenhaus_tail_matches_the_reference_loop_on_the_flow_parts(pairing):
    trunc = Truncation(3, 8, 6, 2, 4)
    parts = w_omega_parts(pairing, trunc)
    for y in (parts.derivative, parts.contraction):
        want = _reference_zassenhaus_tail(parts.shift, y, trunc)
        assert not want.is_zero()
        assert zassenhaus_tail(parts.shift, y, trunc) == want


# -- exp_apply of the two flows: a wider window truncated is the narrow one -----

FLOW_NARROWING = dict(
    seed=st.integers(0, 2**32),
    pairing=st.sampled_from([point_pairing(), hyperbolic2_pairing()]),
    narrow=st.builds(
        Truncation,
        st.integers(1, 3),
        st.integers(1, 5),
        st.integers(1, 4),
        st.integers(0, 2),
        st.just(0),
    ),
    extra=st.tuples(*[st.integers(0, 2)] * 4),
)


def _flow_windows(narrow: Truncation, extra: tuple) -> Truncation:
    deg, index, u, hbar = extra
    return narrow.replace(
        max_t_degree=narrow.max_t_degree + deg,
        max_var_index=narrow.max_var_index + index,
        max_u_degree=narrow.max_u_degree + u,
        max_hbar_degree=narrow.max_hbar_degree + hbar,
    )


@settings(max_examples=25, deadline=None)
@given(**FLOW_NARROWING)
def test_exp_apply_window_consistency_w_u(seed, pairing, narrow, extra):
    # no flow step raises t-degree or index, or lowers u or hbar
    wide = _flow_windows(narrow, extra)
    colors = pairing.colors()
    pool = [t_var(i, a) for i in range(narrow.max_var_index + 1) for a in colors]
    s = random_series(seed, narrow, 3, variables=pool, max_hbar=1, max_u=1)
    got = build_w_u(pairing, wide).exp_apply(s.truncated(wide)).truncated(narrow)
    assert got == build_w_u(pairing, narrow).exp_apply(s)


@settings(max_examples=25, deadline=None)
@given(**FLOW_NARROWING)
def test_exp_apply_window_consistency_l_plus(seed, pairing, narrow, extra):
    wide = _flow_windows(narrow, extra)
    colors = pairing.colors()
    pool = [q_var(k, a) for k in range(1, narrow.max_var_index + 1) for a in colors]
    s = random_series(seed, narrow, 3, variables=pool, max_hbar=1, max_u=1)
    got = build_virasoro(pairing, wide).l_weighted.exp_apply(s.truncated(wide))
    want = build_virasoro(pairing, narrow).l_weighted.exp_apply(s)
    assert got.truncated(narrow) == want


# -- exp of a derivation is a change of variables --------------------------------


def iterated_exp(op: Operator, s: Series) -> Series:
    """Sum op^k(s)/k! one apply at a time, under the series' window."""
    out = term = s
    k = 0
    while not term.is_zero():
        k += 1
        assert k < 64, "the iteration did not die out"
        term = op.apply(term).scale(Fraction(1, k))
        out = out.add(term)
    return out


DERIVATION_GAINS = [None, PARAM_U, PARAM_HBAR, omega_param(1), omega_param(2)]


def random_derivation(rng: random.Random, index: int) -> Operator:
    """Atoms c * gain * d/dv and c * gain * w d/dv over t[0..index] in two colors.

    An atom without a gain is a pure derivative or lowers the index, so the
    exponential terminates."""
    op = Operator.zero()
    for _ in range(rng.randint(1, 6)):
        v = t_var(rng.randint(0, index), rng.randint(0, 1))
        mult = [t_var(rng.randint(0, index), rng.randint(0, 1))] if rng.random() < 0.7 else []
        gain = rng.choice(DERIVATION_GAINS)
        if gain is None and mult and mult[0].index >= v.index:
            gain = PARAM_U
        params = {} if gain is None else {gain: rng.randint(1, 2)}
        coeff = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        op = op.add(Operator.atom(coeff, params=params, mult=mult, deriv=[v]))
    return op


def random_window_input(rng: random.Random, trunc: Truncation) -> Series:
    terms = {}
    for _ in range(rng.randint(1, 6)):
        vars = [
            (t_var(rng.randint(0, trunc.max_var_index), rng.randint(0, 1)), rng.randint(1, 2))
            for _ in range(rng.randint(0, 2))
        ]
        params = [(rng.choice(PARAMS), 1) for _ in range(rng.randint(0, 2))]
        terms[Monomial.build(vars, params)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Series(trunc, terms)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    trunc=st.builds(
        Truncation,
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 2),
        st.integers(0, 3),
    ),
)
def test_exp_of_derivation_equals_iteration(seed, trunc):
    rng = random.Random(seed)
    op = random_derivation(rng, trunc.max_var_index)
    assert op.is_window_derivation(trunc)
    for s in (random_window_input(rng, trunc), random_window_input(rng, trunc)):
        assert op.exp_apply(s) == iterated_exp(op, s)


def test_exp_apply_iterates_when_a_multiplication_raises_degree():
    trunc = Truncation(2, 3, 4, 0, 0)
    op = Operator.atom(1, params={PARAM_U: 1}, mult=[t_var(0), t_var(0)], deriv=[t_var(1)])
    op = op.add(Operator.atom(1, params={PARAM_U: 1}, deriv=[t_var(0)]))
    assert not op.is_window_derivation(trunc)
    s = Series.of_monomial(trunc, Monomial.build({t_var(1): 2}))
    assert op.exp_apply(s).render() == "1 * t[1,0]^2"
    # t[1] -> exp(op) . t[1], substituted, would be wrong here
    image = iterated_exp(op, Series.of_var(trunc, t_var(1)))
    assert len(s.substitute({t_var(1): image}).terms) == 4


def test_window_derivation_needs_every_variable_in_the_window():
    op = Operator.atom(1, params={PARAM_U: 1}, mult=[t_var(3)], deriv=[t_var(0)])
    assert op.is_window_derivation(Truncation(2, 3, 2, 0, 0))
    assert not op.is_window_derivation(Truncation(2, 2, 2, 0, 0))
    second_order = Operator.atom(1, params={PARAM_U: 1}, deriv=[t_var(0), t_var(1)])
    assert not second_order.is_window_derivation(Truncation(2, 3, 2, 0, 0))


def test_exp_apply_of_one_derivation_in_two_windows():
    # exp(u t[0] d/dt[0]) . t[0] = e^u t[0], cut at each window's u-degree
    atoms = Operator.atom(1, params={PARAM_U: 1}, mult=[t_var(0)], deriv=[t_var(0)]).atoms
    narrow, wide = Truncation(1, 2, 1, 0, 0), Truncation(1, 2, 3, 0, 0)
    for order in ((narrow, wide), (wide, narrow)):
        op = Operator(atoms)
        for trunc in order:
            got = op.exp_apply(Series.of_var(trunc, t_var(0)))
            assert len(got.terms) == trunc.max_u_degree + 1
            assert got == iterated_exp(op, Series.of_var(trunc, t_var(0)))


# atoms over a small alphabet, so that operands often share atoms and cancel
_ATOM = st.builds(
    Operator.atom,
    st.integers(-2, 2),
    st.sampled_from([{}, {PARAM_U: 1}, {PARAM_HBAR: 1, omega_param(1): 2}]),
    st.sampled_from([[], [t_var(0)], [t_var(1), q_var(1)]]),
    st.sampled_from([[t_var(0)], [t_var(1), t_var(1)]]),
)
_OPERAND = st.lists(_ATOM, max_size=4).map(
    lambda atoms: Operator(item for atom in atoms for item in atom.atoms.items())
)
_CANCELLING = Operator.atom(3, {PARAM_U: 1}, [t_var(0)], [t_var(1)])


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(_OPERAND, max_size=5))
@example(ops=[])
@example(ops=[_CANCELLING, _CANCELLING.neg()])
def test_sum_is_the_left_fold_of_add(ops):
    fold = Operator.zero()
    for op in ops:
        fold = fold.add(op)
    total = Operator.sum(iter(ops))
    assert total == fold
    assert all(total.atoms.values())
    # the constructor accumulates the same atoms through its own path
    assert total == Operator(item for op in ops for item in op.atoms.items())


def test_substitute_params_images_each_coupling_monomial_once(monkeypatch):
    # six atoms over two coupling monomials: two images, each scaled per atom
    couplings = [{omega_param(1): 1}, {omega_param(1): 1, PARAM_HBAR: 1}]
    op = Operator.sum(
        Operator.atom(c, couplings[c % 2], [t_var(c)], [t_var(c + 1)])
        for c in range(1, 7)
    )
    trunc = Truncation(3, 8, 6, 2, 4)
    rule = {omega_param(1): Series.of_param(trunc, PARAM_U, 2, Fraction(-1, 12)).add(
        Series.of_param(trunc, PARAM_U, 1)
    )}
    want: dict = {}
    for (params, mult, deriv), c in op.atoms.items():
        carrier = Series.of_monomial(trunc, Monomial((), params), c)
        for m, cc in carrier.substitute(rule).terms.items():
            want[m.params, mult, deriv] = want.get((m.params, mult, deriv), 0) + cc
    calls = []
    original = Series.substitute
    monkeypatch.setattr(
        Series, "substitute", lambda self, r: calls.append(1) or original(self, r)
    )
    got = op.substitute_params(rule, trunc)
    assert len(calls) == 2
    assert got == Operator(want)
    assert len(got.atoms) == 12

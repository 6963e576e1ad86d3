"""Sparse series ring: exactness, truncation, and the substitution homomorphism."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeflow import series, special, witten
from hodgeflow.series import (
    MONOMIAL_ONE,
    Monomial,
    PARAM_HBAR,
    PARAM_U,
    PARAM_Z,
    Series,
    Truncation,
    TruncationError,
    exp_nilpotent,
    exp_terms,
    omega_param,
    q_var,
    random_series,
    t_var,
)
from hodgeflow.special import b_omega

TR = Truncation(3, 8, 6, 2, 4)


def u_pow(n, coeff=1):
    return Series.of_monomial(TR, Monomial.build((), {PARAM_U: n}), coeff)


def test_add_cancellation():
    s = Series.of_var(TR, t_var(0))
    assert s.add(s.neg()).is_zero()


def test_add_like_terms():
    a = u_pow(2, Fraction(1, 2))
    b = u_pow(2, Fraction(1, 3))
    assert a.add(b) == u_pow(2, Fraction(5, 6))


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(0, 10**6), max_size=5), cancel=st.booleans())
def test_sum_is_the_left_fold_of_add(seeds, cancel):
    parts = [random_series(seed, TR, 4, max_hbar=2, max_u=2) for seed in seeds]
    if cancel and parts:
        parts.append(parts[0].neg())
    fold = Series.zero(TR)
    for part in parts:
        fold = fold.add(part)
    total = Series.sum(TR, iter(parts))
    assert total == fold
    assert all(total.terms.values())
    assert total == Series(TR, (item for part in parts for item in part.terms.items()))


def test_sum_rejects_a_foreign_policy():
    other = Truncation(3, 8, 0, 2, 4)
    with pytest.raises(TruncationError):
        Series.sum(TR, [Series.one(TR), Series.one(other)])
    with pytest.raises(TruncationError):
        Series.sum(TR, [Series.one(other)])


def test_add_respects_u_window():
    narrow = Truncation(3, 8, 0, 2, 4)
    t1 = Series.of_var(narrow, t_var(1))
    with_u = Series.of_monomial(
        narrow, Monomial.build({t_var(1): 1}, {PARAM_U: 1})
    )
    assert with_u.is_zero()
    assert t1.add(with_u) == t1


def test_mul_difference_of_squares():
    one = Series.one(TR)
    assert one.add(u_pow(1)).mul(one.sub(u_pow(1))) == one.sub(u_pow(2))


def test_mul_degree_window_drops():
    narrow = Truncation(1, 8, 6, 2, 4)
    t0 = Series.of_var(narrow, t_var(0))
    assert t0.mul(t0).is_zero()


def test_mul_exponential_inverse():
    b = b_omega(TR)
    assert exp_nilpotent(b).mul(exp_nilpotent(b.neg())) == Series.one(TR)


class _Unbounded(Exception):
    pass


def test_exp_terms_raises_its_error_after_exactly_bound_steps():
    steps = []

    def same(s):
        steps.append(s)
        return s

    error = _Unbounded("never dies")
    with pytest.raises(_Unbounded) as caught:
        list(exp_terms(Series.one(TR), same, 5, error))
    assert caught.value is error
    assert len(steps) == 5


@pytest.mark.parametrize("degree", [0, 1, 3])
def test_exp_terms_needs_one_step_past_the_last_nonzero_term(degree):
    # t^k/k! dies at k = degree + 1, which takes degree + 1 steps
    trunc = Truncation(degree, 0, 0, 0, 0)
    t0 = Series.of_var(trunc, t_var(0))
    terms = list(exp_terms(Series.one(trunc), t0.mul, degree + 1, _Unbounded()))
    assert terms == [
        Series.of_monomial(trunc, Monomial.build({t_var(0): k}), Fraction(1, math.factorial(k)))
        for k in range(degree + 1)
    ]
    with pytest.raises(_Unbounded):
        list(exp_terms(Series.one(trunc), t0.mul, degree, _Unbounded()))


def test_exp_nilpotent_raises_truncation_error_past_its_step_bound(monkeypatch):
    b = b_omega(TR)  # its powers die at the fifth
    monkeypatch.setattr(series, "EXP_NILPOTENT_MAX_STEPS", 4)
    with pytest.raises(TruncationError):
        exp_nilpotent(b)
    monkeypatch.setattr(series, "EXP_NILPOTENT_MAX_STEPS", 5)
    assert exp_nilpotent(b).coefficient(MONOMIAL_ONE) == 1


def test_policy_mismatch_raises():
    other = Truncation(2, 8, 6, 2, 4)
    with pytest.raises(TruncationError):
        Series.one(TR).add(Series.one(other))


def test_coefficient_queries():
    s = Series.one(TR).add(Series.of_var(TR, t_var(0), 2))
    assert s.coefficient(Monomial.build({t_var(0): 1})) == 2
    assert Series.zero(TR).coefficient(Monomial.build({t_var(5): 1})) == 0


def test_ring_axioms_on_random_series():
    for seed in range(6):
        f = random_series(seed, TR, 8, max_hbar=1, max_u=2)
        g = random_series(seed + 50, TR, 8, max_hbar=1, max_u=2)
        h = random_series(seed + 100, TR, 8, max_hbar=1, max_u=2)
        assert f.mul(g) == g.mul(f)
        assert f.mul(g).mul(h) == f.mul(g.mul(h))
        assert f.mul(g.add(h)) == f.mul(g).add(f.mul(h))
        assert f.add(g) == g.add(f)


def test_truncation_idempotent():
    s = random_series(3, TR, 10, max_hbar=2, max_u=4)
    narrow = Truncation(2, 5, 2, 1, 2)
    once = s.truncated(narrow)
    assert once.truncated(narrow) == once


def test_substitute_is_homomorphism():
    rule = {
        t_var(1): Series.of_var(TR, q_var(3)).add(
            Series.of_monomial(TR, Monomial.build({q_var(1): 1}, {PARAM_U: 2}))
        ),
        t_var(0): Series.of_var(TR, q_var(1)),
    }
    for seed in (1, 2, 3):
        f = random_series(seed, TR, 6, variables=[t_var(0), t_var(1), t_var(2)])
        g = random_series(seed + 9, TR, 6, variables=[t_var(0), t_var(1), t_var(2)])
        assert f.mul(g).substitute(rule) == f.substitute(rule).mul(g.substitute(rule))


def test_substitute_fixes_constants_and_unlisted_vars():
    c = Series.constant(TR, Fraction(7, 3))
    assert c.substitute({t_var(0): Series.of_var(TR, q_var(1))}) == c
    s = Series.of_var(TR, t_var(2))
    assert s.substitute({t_var(0): Series.zero(TR)}) == s


def test_substitute_trinomial_example():
    target = (
        Series.of_var(TR, q_var(3))
        .add(Series.of_monomial(TR, Monomial.build({q_var(2): 1}, {PARAM_U: 1})))
        .add(Series.of_monomial(TR, Monomial.build({q_var(1): 1}, {PARAM_U: 2})))
    )
    got = Series.of_var(TR, t_var(1)).substitute({t_var(1): target})
    assert got == target


def test_substitute_policy_mismatch():
    narrow = Truncation(3, 4, 6, 2, 4)
    repl = Series.of_var(narrow, q_var(3))
    with pytest.raises(TruncationError):
        Series.of_var(TR, t_var(1)).substitute({t_var(1): repl})


def test_substitute_mixed_rule_equals_variables_then_parameters():
    pool = [t_var(0), t_var(1), t_var(2)]
    s = random_series(5, TR, 12, variables=pool, max_hbar=1, max_u=2)
    s = s.mul(Series.one(TR).add(Series.of_param(TR, omega_param(1), coeff=2)))
    hbar = Series.of_param(TR, PARAM_HBAR)
    q1, q2, q3 = (Series.of_var(TR, q_var(i)) for i in (1, 2, 3))
    # the variable replacements avoid the mapped parameters, so the two orders agree
    var_rule = {
        t_var(0): q1.add(q2.mul(u_pow(1))),
        t_var(1): q3.mul(hbar).sub(Series.constant(TR, Fraction(1, 2))),
    }
    param_rule = {
        omega_param(1): u_pow(2, 3),
        omega_param(2): hbar.sub(Series.constant(TR, Fraction(1, 3))),
    }
    mixed = s.substitute({**var_rule, **param_rule})
    assert mixed == s.substitute(var_rule).substitute(param_rule)
    assert mixed != s.substitute(var_rule)
    with pytest.raises(ValueError):
        s.substitute({PARAM_U: Series.of_var(TR, t_var(0))})


def test_random_series_determinism():
    a = random_series(7, TR, 20)
    b = random_series(7, TR, 20)
    assert a == b and len(a.terms) == 20
    assert random_series(1, TR, 0).is_zero()
    assert not random_series(8, TR, 20) == random_series(9, TR, 20)


def test_render_canonical():
    s = Series.of_monomial(
        TR, Monomial.build({t_var(2): 1}, {PARAM_U: 2}), Fraction(-1, 12)
    )
    assert s.render() == "-1/12 * u^2 * t[2,0]"


def test_build_rejects_negative_entries_even_when_they_cancel():
    with pytest.raises(ValueError):
        Monomial.build([(t_var(0), 1), (t_var(0), -1)])
    with pytest.raises(ValueError):
        Monomial.build((), [(PARAM_U, -2), (PARAM_U, 3)])
    assert Monomial.build([(t_var(0), 0), (t_var(1), 1), (t_var(1), 1)]) == Monomial.build(
        {t_var(1): 2}
    )
    assert Monomial.build([(t_var(0), 0)], {PARAM_U: 0}) == MONOMIAL_ONE


def test_q_var_positivity():
    with pytest.raises(ValueError):
        q_var(0)
    with pytest.raises(ValueError):
        t_var(-1)


def test_hbar_window():
    s = Series.of_monomial(TR, Monomial.build((), {PARAM_HBAR: 3}))
    assert s.is_zero()


def test_truncation_validates_bounds():
    with pytest.raises(ValueError):
        Truncation(-1, 8, 6, 2, 4)


def test_equality_compares_window():
    s = Series.of_var(TR, t_var(0))
    wide = s.truncated(TR.replace(max_t_degree=4))
    assert wide.terms == s.terms
    assert wide != s
    assert wide.truncated(TR) == s


# -- pruned product against the all-pairs reference ----------------------------

VARS = [t_var(0), t_var(1, 1), t_var(3), q_var(1), q_var(2, 1), q_var(5)]
PARAMS = [
    PARAM_U,
    PARAM_HBAR,
    omega_param(1),
    omega_param(2),
    PARAM_Z,
]
WINDOWS = [
    Truncation(3, 5, 3, 2, 4),
    Truncation(4, 5, 0, 0, 0),
    Truncation(2, 1, 4, 0, 0),
    Truncation(2, 5, 0, 3, 0),
    Truncation(2, 5, 1, 1, 6),
]


def graded_series(rng: random.Random, trunc: Truncation, count: int) -> Series:
    """Random series over t/q variables and every kind of parameter; the
    constructor drops what falls outside the window."""
    terms = {}
    for _ in range(count):
        vars = [(rng.choice(VARS), 1) for _ in range(rng.randint(0, 3))]
        params = [(rng.choice(PARAMS), rng.randint(1, 2)) for _ in range(rng.randint(0, 3))]
        terms[Monomial.build(vars, params)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Series(trunc, terms)


def all_pairs_mul(f: Series, g: Series) -> Series:
    out: dict[Monomial, Fraction] = {}
    for ma, ca in f.terms.items():
        for mb, cb in g.terms.items():
            m = Monomial.build(ma.vars + mb.vars, ma.params + mb.params)
            out[m] = out.get(m, 0) + ca * cb
    return Series(f.trunc, out)


@pytest.mark.parametrize("trunc", WINDOWS)
def test_mul_matches_all_pairs_reference(trunc):
    rng = random.Random(repr(trunc))
    for _ in range(8):
        f = graded_series(rng, trunc, rng.randint(1, 40))
        g = graded_series(rng, trunc, rng.randint(1, 40))
        want = all_pairs_mul(f, g)
        assert f.mul(g) == want
        assert g.mul(f) == want
    for special in (Series.zero(trunc), Series.one(trunc), Series.constant(trunc, Fraction(-2, 3))):
        assert f.mul(special) == all_pairs_mul(f, special)
        assert special.mul(f) == all_pairs_mul(special, f)


def test_monomial_mul_matches_build():
    rng = random.Random(11)
    for _ in range(200):
        a = graded_series(rng, Truncation(9, 9, 9, 9, 99), 1)
        b = graded_series(rng, Truncation(9, 9, 9, 9, 99), 1)
        for ma in a.terms:
            for mb in b.terms:
                assert ma.mul(mb) == Monomial.build(ma.vars + mb.vars, ma.params + mb.params)


windows = st.builds(
    Truncation,
    st.integers(0, 3),
    st.integers(0, 5),
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 4),
)


def widened(small: Truncation, extra: tuple[int, ...]) -> Truncation:
    return Truncation(*(bound + more for bound, more in zip(small.as_dict().values(), extra)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    small=windows,
    extra=st.tuples(*[st.integers(0, 2)] * 5),
)
def test_mul_window_consistency(seed, small, extra):
    big = widened(small, extra)
    rng = random.Random(seed)
    f = graded_series(rng, big, 15)
    g = graded_series(rng, big, 15)
    assert f.mul(g).truncated(small) == f.truncated(small).mul(g.truncated(small))


RANDOM_DRAWS = (
    # (window, term_count, variables, max_hbar, max_u) as bridge, theorem and
    # the default window draw them
    (Truncation(2, 13, 14, 0, 0), 6, [t_var(i, a) for i in range(5) for a in (0, 1)], 0, 2),
    (Truncation(6, 15, 8, 3, 0), 8, [t_var(i) for i in range(6)], 3, 0),
    (Truncation(3, 8, 6, 2, 4), 6, None, 2, 4),
)


def _builder_renders():
    for trunc, count, pool, max_hbar, max_u in RANDOM_DRAWS:
        for seed in range(40):
            s = random_series(seed, trunc, count, variables=pool, max_hbar=max_hbar, max_u=max_u)
            yield "random_series", s.render()
    pool = [t_var(i, a) for i in range(4) for a in (0, 1)] + [q_var(1), q_var(3)]
    for m in series.basis_monomials(pool, 3):
        yield "basis_monomials", m.render()
    for trunc in (Truncation(6, 12, 0, 0, 0), Truncation(5, 3, 0, 0, 0)):
        for g in range(4):
            yield "genus_potential", witten.genus_potential(g, trunc).render()
    for weight in range(8):
        yield "q_omega", special.q_omega(Truncation(0, 0, 0, 0, weight)).render()
    yield "rhs_target", repr(sorted(special.rhs_target(16).terms.items()))


# sha256 over each builder's outputs in _builder_renders order, one line each;
# pinned from the builders before they packed their exponents through _pack
BUILDER_DIGESTS = {
    "random_series": "706d5eeef7d05800e66be093faeaf5097a0cb27365eca6f9eacdd0e1db1a7c58",
    "basis_monomials": "0f3a824d44cc5ce1fe279117a8da5ec4948d7a6252912d80aacfe28bca07b647",
    "genus_potential": "ca419c8f79c67f1366afd7a52a47f6c3f6a758782fac72ac58e892f5c4eec213",
    "q_omega": "936d1983dac0ed18483dfe8261ee5e23e82e5966ef99e9a63fee7208b2277d74",
    "rhs_target": "46fe0a0f776e0b1f30e624f71b6e4f708289e3e9e0c9af5ee6ec4b3dabb20604",
}


def test_builder_outputs_are_pinned():
    digests = {}
    for name, text in _builder_renders():
        digests.setdefault(name, hashlib.sha256()).update(text.encode() + b"\n")
    assert {name: h.hexdigest() for name, h in digests.items()} == BUILDER_DIGESTS

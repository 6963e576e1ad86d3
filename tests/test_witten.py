"""The point-case oracle: recursion values, classical equations, series assembly."""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, count
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodgeflow import witten
from hodgeflow.cli import main
from hodgeflow.series import Monomial, PARAM_HBAR, Series, Truncation, exp_terms, t_var
from hodgeflow.witten import (
    _dfac,
    _insertion_multisets,
    _sub_multisets,
    correlator_dimension_ok,
    default_hbar_offset,
    genus_potential,
    intersection,
    z_point,
)

KNOWN_VALUES = [
    (0, (0, 0, 0), Fraction(1)),
    (0, (1, 0, 0, 0), Fraction(1)),
    (0, (2, 0, 0, 0, 0), Fraction(1)),
    (0, (1, 1, 0, 0, 0), Fraction(2)),
    (1, (1,), Fraction(1, 24)),
    (1, (2, 0), Fraction(1, 24)),
    (1, (1, 1), Fraction(1, 24)),
    (1, (3, 0, 0), Fraction(1, 24)),
    (1, (2, 1, 0), Fraction(1, 12)),
    (1, (1, 1, 1), Fraction(1, 12)),
    (2, (4,), Fraction(1, 1152)),
    (2, (5, 0), Fraction(1, 1152)),
    (2, (4, 1), Fraction(1, 384)),
    (2, (3, 2), Fraction(29, 5760)),
    (3, (7,), Fraction(1, 82944)),
    (3, (7, 1), Fraction(5, 82944)),
    (3, (6, 2), Fraction(77, 414720)),
    (3, (5, 3), Fraction(503, 1451520)),
    (3, (4, 4), Fraction(607, 1451520)),
]


@pytest.mark.parametrize("g,ks,want", KNOWN_VALUES)
def test_known_intersection_values(g, ks, want):
    assert intersection(g, ks) == want


def test_dimension_shell():
    assert intersection(1, (2,)) == 0
    assert intersection(0, (0, 0, 0, 0)) == 0
    assert not correlator_dimension_ok(1, (2,))


def test_unstable_cases_vanish():
    assert intersection(0, (0,)) == 0
    assert intersection(0, (0, 0)) == 0


def test_insertion_order_irrelevant():
    assert intersection(2, (0, 5)) == intersection(2, (5, 0))
    assert intersection(1, (2, 1, 0)) == intersection(1, (0, 1, 2))


def test_genus_zero_closed_form():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(3, 8)
        ks = [0] * n
        for _ in range(n - 3):
            ks[rng.randrange(n)] += 1
        want = Fraction(factorial(n - 3))
        for k in ks:
            want /= factorial(k)
        assert intersection(0, tuple(ks)) == want


def _random_valid_key(rng: random.Random):
    while True:
        g = rng.randint(0, 3)
        n = rng.randint(1, 5)
        total = 3 * g - 3 + n
        if total < 0 or 2 * g - 2 + n <= 0:
            continue
        ks = [0] * n
        for _ in range(total):
            ks[rng.randrange(n)] += 1
        return g, tuple(ks)


def test_string_equation_on_random_keys():
    rng = random.Random(23)
    for _ in range(50):
        g, ks = _random_valid_key(rng)
        lhs = intersection(g, ks + (0,))
        rhs = sum(
            intersection(g, ks[:j] + (ks[j] - 1,) + ks[j + 1 :])
            for j in range(len(ks))
            if ks[j] >= 1
        )
        assert lhs == rhs, (g, ks)


def test_dilaton_equation_on_random_keys():
    rng = random.Random(29)
    for _ in range(50):
        g, ks = _random_valid_key(rng)
        lhs = intersection(g, ks + (1,))
        assert lhs == (2 * g - 2 + len(ks)) * intersection(g, ks), (g, ks)


def test_one_point_genus_one_forced_by_base():
    # the recursion on the two-point genus-1 function, eliminated against the
    # string equation, pins the genus-1 constant from the base normalization
    x = intersection(1, (2, 0))
    assert x == intersection(1, (1,))
    assert 15 * x == 3 * intersection(1, (1,)) + Fraction(1, 2) * intersection(
        0, (0, 0, 0)
    )
    assert intersection(1, (1,)) == Fraction(1, 24)


def test_genus_potentials():
    tr = Truncation(3, 6, 0, 4, 0)
    f0 = genus_potential(0, tr)
    assert f0.coefficient(Monomial.build({t_var(0): 3})) == Fraction(1, 6)
    f1 = genus_potential(1, tr)
    assert f1.coefficient(Monomial.build({t_var(1): 1})) == Fraction(1, 24)
    assert f1.coefficient(Monomial.build({t_var(0): 1, t_var(2): 1})) == Fraction(1, 24)


def test_z_point_assembly():
    tr = Truncation(4, 7, 0, 3, 0)
    off = default_hbar_offset(tr)
    assert off == 1
    z = z_point(tr, genus_max=2)
    h = lambda e: {PARAM_HBAR: e} if e else {}
    # genus-0 leading term at true hbar^{-1}
    assert z.coefficient(Monomial.build({t_var(0): 3}, h(off - 1))) == Fraction(1, 6)
    # genus-1 term at true hbar^0
    assert z.coefficient(Monomial.build({t_var(1): 1}, h(off))) == Fraction(1, 24)
    # cross product of genus-0 and genus-1 parts plus the genus-0 five-point term
    got = z.coefficient(Monomial.build({t_var(0): 3, t_var(1): 1}, h(off - 1)))
    assert got == Fraction(1, 6) + Fraction(1, 6) * Fraction(1, 24)
    # genus-2 one-point function at true hbar^1
    assert z.coefficient(Monomial.build({t_var(4): 1}, h(off + 1))) == Fraction(1, 1152)
    # constant term
    assert z.coefficient(Monomial.build((), h(off))) == 1


def test_z_point_offset_too_small_raises():
    tr = Truncation(3, 6, 0, 3, 0)
    with pytest.raises(ValueError, match="hbar offset too small for the window"):
        z_point(tr, genus_max=1, offset=0)


@settings(max_examples=20, deadline=None)
@given(
    narrow=st.builds(
        Truncation,
        st.integers(0, 4),
        st.integers(0, 4),
        st.just(0),
        st.integers(0, 3),
        st.just(0),
    ),
    extra=st.tuples(*[st.integers(0, 2)] * 3),
)
def test_z_point_window_consistency(narrow, extra):
    # offset 2 covers the two genus-0 factors that t-degree <= 6 allows
    wide = narrow.replace(
        max_t_degree=narrow.max_t_degree + extra[0],
        max_var_index=narrow.max_var_index + extra[1],
        max_hbar_degree=narrow.max_hbar_degree + extra[2],
    )
    got = z_point(wide, genus_max=2, offset=2).truncated(narrow)
    assert got == z_point(narrow, genus_max=2, offset=2)


def test_z_point_empty_window_is_one():
    tr = Truncation(2, 6, 0, 2, 0)  # no room for the genus-0 three-point term
    z = z_point(tr, genus_max=0, offset=0)
    assert z.coefficient(Monomial.build(())) == 1
    assert len(z.terms) == 1


def test_intersection_rejects_bad_keys():
    with pytest.raises(ValueError):
        intersection(-1, (0,))
    with pytest.raises(ValueError):
        intersection(0, (-2, 0))


def _full_split_intersection(g, ks, memo):
    """The recursion with the full split loop: every a, every genus, every
    sub-multiset, off-shell factors included (the reference)."""
    ks = tuple(sorted(ks))
    n = len(ks)
    if 2 * g - 2 + n <= 0 or not correlator_dimension_ok(g, ks):
        return Fraction(0)
    if (g, ks) in memo:
        return memo[g, ks]
    if g == 0 and ks == (0, 0, 0):
        return Fraction(1)
    k, rest = ks[-1], ks[:-1]
    if k == 0:
        return Fraction(0)
    total = Fraction(0)
    for j, d in enumerate(rest):
        new = rest[:j] + rest[j + 1 :] + (d + k - 1,)
        total += Fraction(_dfac(d + k - 1), _dfac(d - 1)) * _full_split_intersection(
            g, new, memo
        )
    for a in range(0, k - 1):
        b = k - 2 - a
        w = Fraction(_dfac(a) * _dfac(b), 2)
        if g >= 1:
            total += w * _full_split_intersection(g - 1, rest + (a, b), memo)
        for g1 in range(0, g + 1):
            g2 = g - g1
            for left, right, ways in _sub_multisets(rest):
                if 2 * g1 - 2 + len(left) + 1 <= 0:
                    continue
                if 2 * g2 - 2 + len(right) + 1 <= 0:
                    continue
                total += (
                    w
                    * ways
                    * _full_split_intersection(g1, left + (a,), memo)
                    * _full_split_intersection(g2, right + (b,), memo)
                )
    if k == 1 and not rest and g == 1:
        total += Fraction(1, 8)
    memo[g, ks] = total / _dfac(k)
    return memo[g, ks]


def test_on_shell_splits_match_the_full_split_loop(monkeypatch):
    monkeypatch.setattr(witten, "_MEMO", {})
    memo = {}
    checked = 0
    for g in range(0, 4):
        for n in range(1, 6):
            want = 3 * g - 3 + n
            if want < 0:
                continue
            for ks in _insertion_multisets(n, want, want):
                assert intersection(g, ks) == _full_split_intersection(g, ks, memo), (g, ks)
                checked += 1
    assert checked == 140


def _strata_z_point(trunc, genus_max, offset=None):
    """The z_point of per-genus exponentials merged by true hbar exponent (the
    reference for the single exponential of sum_g hbar^g F_g)."""
    if offset is None:
        offset = default_hbar_offset(trunc)
    strata = {0: Series.one(trunc)}
    for g in range(0, genus_max + 1):
        f_g = genus_potential(g, trunc)
        if f_g.is_zero():
            continue
        powers = {}
        power = Series.one(trunc)
        k = 0
        while not power.is_zero():
            powers.setdefault(k * (g - 1), []).append(power)
            k += 1
            if k > trunc.max_t_degree + 1:
                break
            power = power.mul(f_g).scale(Fraction(1, k))
        expo = {e: Series.sum(trunc, parts) for e, parts in powers.items()}
        merged = {}
        for e1, s1 in strata.items():
            for e2, s2 in expo.items():
                prod = s1.mul(s2)
                if not prod.is_zero():
                    merged.setdefault(e1 + e2, []).append(prod)
        strata = {e: Series.sum(trunc, parts) for e, parts in merged.items()}
    shifted = []
    for e, s in strata.items():
        if s.is_zero():
            continue
        if e + offset < 0:
            raise ValueError("hbar offset too small for the window")
        shifted.append(s.mul_monomial(Monomial.build((), {PARAM_HBAR: e + offset})))
    return Series.sum(trunc, shifted)


def _z_point_or_error(build, trunc, genus_max, offset):
    try:
        return build(trunc, genus_max, offset)
    except ValueError:
        return ValueError


def test_z_point_matches_the_per_genus_strata_reference():
    outcomes = {"equal": 0, "raised": 0}
    for t_degree in range(0, 6):
        for index in (3, 5):
            for hbar in (0, 3):
                trunc = Truncation(t_degree, index, 0, hbar, 0)
                for genus_max in range(0, 4):
                    for offset in (None, 0, 1, 2, 3):
                        want = _z_point_or_error(_strata_z_point, trunc, genus_max, offset)
                        got = _z_point_or_error(z_point, trunc, genus_max, offset)
                        assert got == want, (trunc, genus_max, offset)
                        outcomes["raised" if want is ValueError else "equal"] += 1
    assert sum(outcomes.values()) == 480
    assert outcomes["raised"] and outcomes["equal"]


# -- the first oracle, kept as the reference of the t-degree recurrence ---------

_REFERENCE_MEMO = {}


def _reference_intersection(g, ks):
    """The recursion as first written: the key sorted on every entry, one
    transfer term per insertion and Fraction weights throughout."""
    if g < 0 or any(k < 0 for k in ks):
        raise ValueError("invalid correlator key")
    key = (g, tuple(sorted(ks)))
    ks = key[1]
    n = len(ks)
    if 2 * g - 2 + n <= 0 or not correlator_dimension_ok(g, ks):
        return Fraction(0)
    got = _REFERENCE_MEMO.get(key)
    if got is not None:
        return got
    if g == 0 and ks == (0, 0, 0):
        return Fraction(1)
    k, rest = ks[-1], ks[:-1]
    if k == 0:
        return Fraction(0)
    total = Fraction(0)
    for j, d in enumerate(rest):
        new = rest[:j] + rest[j + 1 :] + (d + k - 1,)
        total += Fraction(_dfac(d + k - 1), _dfac(d - 1)) * _reference_intersection(g, new)
    if g >= 1:
        for a in range(0, k - 1):
            b = k - 2 - a
            w = Fraction(_dfac(a) * _dfac(b), 2)
            total += w * _reference_intersection(g - 1, rest + (a, b))
    splits = list(_sub_multisets(rest))
    for g1 in range(0, g + 1):
        for left, right, ways in splits:
            a = 3 * g1 - 2 + len(left) - sum(left)
            if not 0 <= a <= k - 2:
                continue
            left_value = _reference_intersection(g1, left + (a,))
            if not left_value:
                continue
            b = k - 2 - a
            w = Fraction(_dfac(a) * _dfac(b), 2)
            total += w * ways * left_value * _reference_intersection(g - g1, right + (b,))
    if k == 1 and not rest and g == 1:
        total += Fraction(1, 8)
    value = total / _dfac(k)
    _REFERENCE_MEMO[key] = value
    return value


def _reference_insertion_multisets(n, total, max_index):
    for combo in combinations_with_replacement(range(min(total, max_index) + 1), n):
        if sum(combo) == total:
            yield combo


def _reference_genus_potential(g, trunc):
    terms = {}
    for n in range(1, trunc.max_t_degree + 1):
        want = 3 * g - 3 + n
        if want < 0:
            continue
        for ks in _reference_insertion_multisets(n, want, trunc.max_var_index):
            value = _reference_intersection(g, ks)
            if not value:
                continue
            counts = Counter(ks)
            mono = Monomial.build({t_var(k): e for k, e in counts.items()})
            if trunc.admits(mono):
                terms[mono] = value / prod(factorial(c) for c in counts.values())
    return Series(trunc, terms)


def _power_loop_z_point(trunc, genus_max, offset=None):
    """Sum of H^k/k! for H = sum_g hbar^g F_g, one full product per power, each
    power shifted by hbar^(offset - k)."""
    if offset is None:
        offset = default_hbar_offset(trunc)
    wide = trunc.replace(max_hbar_degree=trunc.max_hbar_degree + trunc.max_t_degree)
    h = Series.sum(
        wide,
        (
            _reference_genus_potential(g, wide).mul_monomial(
                Monomial.build((), {PARAM_HBAR: g})
            )
            for g in range(genus_max + 1)
        ),
    )
    ks = count(1)

    def step(power):
        k = next(ks)
        kept = {}
        for m, c in h.mul(power).terms.items():
            d, _, e, _ = m.grade()
            if e + offset - k - (trunc.max_t_degree - d) // 3 <= trunc.max_hbar_degree:
                kept[m] = c
        return Series(wide, kept, _clean=True)

    error = ValueError("exp of the free energy outlived the t-degree window")
    powers = exp_terms(Series.one(wide), step, trunc.max_t_degree + 1, error)
    shifted = []
    for k, power in enumerate(powers):
        for m, c in power.terms.items():
            stored = m.grade()[2] + offset - k
            if stored < 0:
                raise ValueError(
                    "hbar offset too small for the window: raise offset or shrink degree"
                )
            shifted.append((Monomial.build(m.vars, {PARAM_HBAR: stored}), c))
    return Series(trunc, shifted)


_ORACLE_WINDOWS = st.builds(
    Truncation,
    st.integers(0, 6),
    st.integers(0, 9),
    st.just(0),
    st.integers(0, 4),
    st.just(0),
)


@settings(max_examples=40, deadline=None)
@given(trunc=_ORACLE_WINDOWS, genus_max=st.integers(0, 3), raise_offset=st.integers(0, 1))
@example(trunc=Truncation(6, 9, 0, 4, 0), genus_max=3, raise_offset=0)
@example(trunc=Truncation(6, 9, 0, 4, 0), genus_max=3, raise_offset=1)
def test_z_point_matches_the_power_loop_term_for_term(trunc, genus_max, raise_offset):
    offset = default_hbar_offset(trunc) + raise_offset
    want = _power_loop_z_point(trunc, genus_max, offset)
    got = z_point(trunc, genus_max, offset)
    assert got.terms == want.terms
    if not raise_offset:
        assert z_point(trunc, genus_max).terms == want.terms


@settings(max_examples=40, deadline=None)
@given(trunc=_ORACLE_WINDOWS, genus_max=st.integers(0, 3), offset=st.integers(-1, 2))
def test_z_point_raises_where_the_power_loop_does(trunc, genus_max, offset):
    # an offset below the default leaves a term of negative stored exponent
    # whenever a genus-0 factor fits the window
    want = _z_point_or_error(_power_loop_z_point, trunc, genus_max, offset)
    got = _z_point_or_error(z_point, trunc, genus_max, offset)
    if want is ValueError:
        assert got is ValueError
    else:
        assert got.terms == want.terms


@settings(max_examples=60, deadline=None)
@given(g=st.integers(0, 3), n=st.integers(1, 6), max_index=st.integers(-1, 9))
def test_oracle_keys_and_values_match_the_first_recursion(g, n, max_index):
    want = 3 * g - 3 + n
    keys = list(_insertion_multisets(n, want, max_index))
    assert keys == list(_reference_insertion_multisets(n, want, max_index))
    for ks in keys:
        assert intersection(g, ks) == _reference_intersection(g, ks), (g, ks)


def test_oracle_table_matches_the_genus_4_golden(capsys):
    # the table of the first recursion, written before the recurrence replaced it
    argv = ["oracle", "--genus-max", "4", "--max-insertions", "7", "--max-index", "12"]
    assert main(argv) == 0
    golden = Path(__file__).parent / "golden" / "oracle-g4.json"
    out = capsys.readouterr().out
    assert out == golden.read_text()
    assert len(json.loads(out)) == 772

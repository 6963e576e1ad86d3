"""Sparse truncated multivariate formal power series over exact rationals.

Variables come in two worlds that are never aliased:

* ``t[n,a]`` with n >= 0 — the descendant variables the flow operators act on;
* ``q[n,a]`` with n >= 1 — the variables living downstream of the change of
  variables (q with n <= 0 is identically zero and may not be constructed).

Formal parameters ride along in every monomial: ``u``, ``hbar``, the weighted
couplings ``w[l]`` (weight 2l-1), and the expansion letters ``z``, ``x``, ``y``.
The letters z, x, y are stored with non-negative exponents; which power
orientation an exponent encodes (z vs 1/z) is documented at each producing
site, and they carry no truncation weight of their own.

Truncation is a hard window: any monomial exceeding a bound is dropped by
every ring operation.  All operations are pure; Series values are treated as
immutable.
"""

from __future__ import annotations

import dataclasses
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

__all__ = [
    "VarId",
    "ParamId",
    "Monomial",
    "Truncation",
    "Requirement",
    "Series",
    "TruncationError",
    "t_var",
    "q_var",
    "PARAM_U",
    "PARAM_HBAR",
    "PARAM_Z",
    "PARAM_X",
    "PARAM_Y",
    "omega_param",
    "basis_monomials",
    "random_series",
    "exp_terms",
    "exp_nilpotent",
]


class TruncationError(ValueError):
    """Raised on truncation-policy mismatch or an unrepresentable overflow."""


class VarId(NamedTuple):
    kind: str  # "t" or "q"
    index: int
    color: int

    def render(self) -> str:
        return f"{self.kind}[{self.index},{self.color}]"


def t_var(index: int, color: int = 0) -> VarId:
    if index < 0:
        raise ValueError("t-variables need index >= 0")
    return VarId("t", index, color)


def q_var(index: int, color: int = 0) -> VarId:
    if index < 1:
        raise ValueError("q-variables vanish for index <= 0")
    return VarId("q", index, color)


class ParamId(NamedTuple):
    kind: str  # "u", "hbar", "w", "z", "x", "y"
    index: int

    def render(self) -> str:
        if self.kind in ("u", "hbar", "z", "x", "y"):
            return self.kind
        return f"{self.kind}[{self.index}]"


PARAM_U = ParamId("u", 0)
PARAM_HBAR = ParamId("hbar", 0)
PARAM_Z = ParamId("z", 0)
PARAM_X = ParamId("x", 0)
PARAM_Y = ParamId("y", 0)


def omega_param(l: int) -> ParamId:
    """Coupling w[l], carrying weight 2l-1."""
    if l < 1:
        raise ValueError("omega parameters start at l = 1")
    return ParamId("w", l)


class Monomial(NamedTuple):
    """Canonical sparse monomial: sorted ((id, exp), ...) tuples, no zero exps."""

    vars: tuple[tuple[VarId, int], ...]
    params: tuple[tuple[ParamId, int], ...]

    @staticmethod
    def build(
        vars: Mapping[VarId, int] | Iterable[tuple[VarId, int]] = (),
        params: Mapping[ParamId, int] | Iterable[tuple[ParamId, int]] = (),
    ) -> "Monomial":
        return Monomial(_pack(vars), _pack(params))

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(
            _merge_exps(self.vars, other.vars), _merge_exps(self.params, other.params)
        )

    def grade(self) -> tuple[int, int, int, int]:
        """(t-degree, u-degree, hbar-degree, omega-weight), the windowed grades.

        Each grade adds under ``mul``; a coupling w[l] weighs 2l-1.
        """
        deg = 0
        for _, e in self.vars:
            deg += e
        u = h = w = 0
        for p, e in self.params:
            k = p.kind
            if k == "u":
                u += e
            elif k == "hbar":
                h += e
            elif k == "w":
                w += (2 * p.index - 1) * e
        return deg, u, h, w

    def render(self) -> str:
        parts = [p.render() + (f"^{e}" if e > 1 else "") for p, e in self.params]
        parts += [v.render() + (f"^{e}" if e > 1 else "") for v, e in self.vars]
        return " * ".join(parts) if parts else "1"


MONOMIAL_ONE = Monomial((), ())


def _accumulate(out: dict, key: object, c: Fraction | int) -> None:
    """out[key] += c, deleting the key when the sum cancels to zero."""
    acc = out.get(key)
    if acc is None:
        out[key] = c
    else:
        acc += c
        if acc:
            out[key] = acc
        else:
            del out[key]


def _pack(entries: Mapping | Iterable[tuple]) -> tuple:
    """Canonical sorted ((id, exp), ...) tuple of a multiset; zero entries dropped.

    The one builder of exponent tuples.  Every entry must be non-negative, so
    no sum can cancel to a stored zero exponent.
    """
    d: dict = {}
    for k, e in entries.items() if isinstance(entries, Mapping) else entries:
        if e < 0:
            raise ValueError("negative exponents are not representable")
        if e:
            d[k] = d.get(k, 0) + e
    return tuple(sorted(d.items()))


def _merge_exps(a: tuple, b: tuple) -> tuple:
    """Product of two canonical ((id, exp), ...) tuples: a sorted merge."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ka, ea = a[i]
        kb, eb = b[j]
        if ka == kb:
            out.append((ka, ea + eb))
            i += 1
            j += 1
        elif ka < kb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    if i < la:
        out.extend(a[i:])
    elif j < lb:
        out.extend(b[j:])
    return tuple(out)


@dataclass(frozen=True)
class Truncation:
    """Finite window: everything outside it is identically dropped.

    max_t_degree bounds total degree in t/q variables jointly; max_var_index
    bounds every variable index; u exponents count against max_u_degree and
    w[l] weights against max_omega_weight.  z, x, y are not windowed here.
    """

    max_t_degree: int
    max_var_index: int
    max_u_degree: int
    max_hbar_degree: int
    max_omega_weight: int

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            if getattr(self, field.name) < 0:
                raise ValueError(f"{field.name} must be >= 0")

    def admits(self, m: Monomial) -> bool:
        """Whether m lies in the window: the one judge of every bound."""
        for v, _ in m.vars:
            if v.index > self.max_var_index:
                return False
        deg, u, h, w = m.grade()
        return (
            deg <= self.max_t_degree
            and u <= self.max_u_degree
            and h <= self.max_hbar_degree
            and w <= self.max_omega_weight
        )

    def t_reach(self) -> int:
        """The largest t-index k whose u = 0 image q[2k+1] is in the window."""
        return (self.max_var_index - 1) // 2

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)

    def replace(self, **kw: int) -> "Truncation":
        return dataclasses.replace(self, **kw)


class Requirement(NamedTuple):
    """A lower bound on a Truncation field, and why a window below it is refused."""

    field: str
    bound: int
    reason: str

    def holds(self, trunc: Truncation) -> bool:
        return getattr(trunc, self.field) >= self.bound


class Series:
    """Sparse map Monomial -> Fraction under a fixed Truncation.

    Stored terms never contain zero coefficients or out-of-window monomials.
    """

    __slots__ = ("terms", "trunc")

    def __init__(
        self,
        trunc: Truncation,
        terms: Mapping[Monomial, Fraction] | Iterable[tuple[Monomial, Fraction]] = (),
        _clean: bool = False,
    ) -> None:
        self.trunc = trunc
        if _clean:
            self.terms: dict[Monomial, Fraction] = dict(terms)
            return
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Monomial, Fraction] = {}
        for m, c in items:
            if c != 0 and trunc.admits(m):
                _accumulate(clean, m, Fraction(c))
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(trunc: Truncation) -> "Series":
        return Series(trunc, (), _clean=True)

    @staticmethod
    def constant(trunc: Truncation, value: Fraction | int) -> "Series":
        value = Fraction(value)
        if value == 0:
            return Series.zero(trunc)
        return Series(trunc, {MONOMIAL_ONE: value})

    @staticmethod
    def one(trunc: Truncation) -> "Series":
        return Series.constant(trunc, 1)

    @staticmethod
    def of_monomial(
        trunc: Truncation, m: Monomial, coeff: Fraction | int = 1
    ) -> "Series":
        return Series(trunc, {m: Fraction(coeff)})

    @staticmethod
    def of_var(trunc: Truncation, v: VarId, coeff: Fraction | int = 1) -> "Series":
        return Series.of_monomial(trunc, Monomial.build({v: 1}), coeff)

    @staticmethod
    def of_param(trunc: Truncation, p: ParamId, exp: int = 1, coeff: Fraction | int = 1) -> "Series":
        return Series.of_monomial(trunc, Monomial.build((), {p: exp}), coeff)

    # -- ring operations ----------------------------------------------------

    def _check_policy(self, other: "Series") -> None:
        if self.trunc != other.trunc:
            raise TruncationError("mismatched truncation policies")

    @staticmethod
    def sum(trunc: Truncation, parts: Iterable["Series"]) -> "Series":
        """The sum of series under one policy, every term accumulated once into one map."""
        out: dict[Monomial, Fraction] | None = None
        for part in parts:
            if part.trunc != trunc:
                raise TruncationError("mismatched truncation policies")
            if out is None:
                out = dict(part.terms)
                continue
            for m, c in part.terms.items():
                _accumulate(out, m, c)
        return Series(trunc, out or {}, _clean=True)

    def add(self, other: "Series") -> "Series":
        return Series.sum(self.trunc, (self, other))

    def neg(self) -> "Series":
        return Series(self.trunc, {m: -c for m, c in self.terms.items()}, _clean=True)

    def sub(self, other: "Series") -> "Series":
        return self.add(other.neg())

    def scale(self, value: Fraction | int) -> "Series":
        value = Fraction(value)
        if value == 0:
            return Series.zero(self.trunc)
        return Series(
            self.trunc, {m: c * value for m, c in self.terms.items()}, _clean=True
        )

    def mul(self, other: "Series") -> "Series":
        """Truncated product visiting only pairs whose grades fit the window.

        Every grade adds under products and the window bounds each one, so a
        pair whose summed t-degree, u, hbar or omega grade exceeds its bound
        can never be admitted; such pairs are skipped before any monomial is
        built.  Survivors still pass through ``admits``.
        """
        self._check_policy(other)
        if not self.terms or not other.terms:
            return Series.zero(self.trunc)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        tr = self.trunc
        admits = tr.admits
        # the larger factor by t-degree, so each term's partners are a prefix
        graded = sorted(
            (m.grade() + (m, c) for m, c in b.items()), key=lambda g: g[0]
        )
        degs = [g[0] for g in graded]
        out: dict[Monomial, Fraction] = {}
        for ma, ca in a.items():
            da, ua, ha, wa = ma.grade()
            lu = tr.max_u_degree - ua
            lh = tr.max_hbar_degree - ha
            lw = tr.max_omega_weight - wa
            for _, ub, hb, wb, mb, cb in graded[: bisect_right(degs, tr.max_t_degree - da)]:
                if ub > lu or hb > lh or wb > lw:
                    continue
                m = ma.mul(mb)
                if admits(m):
                    _accumulate(out, m, ca * cb)
        return Series(self.trunc, out, _clean=True)

    def mul_monomial(self, m: Monomial, coeff: Fraction | int = 1) -> "Series":
        coeff = Fraction(coeff)
        admits = self.trunc.admits
        out: dict[Monomial, Fraction] = {}
        for mm, c in self.terms.items():
            prod = mm.mul(m)
            if admits(prod):
                out[prod] = c * coeff
        return Series(self.trunc, out, _clean=True)

    def power(self, n: int) -> "Series":
        if n < 0:
            raise ValueError("negative powers are not representable")
        out = Series.one(self.trunc)
        base = self
        while n:
            if n & 1:
                out = out.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return out

    # -- queries ------------------------------------------------------------

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.trunc == other.trunc and self.terms == other.terms

    def variables(self) -> set[VarId]:
        return {v for m in self.terms for v, _ in m.vars}

    def truncated(self, trunc: Truncation) -> "Series":
        return Series(trunc, self.terms)

    # -- substitution ---------------------------------------------------------

    def substitute(self, rule: Mapping[VarId | ParamId, "Series"]) -> "Series":
        """Ring homomorphism sending mapped variables and parameters to replacements.

        Keys are variables or formal parameters; unlisted ones map to
        themselves and the replacement series are not substituted again.
        Parameter replacements must be variable-free.  Replacements share this
        series' policy, so they carry only admissible monomials; whatever a
        product pushes outside the window is dropped like any other ring
        operation.
        """
        for key, repl in rule.items():
            self._check_policy(repl)
            if isinstance(key, ParamId) and any(m.vars for m in repl.terms):
                raise ValueError("parameter replacements must be variable-free")
        powers: dict[tuple[VarId | ParamId, int], Series] = {}

        def split(exps: tuple, factors: list[Series]) -> tuple:
            """Keep the unmapped exponents; queue the powers of the mapped ones."""
            kept = []
            for key, e in exps:
                if key not in rule:
                    kept.append((key, e))
                    continue
                power = powers.get((key, e))
                if power is None:
                    power = powers[key, e] = rule[key].power(e)
                factors.append(power)
            return tuple(kept)

        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            factors: list[Series] = []
            head = Monomial(split(m.vars, factors), split(m.params, factors))
            term = Series.of_monomial(self.trunc, head, c)
            for f in factors:
                term = term.mul(f)
                if term.is_zero():
                    break
            for mm, cc in term.terms.items():
                _accumulate(out, mm, cc)
        return Series(self.trunc, out, _clean=True)

    # -- rendering ------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c} * {m.render()}" for m, c in self.sorted_terms())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Series({self.render()})"


_T = TypeVar("_T")

# exp_nilpotent's step bound; a series the window kills needs far fewer
EXP_NILPOTENT_MAX_STEPS = 10_000


def exp_terms(
    start: _T, step: Callable[[_T], _T], bound: int, error: Exception
) -> Iterator[_T]:
    """step^k(start)/k! for k = 0, 1, ... up to, not including, the first zero term.

    Works on any value with ``scale`` and ``is_zero`` (Series, Operator,
    ZLaurent).  Raises ``error`` after ``bound`` steps if the last term is
    still nonzero, that is, when more than ``bound`` steps would be needed.
    """
    term = start
    k = 0
    while not term.is_zero():
        yield term
        k += 1
        if k > bound:
            raise error
        term = step(term).scale(Fraction(1, k))


def exp_nilpotent(s: Series) -> Series:
    """exp of a series with no constant term that dies under the window.

    Each power is computed under the series' truncation; iteration stops at the
    first vanishing power, which the caller guarantees by grading (every term
    must carry positive weight in some windowed quantity or positive degree).
    """
    if s.coefficient(MONOMIAL_ONE) != 0:
        raise ValueError("exp_nilpotent needs a series without constant term")
    error = TruncationError("exp did not terminate under the window")
    powers = exp_terms(Series.one(s.trunc), s.mul, EXP_NILPOTENT_MAX_STEPS, error)
    return Series.sum(s.trunc, powers)


def basis_monomials(variables: Iterable[VarId], max_degree: int) -> Iterator[Monomial]:
    """All monomials of total degree <= max_degree over the given variables."""
    pool = sorted(set(variables))
    for d in range(max_degree + 1):
        for combo in combinations_with_replacement(pool, d):
            yield Monomial.build((v, 1) for v in combo)


def random_series(
    seed: int,
    trunc: Truncation,
    term_count: int,
    variables: Iterable[VarId] | None = None,
    max_hbar: int = 0,
    max_u: int = 0,
) -> Series:
    """Deterministic pseudo-random series inside the window.

    Same seed, same bounds: identical output.  Coefficients are small nonzero
    rationals; monomials are drawn over `variables` (default: colorless t-vars
    up to the window's index bound) with optional hbar / u powers.
    """
    rng = random.Random(seed)
    pool = (
        sorted(set(variables))
        if variables is not None
        else [t_var(i) for i in range(trunc.max_var_index + 1)]
    )
    if not pool and term_count:
        raise ValueError("empty variable pool")
    terms: dict[Monomial, Fraction] = {}
    attempts = 0
    while len(terms) < term_count:
        attempts += 1
        if attempts > 200 * (term_count + 1):
            raise ValueError("window too small for the requested term count")
        deg = rng.randint(0, trunc.max_t_degree)
        # the draw order (variables, then hbar, then u) fixes the output per seed
        draws = [(rng.choice(pool), 1) for _ in range(deg)]
        params = []
        if max_hbar:
            params.append((PARAM_HBAR, rng.randint(0, max_hbar)))
        if max_u:
            params.append((PARAM_U, rng.randint(0, max_u)))
        m = Monomial.build(draws, params)
        if not trunc.admits(m) or m in terms:
            continue
        num = rng.randint(-9, 9)
        if num == 0:
            num = 1
        terms[m] = Fraction(num, rng.randint(1, 4))
    return Series(trunc, terms)

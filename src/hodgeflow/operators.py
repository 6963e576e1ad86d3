"""Polynomial-coefficient differential operators in normal-ordered form.

An operator is a finite sum of atoms

    coeff * (parameter monomial) * (product of variables) * (product of d/dv)

with every multiplication standing to the left of every derivative.  Products
of operators are normal-ordered symbolically (Leibniz rewriting), so
commutators are again closed-form operators and can feed further brackets.

Exponentials act on Series values only.  An operator whose atoms are all
c*p*d/dv or c*p*w*d/dv is a derivation, and its exponential is a ring
automorphism: ``exp_apply`` then computes exp(op) . v once for each variable v
of the series and substitutes.  Any other operator sums op^k(s)/k! on the
whole series.  Either way the sum is finite whenever every atom strictly
increases a windowed parameter weight or strictly decreases variable degree
or index-sum.  That witness is checked up front; operators violating it are
rejected rather than iterated.

``apply`` sums on integer numerators: the atoms share one denominator d_op
and the input is scaled by the lcm d_s of its denominators, so each output
monomial gets one Fraction over d_s * d_op.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice, product
from typing import Callable, Iterable, Iterator, Mapping

from .pairing import Pairing
from .report import Mismatch, Report, MAX_RECORDED_MISMATCHES
from .series import (
    Monomial,
    ParamId,
    Series,
    Truncation,
    VarId,
    _accumulate,
    _merge_exps,
    _pack,
    basis_monomials,
    exp_terms,
)

__all__ = [
    "Operator",
    "contraction",
    "GradingError",
    "OperatorClassError",
    "zassenhaus_tail",
    "first_mismatch",
    "check",
    "exp_basis_cases",
]

ExpTuple = tuple[tuple[VarId, int], ...]
ParamTuple = tuple[tuple[ParamId, int], ...]
AtomKey = tuple[ParamTuple, ExpTuple, ExpTuple]


class GradingError(ValueError):
    """Operator exponential would not terminate under the given window."""


class OperatorClassError(ValueError):
    """Operator is outside the Lie-algebra class a construction requires."""


def _without(exps: ExpTuple, taken: dict[VarId, int]) -> ExpTuple:
    return tuple((v, e - taken.get(v, 0)) for v, e in exps if e > taken.get(v, 0))


def _contractions(
    left: "Operator", right: "Operator", out: dict[AtomKey, Fraction], sign: int
) -> None:
    """Add sign times the Leibniz terms of left . right that contract a derivative.

    Moving d^a/dv^a past v^b gives sum_j C(a, j) P(b, j) v^(b-j) d^(a-j)/dv^(a-j);
    every choice of j per shared variable other than all-zero is emitted here.
    Only right atoms that multiply by one of a left atom's derivative
    variables are visited, each once.
    """
    entries = []
    by_var: dict[VarId, list[int]] = {}
    for (pb, mb, db), cb in right.atoms.items():
        for v, _ in mb:
            by_var.setdefault(v, []).append(len(entries))
        entries.append((pb, mb, dict(mb), db, cb))
    if not by_var:
        return
    for (pa, ma, da), ca in left.atoms.items():
        for i in dict.fromkeys(i for v, _ in da for i in by_var.get(v, ())):
            pb, mb, mb_d, db, cb = entries[i]
            shared = [(v, a, mb_d[v]) for v, a in da if v in mb_d]
            params = _merge_exps(pa, pb)
            base = ca * cb
            counts = product(*(range(min(a, b) + 1) for _, a, b in shared))
            for js in islice(counts, 1, None):
                weight = sign
                taken: dict[VarId, int] = {}
                for (v, a, b), j in zip(shared, js):
                    if j:
                        weight *= math.comb(a, j) * math.perm(b, j)
                        taken[v] = j
                key = (
                    params,
                    _merge_exps(ma, _without(mb, taken)),
                    _merge_exps(_without(da, taken), db),
                )
                _accumulate(out, key, base * weight)


class Operator:
    # operators are immutable, so what ``apply`` builds is cached per operator
    __slots__ = ("atoms", "_apply_index")

    def __init__(
        self,
        atoms: Mapping[AtomKey, Fraction] | Iterable[tuple[AtomKey, Fraction]] = (),
        _clean: bool = False,
    ) -> None:
        self._apply_index: tuple[int, dict[VarId | None, list]] | None = None
        if _clean:
            self.atoms: dict[AtomKey, Fraction] = dict(atoms)
            return
        items = atoms.items() if isinstance(atoms, Mapping) else atoms
        clean: dict[AtomKey, Fraction] = {}
        for key, c in items:
            if c:
                _accumulate(clean, key, Fraction(c))
        self.atoms = clean

    # -- construction --------------------------------------------------------

    @staticmethod
    def zero() -> "Operator":
        return Operator((), _clean=True)

    @staticmethod
    def atom(
        coeff: Fraction | int,
        params: Mapping[ParamId, int] | Iterable[tuple[ParamId, int]] = (),
        mult: Iterable[VarId] = (),
        deriv: Iterable[VarId] = (),
    ) -> "Operator":
        """Single normal-ordered atom; mult/deriv are variable multisets."""
        key = (
            _pack(params),
            _pack((v, 1) for v in mult),
            _pack((v, 1) for v in deriv),
        )
        return Operator({key: Fraction(coeff)})

    # -- linear structure ------------------------------------------------------

    @staticmethod
    def sum(ops: Iterable["Operator"]) -> "Operator":
        """The sum of the operators, every atom accumulated once into one map."""
        out: dict[AtomKey, Fraction] = {}
        for op in ops:
            for key, c in op.atoms.items():
                _accumulate(out, key, c)
        return Operator(out, _clean=True)

    def add(self, other: "Operator") -> "Operator":
        return Operator.sum((self, other))

    def neg(self) -> "Operator":
        return Operator({k: -c for k, c in self.atoms.items()}, _clean=True)

    def sub(self, other: "Operator") -> "Operator":
        return self.add(other.neg())

    def scale(
        self,
        value: Fraction | int,
        extra_params: Mapping[ParamId, int] | Iterable[tuple[ParamId, int]] = (),
    ) -> "Operator":
        value = Fraction(value)
        if value == 0:
            return Operator.zero()
        # the same extra exponents keep distinct atoms distinct: nothing merges
        extra = _pack(extra_params)
        return Operator(
            {
                (_merge_exps(params, extra), mult, deriv): c * value
                for (params, mult, deriv), c in self.atoms.items()
            },
            _clean=True,
        )

    def is_zero(self) -> bool:
        return not self.atoms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operator):
            return NotImplemented
        return self.atoms == other.atoms

    # -- composition and brackets ----------------------------------------------

    def compose(self, other: "Operator") -> "Operator":
        """Normal-ordered product self . other (self acts after other)."""
        out: dict[AtomKey, Fraction] = {}
        for (pa, ma, da), ca in self.atoms.items():
            for (pb, mb, db), cb in other.atoms.items():
                key = (_merge_exps(pa, pb), _merge_exps(ma, mb), _merge_exps(da, db))
                _accumulate(out, key, ca * cb)
        _contractions(self, other, out, 1)
        return Operator(out, _clean=True)

    def commutator(self, other: "Operator") -> "Operator":
        """[self, other] from the contracted Leibniz terms alone.

        The uncontracted part of a . b is the plain product of each atom pair,
        which equals that of b . a, so it cancels and is never built.
        """
        out: dict[AtomKey, Fraction] = {}
        _contractions(self, other, out, 1)
        _contractions(other, self, out, -1)
        return Operator(out, _clean=True)

    # -- action on series ---------------------------------------------------------

    def _index(self) -> tuple[int, dict[VarId | None, list]]:
        """The atoms' common denominator d_op, and the atoms grouped by their
        first derivative variable (None: no derivative).

        An atom can act on a monomial only if the monomial contains that
        variable, so ``apply`` visits the None group and the groups of the
        monomial's variables, each atom exactly once.  Each entry carries the
        u, hbar and omega grades the atom adds and its integer numerator
        c * d_op.
        """
        if self._apply_index is None:
            d_op = math.lcm(*(c.denominator for c in self.atoms.values()))
            index: dict[VarId | None, list] = {}
            for (params, mult, deriv), c in self.atoms.items():
                gain = Monomial(mult, params)
                _, u, h, w = gain.grade()
                num = c.numerator * (d_op // c.denominator)
                index.setdefault(deriv[0][0] if deriv else None, []).append(
                    (u, h, w, deriv, dict(deriv), gain, num)
                )
            self._apply_index = d_op, index
        return self._apply_index

    def apply(self, s: Series) -> Series:
        trunc = s.trunc
        admits = trunc.admits
        d_op, index = self._index()
        free = index.get(None)
        d_s = math.lcm(*(c.denominator for c in s.terms.values()))
        out: dict[Monomial, int] = {}
        for mono, coeff in s.terms.items():
            num = coeff.numerator * (d_s // coeff.denominator)
            var_d = dict(mono.vars)
            _, mu, mh, mw = mono.grade()
            lu = trunc.max_u_degree - mu
            lh = trunc.max_hbar_degree - mh
            lw = trunc.max_omega_weight - mw
            groups = [index[v] for v in var_d if v in index]
            if free:
                groups.append(free)
            for group in groups:
                for u, h, w, deriv, deriv_d, gain, anum in group:
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
                        if admits(new_mono):
                            _accumulate(out, new_mono, num * anum * weight)
        den = d_s * d_op
        return Series(trunc, {m: Fraction(n, den) for m, n in out.items()}, _clean=True)

    def _check_termination(self) -> None:
        for (params, mult, deriv) in self.atoms:
            _, u, h, w = Monomial((), params).grade()
            if u + h + w >= 1:
                continue
            mult_deg = sum(e for _, e in mult)
            deriv_deg = sum(e for _, e in deriv)
            if deriv_deg > mult_deg:
                continue
            if deriv_deg == mult_deg:
                mult_idx = sum(v.index * e for v, e in mult)
                deriv_idx = sum(v.index * e for v, e in deriv)
                if deriv_idx > mult_idx:
                    continue
            raise GradingError(
                "atom with no strict gain in any windowed grading: "
                + _render_atom((params, mult, deriv))
            )

    def exp_apply(self, s: Series) -> Series:
        """Sum_{k>=0} op^k(s)/k!, exact and finite under the window's grading.

        For a derivation inside the window (``is_window_derivation``) this is
        s with each variable v replaced by exp(op) . v, which is exact.  No
        step of the iteration raises t-degree or leaves the index window, and
        the only grades the window then cuts (u, hbar, omega) never fall; so
        the truncated iteration equals the truncation of the exact exp(op), a
        ring automorphism.  Products in the window are exact because the
        monomials outside it form an ideal.
        """
        if self.is_zero():
            return s
        trunc = s.trunc
        self._check_termination()
        if not self.is_window_derivation(trunc):
            return self._exp_iterate(s)
        return s.substitute(
            {v: self._exp_iterate(Series.of_var(trunc, v)) for v in s.variables()}
        )

    def _exp_iterate(self, s: Series) -> Series:
        """Sum_{k>=0} op^k(s)/k! term by term, within a bound on the steps."""
        trunc = s.trunc
        param_budget = (
            trunc.max_u_degree + trunc.max_hbar_degree + trunc.max_omega_weight
        )
        step_bound = (
            (param_budget + 1)
            * (trunc.max_t_degree + 1)
            * (trunc.max_var_index * trunc.max_t_degree + 2)
            + 8
        )
        error = GradingError("exp_apply exceeded its termination bound")
        return Series.sum(trunc, exp_terms(s, self.apply, step_bound, error))

    # -- window pruning -------------------------------------------------------

    def truncate(self, trunc: Truncation) -> "Operator":
        """Drop atoms that cannot act within the window (sound on the truncated ring)."""
        return Operator(
            {
                (params, mult, deriv): c
                for (params, mult, deriv), c in self.atoms.items()
                if trunc.admits(Monomial((), params))
                and all(v.index <= trunc.max_var_index for v, _ in mult + deriv)
            },
            _clean=True,
        )

    # -- parameter substitution ---------------------------------------------------

    def substitute_params(
        self, rule: Mapping[ParamId, Series], trunc: Truncation
    ) -> "Operator":
        """Replace formal parameters in every atom (replacements parameter-only).

        The atoms share few coupling monomials: each one's image is computed
        once and scaled by every atom that carries it.
        """
        images: dict[tuple, dict[Monomial, Fraction]] = {}
        out: dict[AtomKey, Fraction] = {}
        for (params, mult, deriv), c in self.atoms.items():
            image = images.get(params)
            if image is None:
                carrier = Series.of_monomial(trunc, Monomial((), params))
                image = images[params] = carrier.substitute(rule).terms
            for m, cc in image.items():
                _accumulate(out, (m.params, mult, deriv), c * cc)
        return Operator(out, _clean=True)

    # -- shape queries ------------------------------------------------------------

    def is_window_derivation(self, trunc: Truncation) -> bool:
        """Every atom is c*p*d/dv or c*p*w*d/dv (one first-order derivative, a
        multiplication of t-degree <= 1) and every variable lies in the window."""
        limit = trunc.max_var_index
        for _, mult, deriv in self.atoms:
            if len(deriv) != 1 or deriv[0][1] != 1 or deriv[0][0].index > limit:
                return False
            if mult and (len(mult) > 1 or mult[0][1] > 1 or mult[0][0].index > limit):
                return False
        return True

    # -- rendering -----------------------------------------------------------------

    def sorted_atoms(self) -> list[tuple[AtomKey, Fraction]]:
        return sorted(self.atoms.items(), key=lambda kv: kv[0])

    def render(self) -> str:
        if not self.atoms:
            return "0"
        return "  +  ".join(_render_atom(key, c) for key, c in self.sorted_atoms())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Operator({self.render()})"


def contraction(
    pairing: Pairing,
    var: Callable[[int, int], VarId],
    i: int,
    j: int,
    coeff: Fraction | int,
    params: Mapping[ParamId, int] | Iterable[tuple[ParamId, int]] = (),
) -> Operator:
    """coeff * params * sum_{mu,nu} eta^{mu nu} d/dvar(i, mu) d/dvar(j, nu): the one
    place a pair of derivatives is colored through the inverse pairing."""
    return Operator.sum(
        Operator.atom(coeff * v, params=params, deriv=[var(i, mu), var(j, nu)])
        for mu, nu, v in pairing.inverse_entries()
    )


def _render_atom(key: AtomKey, coeff: Fraction | None = None) -> str:
    """One atom as "coeff * params * mults d/d..."; without coeff, its name."""
    params, mult, deriv = key
    bits = [] if coeff is None else [str(coeff)]
    bits += [p.render() + (f"^{e}" if e > 1 else "") for p, e in params]
    bits += [v.render() + (f"^{e}" if e > 1 else "") for v, e in mult]
    body = " * ".join(bits)
    for v, e in deriv:
        body += f" d/d{v.render()}" + (f"^{e}" if e > 1 else "")
    return body.lstrip()


def first_mismatch(tag: str, lhs: object, rhs: object) -> Mismatch:
    """The first monomial or atom, in sorted order, where two unequal sides differ.

    For two Series or two Operators the mismatch reads "{tag} at {monomial or
    atom}" with the coefficient on each side; scalar sides are shown whole.
    """
    if isinstance(lhs, Series):
        left, right, render = lhs.terms, rhs.terms, Monomial.render
    elif isinstance(lhs, Operator):
        left, right, render = lhs.atoms, rhs.atoms, _render_atom
    else:
        return Mismatch(tag, str(lhs), str(rhs))
    zero = Fraction(0)
    bad = min(
        k for k in left.keys() | right.keys() if left.get(k, zero) != right.get(k, zero)
    )
    return Mismatch(
        monomial=f"{tag} at {render(bad)}",
        lhs=str(left.get(bad, zero)),
        rhs=str(right.get(bad, zero)),
    )


# One case of an identity: a tag naming it and the two sides, which are two
# Series, two Operators or two scalars.
Case = tuple[str, object, object]


def check(
    identity: str, pairing_name: str, trunc: Truncation, cases: Iterable[Case]
) -> Report:
    """Evaluate and count every case; the identity passes iff every case's sides are equal.

    The first MAX_RECORDED_MISMATCHES failing cases are named through
    first_mismatch; ``cases`` is the full count whether or not the check passed.
    """
    count = 0
    mismatches: list[Mismatch] = []
    for tag, lhs, rhs in cases:
        count += 1
        if lhs != rhs and len(mismatches) < MAX_RECORDED_MISMATCHES:
            mismatches.append(first_mismatch(tag, lhs, rhs))
    return Report(
        identity=identity,
        pairing=pairing_name,
        truncation=trunc.as_dict(),
        passed=not mismatches,
        cases=count,
        mismatches=mismatches,
    )


def exp_basis_cases(
    whole: Operator,
    orders: list[tuple[str, list[Operator]]],
    trunc: Truncation,
    variables: Iterable[VarId],
    degree: int,
) -> Iterator[Case]:
    """exp(whole) . m against exp(ops[0]) ... exp(ops[-1]) . m, one case per basis
    monomial m of total degree <= degree (the rightmost operator acts first).

    Each (tag, ops) in orders is one factoring; a case covers all of them and
    carries the first that differs from exp(whole) . m, or the last if none does.
    """
    for mono in basis_monomials(variables, degree):
        start = Series.of_monomial(trunc, mono)
        lhs = whole.exp_apply(start)
        for tag, ops in orders:
            rhs = start
            for op in reversed(ops):
                rhs = op.exp_apply(rhs)
            if rhs != lhs:
                break
        yield f"{tag} . {mono.render()}", lhs, rhs


# zassenhaus_tail's depth bound; the towers of the windows checked die far sooner
ZASSENHAUS_MAX_DEPTH = 64


def zassenhaus_tail(x_op: Operator, y_op: Operator, trunc: Truncation) -> Operator:
    """Sum_{n>=1} (-1)^{n-1}/n! ad_x^{n-1} y, pruned to the window.

    Valid as the right exponent of exp(x + y) = exp(x) exp(tail) whenever the
    pair satisfies [x, y]-stability with abelian y-class.  The j-th term of the
    tower (-ad_x)^j y / j! enters divided by j + 1.
    """
    tower = exp_terms(
        y_op.truncate(trunc),
        lambda term: term.commutator(x_op).truncate(trunc),
        ZASSENHAUS_MAX_DEPTH,
        GradingError("ad-tower did not die out within the window"),
    )
    return Operator.sum(term.scale(Fraction(1, j + 1)) for j, term in enumerate(tower))


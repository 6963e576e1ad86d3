"""Symmetric nondegenerate rational pairings and their exact inverses."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

__all__ = ["Pairing", "point_pairing", "hyperbolic2_pairing", "pairing_from_spec"]

Matrix = tuple[tuple[Fraction, ...], ...]


def _invert(mat: Matrix) -> Matrix:
    """Exact Gauss-Jordan inverse; raises on a singular matrix."""
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("pairing matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class Pairing:
    """(N+1) x (N+1) symmetric invertible matrix eta with its exact inverse."""

    __slots__ = ("name", "eta", "eta_inv", "rank")

    def __init__(self, name: str, eta: Sequence[Sequence[Fraction | int | str]]) -> None:
        rows = tuple(tuple(Fraction(x) for x in row) for row in eta)
        n = len(rows)
        if any(len(row) != n for row in rows) or n == 0:
            raise ValueError("pairing matrix must be square and nonempty")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("pairing matrix must be symmetric")
        self.name = name
        self.eta: Matrix = rows
        self.eta_inv: Matrix = _invert(rows)
        self.rank = n

    def colors(self) -> range:
        return range(self.rank)

    def inverse_entries(self) -> list[tuple[int, int, Fraction]]:
        """Nonzero (mu, nu, eta^{mu nu}) triples."""
        out = []
        for mu in range(self.rank):
            for nu in range(self.rank):
                v = self.eta_inv[mu][nu]
                if v:
                    out.append((mu, nu, v))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pairing({self.name}, rank={self.rank})"


def point_pairing() -> Pairing:
    return Pairing("point", [[1]])


def hyperbolic2_pairing() -> Pairing:
    return Pairing("hyperbolic2", [[0, 1], [1, 0]])


def _exact(entry: object) -> Fraction:
    """A pairing-file entry: an integer or a rational string; a float, a bool or a
    zero denominator is rejected, never rounded or coerced."""
    if isinstance(entry, bool) or not isinstance(entry, (int, str)):
        raise ValueError(f"eta entry {entry!r} is not an integer or a rational string")
    try:
        return Fraction(entry)
    except ZeroDivisionError:
        raise ValueError(f"eta entry {entry!r} has a zero denominator") from None


def pairing_from_spec(spec: str) -> Pairing:
    """Resolve "point", "hyperbolic2", or a JSON file {rank, eta} whose eta is a
    list of rows of integers or rational strings."""
    if spec == "point":
        return point_pairing()
    if spec == "hyperbolic2":
        return hyperbolic2_pairing()
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read pairing file {spec}: {exc.strerror}") from exc
    if not isinstance(data, dict) or "eta" not in data:
        raise ValueError('pairing file needs a JSON object with an "eta" matrix')
    eta = data["eta"]
    if not isinstance(eta, list) or not all(isinstance(row, list) for row in eta):
        raise ValueError("eta must be a list of rows of integers or rational strings")
    pairing = Pairing(data.get("name", spec), [[_exact(x) for x in row] for row in eta])
    rank = data.get("rank", pairing.rank)
    if isinstance(rank, bool) or not isinstance(rank, int):
        raise ValueError(f"declared rank {rank!r} is not an integer")
    if rank != pairing.rank:
        raise ValueError("declared rank does not match the eta matrix")
    return pairing

"""Structured outcomes of verification runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Report", "Mismatch"]

MAX_RECORDED_MISMATCHES = 5


@dataclass(frozen=True)
class Mismatch:
    monomial: str
    lhs: str
    rhs: str

    def as_dict(self) -> dict[str, str]:
        return {"monomial": self.monomial, "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class Report:
    """Outcome of one identity check at a finite window; pass means exact equality."""

    identity: str
    pairing: str
    truncation: dict[str, int]
    passed: bool
    cases: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "identity": self.identity,
            "pairing": self.pairing,
            "truncation": self.truncation,
            "status": "pass" if self.passed else "fail",
            "cases": self.cases,
            "mismatches": [m.as_dict() for m in self.mismatches],
        }

    def summary_line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        line = f"{tag} {self.identity} [{self.pairing}] cases={self.cases}"
        if self.mismatches:
            first = self.mismatches[0]
            line += f" first_mismatch={first.monomial}: {first.lhs} != {first.rhs}"
        return line

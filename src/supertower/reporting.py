"""Check records shared by the verification suites and the batch driver."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CheckRecord:
    """One verified identity: what was checked, at which indices, both sides."""

    check: str
    indices: tuple
    passed: bool
    lhs: str = ""
    rhs: str = ""
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "indices": list(self.indices),
            "pass": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "detail": self.detail,
        }


def all_passed(records: list[CheckRecord]) -> bool:
    return all(r.passed for r in records)


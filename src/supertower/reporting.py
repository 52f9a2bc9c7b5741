"""Check records shared by the verification suites and the batch driver."""

from __future__ import annotations

from .values import Record


class CheckRecord(Record):
    """One verified identity: what was checked, at which indices, both sides."""

    def __init__(self, check: str, indices: tuple, passed: bool,
                 lhs: str = "", rhs: str = "", detail: str = ""):
        self.check = check
        self.indices = indices
        self.passed = passed
        self.lhs = lhs
        self.rhs = rhs
        self.detail = detail

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


"""Check records shared by the verification suites and the batch driver."""

from __future__ import annotations


class CheckRecord:
    """One verified identity: what was checked, at which indices, both sides."""

    def __init__(self, check: str, indices: tuple, passed: bool,
                 lhs: str = "", rhs: str = "", detail: str = ""):
        self.check = check
        self.indices = indices
        self.passed = passed
        self.lhs = lhs
        self.rhs = rhs
        self.detail = detail

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

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


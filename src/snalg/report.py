"""Structured pass/fail/skip reports for the verification suites.

Every verification routine returns a Report: a named bundle of sub-checks,
each either passing, failing (with a witness), or skipped (with the reason).
Reports render as indented text for humans and as JSON objects for the
command-line tools.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Check", "Report"]

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


class Check:
    """A single named sub-check inside a report."""

    __slots__ = ("name", "status", "note", "witness")

    def __init__(self, name: str, status: str, note: str = "", witness: Optional[str] = None):
        if status not in (PASS, FAIL, SKIP):
            raise ValueError(f"unknown status {status!r}")
        self.name = name
        self.status = status
        self.note = note
        self.witness = witness

    def to_json_obj(self) -> dict:
        obj: dict = {"name": self.name, "status": self.status}
        if self.note:
            obj["note"] = self.note
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj

    def __repr__(self) -> str:
        return f"Check({self.name!r}, {self.status!r})"


class Report:
    """A verification report: context, sub-checks, and summary data."""

    def __init__(self, name: str, **context):
        self.name = name
        self.context = dict(context)
        self.checks: list[Check] = []
        self.data: dict = {}

    def add(self, name: str, passed: bool, note: str = "", witness: Optional[str] = None) -> bool:
        self.checks.append(Check(name, PASS if passed else FAIL, note, witness))
        return passed

    def skip(self, name: str, note: str) -> None:
        self.checks.append(Check(name, SKIP, note))

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "report": self.name,
            "context": self.context,
            "passed": self.passed,
            "data": self.data,
            "checks": [c.to_json_obj() for c in self.checks],
        }

    def __str__(self) -> str:
        ctx = ", ".join(f"{k}={v}" for k, v in self.context.items())
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"{self.name}({ctx}): {verdict}"]
        for key, value in self.data.items():
            lines.append(f"    {key} = {value}")
        for c in self.checks:
            suffix = f" -- {c.note}" if c.note else ""
            if c.witness is not None:
                suffix += f" [witness: {c.witness}]"
            lines.append(f"  [{c.status}] {c.name}{suffix}")
        return "\n".join(lines)

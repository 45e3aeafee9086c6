"""Structured pass/fail reports for structural identity checks.

Every checker in this package returns a Report: a named, ordered list of
entries, each recording one exact matrix identity together with, on failure,
the first offending matrix entry (row/column basis labels and the exact
rational residual).  Rendering is deterministic byte for byte.

An identity lhs = rhs passes as soon as the two maps are stored alike, which
costs one comparison.  Only otherwise is the residual lhs - rhs computed: it
is zero for maps that are equal but stored differently, and its first nonzero
entry is the witness of a failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .linalg import LinAlgError, LinearMap


@dataclass(frozen=True)
class ReportEntry:
    name: str
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        d = {"name": self.name, "passed": self.passed}
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass
class Report:
    title: str
    entries: list[ReportEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.entries.append(ReportEntry(name, passed, detail))

    def check_zero(self, name: str, diff: LinearMap) -> None:
        """Record whether a difference map is exactly zero."""
        nz = diff.first_nonzero()
        if nz is None:
            self.add(name, True)
        else:
            i, j, v = nz
            self.add(
                name,
                False,
                f"first residual {v} at row {diff.target.labels[i]!r}, "
                f"column {diff.source.labels[j]!r}",
            )

    def check_equal(self, name: str, lhs: LinearMap, rhs: LinearMap) -> None:
        if lhs.shape != rhs.shape:
            self.add(name, False, f"shape mismatch {lhs.shape} vs {rhs.shape}")
            return
        if lhs == rhs:
            self.add(name, True)
        else:
            self.check_zero(name, lhs - rhs)

    def extend(self, other: "Report", prefix: str = "") -> None:
        for e in other.entries:
            self.entries.append(ReportEntry(prefix + e.name, e.passed, e.detail))

    def first_failure(self) -> Optional[ReportEntry]:
        for e in self.entries:
            if not e.passed:
                return e
        return None

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [e.as_dict() for e in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), separators=(",", ": "), indent=2)

    def to_text(self) -> str:
        lines = [f"{self.title}: {'PASS' if self.passed else 'FAIL'}"]
        for e in self.entries:
            mark = "ok " if e.passed else "FAIL"
            line = f"  [{mark}] {e.name}"
            if e.detail:
                line += f" -- {e.detail}"
            lines.append(line)
        return "\n".join(lines)


def require(report: Report, context: str = "") -> Report:
    """Raise LinAlgError if a report failed; used where a failure is a usage error."""
    if not report.passed:
        bad = report.first_failure()
        where = f" [{context}]" if context else ""
        raise LinAlgError(
            f"{report.title}{where}: check {bad.name!r} failed"
            + (f" ({bad.detail})" if bad.detail else "")
        )
    return report

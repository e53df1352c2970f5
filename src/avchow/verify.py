"""Verification checks and deterministic report aggregation.

A check is one recomputation with a frozen expected value.  Checks run
one after another and the report sorts results by check id, so the output
does not depend on the order in which the checks were built.  A check
that cannot be evaluated from the presentations is reported as skipped,
never silently asserted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check: frozen expectation vs fresh recomputation."""

    id: str
    citation: str
    expected: str
    computed: str
    status: str


@dataclass(frozen=True)
class Check:
    """A single verification item.

    ``group`` is the scope the check belongs to (a ring name, a table id
    like "table:3g", or a suite name); ``parent`` optionally nests a table
    under its owning ring or suite so that the wider scope includes it.
    ``evaluate`` does the work and returns (expected, computed, status).
    """

    id: str
    group: str
    citation: str
    evaluate: Callable[[], tuple[str, str, str]]
    parent: str | None = None

    def run(self) -> CheckResult:
        try:
            expected, computed, status = self.evaluate()
        except Exception as err:  # a crash is a failure, not a missing row
            return CheckResult(self.id, self.citation, "(evaluation)", f"error: {type(err).__name__}: {err}", FAIL)
        return CheckResult(self.id, self.citation, expected, computed, status)


class VerificationReport:
    """Sorted check results plus pass/fail/skipped totals."""

    def __init__(self, results: list[CheckResult]):
        self.results = sorted(results, key=lambda r: r.id)

    @property
    def counts(self) -> dict[str, int]:
        totals = {"pass": 0, "fail": 0, "skipped": 0}
        for result in self.results:
            totals[result.status] += 1
        return totals

    @property
    def ok(self) -> bool:
        return self.counts["fail"] == 0

    def __len__(self) -> int:
        return len(self.results)

    def to_json_dict(self) -> dict:
        return {
            "checks": [
                {
                    "id": r.id,
                    "citation": r.citation,
                    "expected": r.expected,
                    "computed": r.computed,
                    "status": r.status,
                }
                for r in self.results
            ],
            "summary": self.counts,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_text(self) -> str:
        tag = {PASS: "PASS", FAIL: "FAIL", SKIPPED: "SKIP"}
        lines = []
        for r in self.results:
            lines.append(f"[{tag[r.status]}] {r.id}: expected {r.expected}, computed {r.computed}  ({r.citation})")
        counts = self.counts
        lines.append(
            f"{len(self.results)} checks: {counts['pass']} passed, "
            f"{counts['fail']} failed, {counts['skipped']} skipped"
        )
        return "\n".join(lines)


def run_checks(checks: list[Check]) -> VerificationReport:
    """Run checks in order and aggregate them deterministically."""
    return VerificationReport([check.run() for check in checks])

"""Suite configuration, verification reports, and their serializations.

Reports are deterministic: given the same configuration and seed the JSON
output is byte-identical except for the ``durations`` block, which holds
the wall-clock time each suite spent in its own sides; building the point
contexts that all suites share is charged to none.  All rational values
appear as exact ``p/r`` strings; no floats ever enter the identity records.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .errors import InvalidInputError
from .points import QPoint

REPORT_FORMATS = ("json", "csv")

# Largest n_max grid mode accepts; grids grow quickly with n.
GRID_NMAX_CAP = 6

_CSV_COLUMNS = (
    "id",
    "range",
    "points",
    "status",
    "counterexample_q",
    "counterexample_a",
    "counterexample_index",
    "counterexample_lhs",
    "counterexample_rhs",
)


@dataclass(frozen=True)
class SuiteConfig:
    """What to verify and how.

    ``n_max = None`` means each suite uses its own default range.  In grid
    mode the points come from degree-bound grids instead of sampling, and
    ``n_max`` may not exceed ``GRID_NMAX_CAP``.
    """

    suite: str
    n_max: int | None = None
    mode: str = "random"
    trials: int = 25
    seed: int = 0
    bound: int = 1000
    explicit_points: tuple[QPoint, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ("random", "grid"):
            raise InvalidInputError(
                f"unknown mode {self.mode!r} (expected 'random' or 'grid')"
            )
        if self.n_max is not None and self.n_max < 0:
            raise InvalidInputError("n_max must be >= 0")
        if self.mode == "grid" and self.n_max is not None and self.n_max > GRID_NMAX_CAP:
            raise InvalidInputError(f"grid mode supports n_max <= {GRID_NMAX_CAP}")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        if self.bound < 2:
            raise InvalidInputError("bound must be >= 2")


@dataclass(frozen=True)
class Counterexample:
    """First failing instance of an identity: where, which index, both sides."""

    q: str
    a: str
    index: str
    lhs: str
    rhs: str

    def as_dict(self) -> dict[str, str]:
        return {
            "point": {"q": self.q, "a": self.a},
            "index": self.index,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    range: str
    points: int
    status: str  # "pass" or "fail"
    counterexample: Counterexample | None = None

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "id": self.id,
            "range": self.range,
            "points": self.points,
            "status": self.status,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.as_dict()
        return out


@dataclass
class VerificationReport:
    config: dict[str, object]
    identities: list[IdentityRecord] = field(default_factory=list)
    durations: dict[str, float] = field(default_factory=dict)

    def passed(self) -> bool:
        return all(record.status == "pass" for record in self.identities)

    def sorted_records(self) -> list[IdentityRecord]:
        return sorted(self.identities, key=lambda record: record.id)

    def as_dict(self) -> dict[str, object]:
        return {
            "config": self.config,
            "identities": [r.as_dict() for r in self.sorted_records()],
            "durations": {k: self.durations[k] for k in sorted(self.durations)},
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for record in self.sorted_records():
            ce = record.counterexample
            failure = (ce.q, ce.a, ce.index, ce.lhs, ce.rhs) if ce else ("",) * 5
            head = record.id, record.range, record.points, record.status
            writer.writerow((*head, *failure))
        return buffer.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise InvalidInputError(f"unknown report format {fmt!r} (expected json or csv)")


def emit_report(report: VerificationReport, fmt: str, path: str) -> None:
    """Serialize the report to a file; raises InvalidInputError on bad format."""
    text = report.render(fmt)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)

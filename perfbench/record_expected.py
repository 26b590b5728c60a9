"""Record the expected reports the benchmark checks its outputs against.

Writes ``perfbench/expected/<workload>.json``: the reports (``durations``
stripped) of every distinct pass a run makes at the committed seed.  Run it
from the repository root, only after a change that is meant to alter a report:

    python3 perfbench/record_expected.py [workload ...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def dump(expected: dict) -> str:
    """JSON text with one pass's reports per line."""
    lines = ",\n".join(json.dumps(reports) for reports in expected["passes"])
    return f'{{"seed": {expected["seed"]}, "passes": [\n{lines}\n]}}\n'


def record(name: str) -> None:
    seed = workloads.COMMITTED_SEED
    blocks = workloads.blocks(name, workloads.make_inputs(name, seed))
    passes = []
    for points in blocks:
        result = workloads.run_pass(name, points)
        passes.append([workloads.stripped(report) for report in result.reports])
    path = workloads.expected_path(name)
    path.parent.mkdir(exist_ok=True)
    path.write_text(dump({"seed": seed, "passes": passes}))
    print(f"wrote {path.relative_to(ROOT)}: {len(passes)} passes")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(workloads.WORKLOADS):
        record(name)

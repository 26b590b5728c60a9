"""Run the verification suites programmatically and emit a JSON report.

Random mode samples admissible points deterministically (SplitMix64 under a
seed), so reports reproduce byte-for-byte.  Grid mode replaces sampling with
degree-bound grids: a passing grid run proves the identity as a
rational-function identity for each checked index, because the cleared
difference is a polynomial of bounded degree vanishing on a large enough
grid.
"""

import json
import tempfile
from pathlib import Path

from qmoments import SuiteConfig, degree_bound, emit_report, run_suite

config = SuiteConfig(suite="all", n_max=6, trials=8, seed=7, bound=100)
report = run_suite(config)
print("random mode, all suites, n_max=6, 8 points, seed 7:")
for record in report.sorted_records():
    print(f"  {record.id:<12} {record.range:<34} {record.status}")
print(f"overall: {'pass' if report.passed() else 'fail'}\n")

out = Path(tempfile.gettempdir()) / "qmoments_report.json"
emit_report(report, "json", str(out))
data = json.loads(out.read_text())
print(f"report written to {out} ({len(data['identities'])} identities)")
print("top-level keys:", sorted(data))

print("\ndegree bounds behind grid mode (conjecture):")
for n in range(5):
    dq, da = degree_bound("conjecture", n)
    print(f"  n={n}: grid of {dq + 1} q-values x {da + 1} a-values")

grid_report = run_suite(SuiteConfig(suite="conjecture", mode="grid", n_max=3))
record = grid_report.identities[0]
print(
    f"\ngrid mode conjecture n<=3: {record.status} "
    f"after {record.points} exact evaluations"
)
print("a pass here is a proof of the moment identity for those indices.")

"""Workload definitions, input generation, one timed pass, and the output check.

A pass is one closed-loop batch: the caller invokes ``run_suite`` once per
suite, in ``SUITE_IDS`` order, and waits for each verdict before the next.
Random-mode workloads draw ``points`` distinct points from the seed and make
one pass per point; grid mode derives its points from the degree bounds and
makes a single pass.  The benchmark repeats each pass, every time in a fresh
child process, so no repeat can reuse what an earlier one computed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from qmoments import degrees, sampling, suites
from qmoments.points import QPoint
from qmoments.report import SuiteConfig

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
COMMITTED_SEED = 1
HEIGHT = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    n_max: dict  # suite -> n_max passed to run_suite (None: the suite default)
    points: int = 0  # random mode: distinct points drawn, one pass each


WORKLOADS = {
    w.name: w
    for w in (
        # Everyday `verify --suite all`: every suite at its default range on
        # medium operands; every point has a distinct q.
        Workload(
            "random-all",
            "random",
            {suite: None for suite in suites.SUITE_IDS},
            points=4,
        ),
        # Thousands of grid points with small operands; each q repeats down a
        # column of a values.  Every suite runs up to the index at which its
        # grid still finishes in seconds.
        Workload(
            "grid-proof",
            "grid",
            {
                "conjecture": 3,
                "expansion": 1,
                "induction": 0,
                "theorem": 0,
                "hankel": 1,
                "lemmas": 1,
                "hermite": 4,
            },
        ),
        # One point per pass at large indices: operands of 10^4 bits and
        # more, with conjecture and hankel dominating.
        Workload(
            "deep-moments",
            "random",
            {
                "conjecture": 40,
                "expansion": 10,
                "induction": 8,
                "theorem": 8,
                "hankel": 14,
                "lemmas": 20,
                "hermite": 12,
            },
            points=1,
        ),
    )
}


def make_inputs(name: str, seed: int):
    """Everything a run feeds the program, made from the seed alone.

    Random mode: one single-point tuple per pass.  Grid mode: the planned
    number of grid points per suite, from the degree bounds (a pure function
    of the workload, so the seed does not change grid inputs).

    Random points have full height: q and a are p/r in lowest terms with
    HEIGHT/2 < |p|, r <= HEIGHT.  Cost grows with the height, so no pass gets
    cheap because its draw came out small, and passes of one run, and runs
    of different seeds, do comparable work.
    """
    workload = WORKLOADS[name]
    if workload.mode == "grid":
        plan = {}
        for suite, n_max in workload.n_max.items():
            total = 0
            for n in range(n_max + 1):
                dq, da = degrees.degree_bound(suite, n)
                total += (dq + 1) * (da + 1)
            plan[suite] = total
        return plan
    return [(point,) for point in _full_height_points(workload.points, seed)]


def _full_height_points(count: int, seed: int) -> list[QPoint]:
    rng = sampling.SplitMix64(seed)

    def draw() -> Fraction:
        while True:
            num = rng.randint(HEIGHT // 2 + 1, HEIGHT) * (-1) ** rng.randint(0, 1)
            den = rng.randint(HEIGHT // 2 + 1, HEIGHT)
            if math.gcd(num, den) == 1:
                return Fraction(num, den)

    # Coprime p, r with p != +-r keep q off {0, 1, -1} and a off -1.
    return [QPoint(draw(), draw()) for _ in range(count)]


def blocks(name: str, inputs) -> list[tuple]:
    """The explicit points of each distinct pass: one single-point tuple per
    random point, or one empty tuple for a grid pass."""
    if WORKLOADS[name].mode == "grid":
        return [()]
    return list(inputs)


def _index_points(workload: Workload, suite: str, report) -> int:
    """(point, index) pairs one suite call checked."""
    if workload.mode == "grid":
        return report.identities[0].points
    n_max = workload.n_max[suite]
    if n_max is None:
        n_max = suites.DEFAULT_NMAX[suite]
    return report.identities[0].points * (n_max + 1)


@dataclass
class PassResult:
    verify_s: float
    suite_s: dict
    index_points: int
    reports: list
    host_s: dict  # suite -> (probe before, probe after); empty without a probe


def run_pass(name: str, points, probe=None) -> PassResult:
    """One closed-loop batch over every suite of the workload.

    ``probe``, if given, is called right before and right after each suite
    call; its readings are kept in ``host_s`` and its time is in no
    ``suite_s``.
    """
    workload = WORKLOADS[name]
    run_suite = suites.run_suite
    suite_s = {}
    host_s = {}
    reports = []
    clock = time.perf_counter
    started = clock()
    for suite, n_max in workload.n_max.items():
        config = SuiteConfig(
            suite=suite, n_max=n_max, mode=workload.mode, explicit_points=points
        )
        before = probe() if probe else None
        t0 = clock()
        reports.append(run_suite(config))
        suite_s[suite] = clock() - t0
        if probe:
            host_s[suite] = (before, probe())
    verify_s = clock() - started
    checked = sum(
        _index_points(workload, suite, report)
        for suite, report in zip(workload.n_max, reports)
    )
    return PassResult(verify_s, suite_s, checked, reports, host_s)


def expected_path(name: str) -> Path:
    return EXPECTED_DIR / f"{name}.json"


def stripped(report) -> dict:
    out = report.as_dict()
    del out["durations"]
    return out


class Gate:
    """Checks every report of a run; counts the checks made and those failed."""

    def __init__(self, name: str, seed: int):
        with open(expected_path(name), encoding="utf-8") as handle:
            self.expected = json.load(handle)
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def require(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def check(self, k: int, points, reports: list[dict]) -> None:
        """Compare the stripped reports of pass k with the expected ones.

        At the committed seed the reports must equal the recorded ones
        exactly.  At any other seed the recorded report is taken with its
        point list replaced by this pass's points: every identity record must
        then still match, which means every record passes.
        """
        for want, report in zip(self.expected["passes"][k], reports, strict=True):
            if self.seed != self.expected["seed"] and "points" in want["config"]:
                want = dict(want, config=dict(want["config"]))
                want["config"]["points"] = [p.as_strings() for p in points]
            self.require(report == want)

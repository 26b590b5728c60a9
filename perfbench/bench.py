"""Timed and traced runs of one workload, and the result they print."""

from __future__ import annotations

import json
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MIN_ROUNDS = 3
SETUP_REPEATS = 15
# The probe loop's length, and its time on an unloaded host (one vCPU of a
# Xeon Sapphire Rapids at 2.0 GHz nominal, CPython 3.11): the host speed
# that timings are converted to.
PROBE_ITERATIONS = 300
REFERENCE_PROBE_S = 0.00175

# A fresh interpreter that imports the program and makes the run's inputs.
SETUP_SNIPPET = """
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
import qmoments, workloads
workloads.make_inputs(sys.argv[2], int(sys.argv[3]))
"""


def fraction_loop_s(iterations: int) -> float:
    """Wall time of a fixed pure-``Fraction`` loop, the kind of work qmoments does."""
    started = time.perf_counter()
    acc = Fraction(0)
    step = Fraction(1, 3)
    for i in range(1, iterations):
        acc += step / i
        acc = Fraction(acc.numerator % 10**60 + 1, acc.denominator % 10**60 + 1)
    return time.perf_counter() - started


def calibration_s() -> float:
    """Median time of a fixed loop, recorded before and after a run as a
    host-drift record."""
    return statistics.median(fraction_loop_s(3000) for _ in range(5))


def probe_s() -> float:
    """How fast the host runs Fraction code right now: the fastest of three
    short fixed loops."""
    return min(fraction_loop_s(PROBE_ITERATIONS) for _ in range(3))


def at_reference(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` wall seconds, taken between two probes, converted to
    seconds on a host where the probe takes ``REFERENCE_PROBE_S``."""
    return elapsed * REFERENCE_PROBE_S / ((before + after) / 2)


def setup_s(name: str, seed: int) -> tuple[float, float]:
    """Median time of fresh interpreters importing qmoments and making inputs,
    at reference host speed and in wall seconds."""
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        before = probe_s()
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(ROOT), name, str(seed)],
            check=True,
            cwd=ROOT,
        )
        elapsed = time.perf_counter() - started
        scaled.append(at_reference(elapsed, before, probe_s()))
        wall.append(elapsed)
    return statistics.median(scaled), statistics.median(wall)


def in_child(task):
    """Run ``task()`` in a forked child, wait for it, and return its result.

    The child starts from the parent's state, which has imported the program
    but never run it, so whatever one repeat computes is gone before the next.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.close(read_fd)
            try:
                payload = (True, task())
                status = 0
            except BaseException:
                payload = (False, traceback.format_exc())
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(payload, out)
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as source:
            data = source.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("benchmark child exited without a result")
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"benchmark child failed:\n{value}")
    return value


@dataclass
class Sample:
    """One pass as a child process saw it."""

    verify_s: float
    suite_s: dict
    index_points: int
    reports: list  # stripped report dicts, for the gate
    max_rss_kb: int
    host_s: dict  # suite -> probe readings around its call

    def scaled_suite_s(self) -> dict:
        """Each suite's time at reference host speed."""
        return {
            suite: at_reference(elapsed, *self.host_s[suite])
            for suite, elapsed in self.suite_s.items()
        }


def plain_pass(name: str, points) -> Sample:
    result = workloads.run_pass(name, points, probe_s)
    return Sample(
        result.verify_s,
        result.suite_s,
        result.index_points,
        [workloads.stripped(report) for report in result.reports],
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        result.host_s,
    )


def traced_pass(name: str, seed: int, inputs, points, spans_path: Path | None) -> dict:
    """One pass, and a regeneration of the inputs, with every layer wrapped."""
    spans = tracer.Tracer()
    with spans:
        again = workloads.make_inputs(name, seed)
        result = workloads.run_pass(name, points, probe_s)
    if spans_path is not None:
        spans.write_spans(spans_path)
    return {
        "verify_s": sum(
            at_reference(elapsed, *result.host_s[suite])
            for suite, elapsed in result.suite_s.items()
        ),
        "reports": [workloads.stripped(report) for report in result.reports],
        "inputs_repeat": again == inputs,
        "layer_times": spans.layer_times(),
        "counters": spans.counters(),
    }


def timed_run(name: str, inputs, seconds: float, gate: workloads.Gate) -> dict:
    """Rounds of passes, one per distinct point block, each in a fresh child,
    until ``seconds`` is used up (at least ``MIN_ROUNDS`` rounds).

    Every suite call is timed between two probes of host speed and converted
    to reference host speed (``at_reference``).  A block's time is the median
    over its repeats, and a metric is the sum over the blocks.
    """
    blocks = workloads.blocks(name, inputs)
    samples: list[list[Sample]] = [[] for _ in blocks]
    started = time.perf_counter()
    rounds = 0
    while True:
        round_started = time.perf_counter()
        for k, points in enumerate(blocks):
            sample = in_child(partial(plain_pass, name, points))
            gate.check(k, points, sample.reports)
            samples[k].append(sample)
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now - started + (now - round_started) > seconds:
            break

    scaled = [[s.scaled_suite_s() for s in block] for block in samples]

    def median_sum(key) -> float:
        return sum(statistics.median(map(key, block)) for block in scaled)

    verify = median_sum(lambda times: sum(times.values()))
    metrics = {
        "verify_s": verify,
        "index_points_per_s": sum(block[0].index_points for block in samples) / verify,
        "peak_rss_mb": max(s.max_rss_kb for block in samples for s in block) / 1024,
    }
    for suite in samples[0][0].suite_s:
        metrics[f"suite_s.{suite}"] = median_sum(lambda times: times[suite])
    return {
        "metrics": metrics,
        "rounds": rounds,
        "passes": [
            [
                {"suite_s": s.suite_s, "host_s": s.host_s, "verify_s": s.verify_s}
                for s in block
            ]
            for block in samples
        ],
    }


def traced_run(name: str, seed: int, inputs, seconds: float, gate: workloads.Gate,
               spans_path: Path) -> dict:
    """Rounds of one plain and one traced pass over block 0, each in a fresh
    child, until ``seconds`` is used up (at least two rounds).

    The counters of every traced pass must equal those of the first.  Layer
    self times are wall seconds, the fastest over traced passes; pass totals
    are in reference seconds, and the tracing overhead is the difference of
    their medians.
    """
    points = workloads.blocks(name, inputs)[0]
    plain, traced, layer_times = [], [], []
    counters = None
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        sample = in_child(partial(plain_pass, name, points))
        gate.check(0, points, sample.reports)
        plain.append(sum(sample.scaled_suite_s().values()))

        first = counters is None
        spans = in_child(
            partial(traced_pass, name, seed, inputs, points, spans_path if first else None)
        )
        gate.require(spans["inputs_repeat"])
        gate.check(0, points, spans["reports"])
        traced.append(spans["verify_s"])
        layer_times.append(spans["layer_times"])
        if first:
            counters = spans["counters"]
        else:
            gate.require(spans["counters"] == counters)
        now = time.perf_counter()
        if len(traced) >= 2 and now - started + (now - round_started) > seconds:
            break

    metrics = {
        f"{layer}.self_s": min(t[layer] for t in layer_times)
        for layer in layer_times[0]
    }
    metrics.update(counters)
    for ratio, numerator, denominator in (
        ("qseries.qbinom.distinct_ratio", "qseries.qbinom.distinct", "qseries.qbinom.calls"),
        ("recurrence.coeff.distinct_ratio", "recurrence.coeff.distinct", "recurrence.coeff.calls"),
        ("moments.moment_table.useful_ratio", "moments.moment_table.useful_rows",
         "moments.moment_table.rows"),
    ):
        base = counters[denominator]
        metrics[ratio] = counters[numerator] / base if base else 0.0
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {"metrics": metrics, "plain": plain, "traced": traced}


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main(name: str, seed: int, seconds: float, trace: int) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    gate = workloads.Gate(name, seed)
    calibration_before = calibration_s()
    setup = setup_s(name, seed)
    inputs = workloads.make_inputs(name, seed)
    if trace:
        record = traced_run(
            name, seed, inputs, seconds, gate, OUT_DIR / f"spans-{tag}.tsv.gz"
        )
    else:
        record = timed_run(name, inputs, seconds, gate)
        record["metrics"]["setup_s"], record["setup_wall_s"] = setup
    record["calibration_s"] = [calibration_before, calibration_s()]

    correct = gate.failed == 0
    metrics = {}
    if correct:
        metrics = {
            metric: {"value": record["metrics"][metric], "unit": units[metric]}
            for metric in wanted
        }
    result = {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    record.update(workload=name, seed=seed, trace=trace, result=result)
    (OUT_DIR / f"run-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for metric, entry in metrics.items():
        print(f"{metric:40s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{'fail_ratio':40s} {gate.failed / gate.attempted:>16.6g} "
          f"({gate.failed}/{gate.attempted} checks)")
    print(f"{'calibration_s (before, after)':40s} "
          f"{record['calibration_s'][0]:.6f} {record['calibration_s'][1]:.6f}")
    print(json.dumps(result))
    return 0 if correct else 1

import dataclasses
import gc
import json
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import qmoments.moments
import qmoments.qhermite
import qmoments.qseries
import qmoments.recurrence
import qmoments.suites
from qmoments import (
    InvalidInputError,
    PointContext,
    QPoint,
    SuiteConfig,
    hankel_sides,
    parse_rational,
    run_suite,
)
from qmoments import context
from qmoments.context import same
from qmoments.degrees import degree_bound
from qmoments.sampling import sample_points
from qmoments.suites import (
    DEFAULT_NMAX,
    IDENTITIES,
    SUITE_IDS,
    Identity,
    _hermite_q_pairs,
)

F = Fraction


def _strip_durations(report):
    data = json.loads(report.to_json())
    data.pop("durations")
    return json.dumps(data)


def test_single_suite_passes():
    config = SuiteConfig(suite="conjecture", n_max=6, trials=5, seed=7)
    report = run_suite(config)
    assert report.passed()
    record = report.identities[0]
    assert record.id == "conjecture"
    assert record.range == "n=0..6"
    assert record.points == 5
    assert record.counterexample is None


def test_all_suites_report_seven_groups():
    config = SuiteConfig(suite="all", n_max=8, trials=3, seed=11)
    report = run_suite(config)
    assert report.passed()
    assert sorted(r.id for r in report.identities) == sorted(SUITE_IDS)
    assert set(report.durations) == set(SUITE_IDS)
    assert len(report.identities) == 7


def test_default_ranges_echoed():
    assert DEFAULT_NMAX["conjecture"] == 24
    config = SuiteConfig(suite="hankel", trials=2, seed=3, n_max=3)
    report = run_suite(config)
    assert report.identities[0].range == "n=0..3"


def test_theorem_suite_at_spec_scale():
    report = run_suite(SuiteConfig(suite="theorem", n_max=8, trials=25, seed=7))
    assert report.passed()
    assert report.identities[0].points == 25


def test_explicit_points_take_precedence():
    degenerate = QPoint(F(3, 7), F(-3, 7))  # a = -q zeroes lambda_1
    config = SuiteConfig(
        suite="hankel", n_max=4, explicit_points=(degenerate,), trials=9
    )
    report = run_suite(config)
    assert report.passed()
    assert report.identities[0].points == 1
    assert "points" in report.config
    assert report.config["points"] == [{"q": "3/7", "a": "-3/7"}]


def test_unknown_suite_rejected():
    with pytest.raises(InvalidInputError):
        run_suite(SuiteConfig(suite="everything"))


def test_grid_with_explicit_points_rejected():
    with pytest.raises(InvalidInputError):
        run_suite(
            SuiteConfig(
                suite="conjecture",
                mode="grid",
                n_max=1,
                explicit_points=(QPoint(F(1, 2), F(2)),),
            )
        )


def test_reports_deterministic_given_seed():
    config = SuiteConfig(suite="lemmas", n_max=6, trials=4, seed=99)
    first = _strip_durations(run_suite(config))
    second = _strip_durations(run_suite(config))
    assert first == second


def test_grid_mode_conjecture_small():
    report = run_suite(SuiteConfig(suite="conjecture", mode="grid", n_max=1))
    assert report.passed()
    record = report.identities[0]
    assert record.points > 0


def test_grid_mode_hermite_small():
    report = run_suite(SuiteConfig(suite="hermite", mode="grid", n_max=2))
    assert report.passed()


def test_mutated_b_detected_in_random_mode(monkeypatch):
    real = qmoments.recurrence.coeff_b

    def corrupted(n, point):
        num, den = real(n, point)
        return (-num if n == 0 else num), den

    monkeypatch.setattr(qmoments.recurrence, "coeff_b", corrupted)
    report = run_suite(SuiteConfig(suite="conjecture", n_max=4, trials=2, seed=5))
    assert not report.passed()
    ce = report.identities[0].counterexample
    assert ce is not None
    assert "/" in ce.lhs or ce.lhs.lstrip("-").isdigit()


def test_mutated_lambda_detected_in_grid_mode(monkeypatch):
    real = qmoments.recurrence.coeff_lambda

    def corrupted(n, point):
        num, den = real(n, point)
        return (-num if n % 2 else num), den

    monkeypatch.setattr(qmoments.recurrence, "coeff_lambda", corrupted)
    report = run_suite(SuiteConfig(suite="conjecture", mode="grid", n_max=2))
    assert not report.passed()


def _x_plus_one(real):
    # Multiplication by x + 1, as if every b_k were b_k + 1.
    def step(row, k, b, lam):
        pair = real(row, k, b, lam)
        return context.split_sum(pair, row[k]) if k < len(row) else pair

    return step


def _lambda_k(real):
    # lambda_k read where lambda_{k+1} belongs, for k >= 1.
    def step(row, k, b, lam):
        return real(row, k, b, [None, *lam[1:2], *lam[1:]])

    return step


# The misread lambda_k first changes mu_4, past the conjecture grid at
# n_max = 1, which checks mu_0 and mu_1, and first changes the step from
# level 1, past the expansion grid at n_max = 1, which steps from level 0.
@pytest.mark.parametrize(
    "wrong, suite, mode",
    [
        (_x_plus_one, "conjecture", "random"),
        (_x_plus_one, "conjecture", "grid"),
        (_x_plus_one, "expansion", "random"),
        (_x_plus_one, "expansion", "grid"),
        (_x_plus_one, "induction", "random"),
        (_x_plus_one, "induction", "grid"),
        (_lambda_k, "conjecture", "random"),
        (_lambda_k, "expansion", "random"),
        (_lambda_k, "induction", "random"),
        (_lambda_k, "induction", "grid"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_a_wrong_x_step_fails_every_suite_that_multiplies_by_x(
    monkeypatch, ref_point, wrong, suite, mode
):
    monkeypatch.setattr(qmoments.moments, "x_step", wrong(qmoments.moments.x_step))
    if mode == "random":
        config = SuiteConfig(suite=suite, n_max=4, explicit_points=(ref_point,))
    else:
        config = SuiteConfig(suite=suite, mode="grid", n_max=1)
    report = run_suite(config)
    assert report.identities[0].status == "fail"


def test_mutated_closed_form_detected(monkeypatch):
    real = qmoments.moments.moment_closed_form

    def corrupted(n, point):
        num, den = real(n, point)
        return (num + den if n == 3 else num), den

    monkeypatch.setattr(qmoments.moments, "moment_closed_form", corrupted)
    report = run_suite(SuiteConfig(suite="theorem", n_max=2, trials=2, seed=5))
    assert not report.passed()


def test_counterexample_past_the_text_digit_limit(monkeypatch):
    # At the deep-moments point of the benchmark's seed 1, H_14 has a
    # denominator of more than 4,300 digits.  With P_28 raised by 1, only
    # H_14 changes, and the record carries both sides exactly.
    point = QPoint(F(-736, 549), F(-546, 521))
    real = qmoments.moments.moment_closed_form

    def corrupted(n, p):
        num, den = real(n, p)
        return (num + den if n == 28 else num), den

    monkeypatch.setattr(qmoments.moments, "moment_closed_form", corrupted)
    config = SuiteConfig(suite="hankel", n_max=14, explicit_points=(point,))
    (record,) = run_suite(config).identities
    assert record.status == "fail"
    ce = record.counterexample
    assert ce.index == "n=14"
    det, product = hankel_sides(14, point)
    assert (parse_rational(ce.lhs), parse_rational(ce.rhs)) == (det, product)
    assert len(ce.rhs.partition("/")[2]) > 4300


def test_hermite_suite_handles_zero_a():
    # t falls back to q when the sampled a is zero.
    config = SuiteConfig(
        suite="hermite", n_max=4, explicit_points=(QPoint(F(1, 2), F(0)),)
    )
    report = run_suite(config)
    assert report.passed()


def test_random_report_matches_golden():
    # Random-mode reports are a behaviour contract: byte-identical apart from
    # the durations block.
    golden = Path(__file__).parent / "golden" / "random_all.json"
    report = run_suite(SuiteConfig(suite="all", trials=3, seed=7)).as_dict()
    del report["durations"]
    assert json.dumps(report, indent=2) + "\n" == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "config",
    [
        SuiteConfig(suite="conjecture", n_max=4, trials=2, seed=5),
        SuiteConfig(suite="conjecture", mode="grid", n_max=2),
    ],
    ids=["random", "grid"],
)
def test_no_value_outlives_its_context(monkeypatch, config):
    assert run_suite(config).passed()
    real = qmoments.recurrence.coeff_lambda

    def corrupted(n, point):
        num, den = real(n, point)
        return (-num if n % 2 else num), den

    monkeypatch.setattr(qmoments.recurrence, "coeff_lambda", corrupted)
    assert not run_suite(config).passed()


def test_lemmas_adds_each_product_moment_once(ref_point):
    # Indices 0..6 cover the product moments of m <= 3, each at one index.
    ctx = PointContext(ref_point)
    labels = Counter(
        label
        for n in range(7)
        for label, _, _ in IDENTITIES["lemmas"].sides(n, ctx)
        if label.startswith("product moment ")
    )
    assert labels == {
        f"product moment n={m}, eps={eps}": 1 for m in range(4) for eps in (0, 1)
    }


def _labels(suite, n, ctx):
    """The labels of the pairs index n of ``suite`` yields at ctx, each
    pair checked to pass."""
    pairs = list(IDENTITIES[suite].sides(n, ctx))
    assert all(same(lhs, rhs) for _, lhs, rhs in pairs)
    return [label for label, _, _ in pairs]


def test_hermite_pairs_per_index(ref_point, sampled_points):
    for point in (ref_point, sampled_points[0]):
        ctx = PointContext(point)
        later = PointContext(point, ctx.tables)
        t0 = point.a or point.q
        for n in range(17):
            q_pairs = _hermite_q_pairs(n, ctx)
            recurrence = [
                f"three-term recurrence, n={n}, t^{e}" for e in range(-n - 1, n + 2, 2)
            ]
            q_labels = [
                *[f"palindromicity, n={n}"] * (n + 1),
                f"coefficient count, n={n}",
                *(recurrence if n >= 1 else []),
            ]
            assert [label for label, _, _ in q_pairs] == q_labels
            assert all(same(lhs, rhs) for _, lhs, rhs in q_pairs)
            # The first context of a store to reach index n yields its
            # q-only pairs and then the connection pair; a later context of
            # that store yields the connection pair alone, and a fresh store
            # yields them all again.
            connection = [f"connection, n={n}, t={t0}"]
            assert _labels("hermite", n, ctx) == q_labels + connection
            assert _labels("hermite", n, later) == connection
            assert _labels("hermite", n, PointContext(point)) == q_labels + connection


def test_lemmas_q_vandermonde_pair_once_per_store(ref_point):
    ctx = PointContext(ref_point)
    later = PointContext(ref_point, ctx.tables)
    for n in range(5):
        products = [f"product moment n={n // 2}, eps={eps}" for eps in (0, 1)]
        rest = [f"q-binomial theorem, m={n}", *(products if n % 2 == 0 else [])]
        every = [*rest[:1], f"q-Vandermonde limit, p={n}", *rest[1:]]
        assert _labels("lemmas", n, ctx) == every
        assert _labels("lemmas", n, later) == rest
        assert _labels("lemmas", n, PointContext(ref_point)) == every


def test_a_store_never_keeps_its_point_alive(sampled_points):
    # A random point owns its store.  With the cycle collector off, its
    # context is still freed by refcount once its hermite and lemmas sides
    # have run, so at most one context is alive at a time.
    gc.disable()
    try:
        ctx = PointContext(sampled_points[0])
        for n in range(4):
            _labels("hermite", n, ctx)
            _labels("lemmas", n, ctx)
        assert ctx.tables.parts
        alive = weakref.ref(ctx)
        del ctx
        assert alive() is None
    finally:
        gc.enable()


def test_grid_hermite_compares_q_only_pairs_once_per_store(monkeypatch):
    # Each point compares its connection pair, and each store compares the
    # q-only pairs of each index once, whatever the number of its points.
    calls = []
    real = qmoments.suites.same

    def counted(x, y):
        calls.append(None)
        return real(x, y)

    monkeypatch.setattr(qmoments.suites, "same", counted)
    report = run_suite(SuiteConfig(suite="hermite", mode="grid", n_max=4))
    assert report.passed()
    ctx = PointContext(QPoint(F(2), F(1)))
    q_pairs = [len(_hermite_q_pairs(n, ctx)) for n in range(5)]
    bounds = [degree_bound("hermite", n) for n in range(5)]
    stores = sum((dq + 1) * q_pairs[n] for n, (dq, _) in enumerate(bounds))
    assert len(calls) == report.identities[0].points + stores == 330 + 314


def _counted_coeff_b(monkeypatch):
    """Patch ``recurrence.coeff_b`` to record the (q, a, n) of every call."""
    calls = []
    real = qmoments.recurrence.coeff_b

    def counted(n, point):
        calls.append((point.q, point.a, n))
        return real(n, point)

    monkeypatch.setattr(qmoments.recurrence, "coeff_b", counted)
    return calls


def _counted_hermite(monkeypatch):
    """Patch ``qhermite`` to count, per q, the ``hermite_laurent`` calls made
    for the q-only pairs (every call outside ``connection_sides``) and the
    ``connection_sides`` calls, the one pair that reads t."""
    q_only, connection = Counter(), Counter()
    inside = []
    real_laurent = qmoments.qhermite.hermite_laurent
    real_connection = qmoments.qhermite.connection_sides

    def counted_laurent(n, point):
        if not inside:
            q_only[point.q] += 1
        return real_laurent(n, point)

    def counted_connection(n, t0, point):
        connection[point.q] += 1
        inside.append(n)
        try:
            return real_connection(n, t0, point)
        finally:
            inside.pop()

    monkeypatch.setattr(qmoments.qhermite, "hermite_laurent", counted_laurent)
    monkeypatch.setattr(qmoments.qhermite, "connection_sides", counted_connection)
    return q_only, connection


def _one_point_calls(q_only, q, indices):
    """The q-only ``hermite_laurent`` calls one fresh point at q makes."""
    before = q_only[q]
    ctx = PointContext(QPoint(q, F(1)))
    for n in indices:
        list(IDENTITIES["hermite"].sides(n, ctx))
    made = q_only[q] - before
    q_only[q] = before
    return made


def test_grid_hermite_builds_q_only_pairs_once_per_column(monkeypatch):
    q_only, connection = _counted_hermite(monkeypatch)
    assert run_suite(SuiteConfig(suite="hermite", mode="grid", n_max=3)).passed()
    grid_calls, grid_connection = dict(q_only), dict(connection)
    bounds = [degree_bound("hermite", n) for n in range(4)]
    assert sorted(grid_calls) == list(range(2, 2 + max(dq for dq, _ in bounds) + 1))
    for q, calls in grid_calls.items():
        indices = [n for n, (dq, _) in enumerate(bounds) if q - 2 <= dq]
        # As many calls for the whole column as one point makes...
        assert calls == _one_point_calls(q_only, q, indices) > 0, q
        # ...while the connection pair is still made at every point.
        points = sum(bounds[n][1] + 1 for n in indices)
        assert grid_connection[q] == points > calls, q


def test_random_hermite_builds_q_only_pairs_at_every_point(monkeypatch):
    q_only, connection = _counted_hermite(monkeypatch)
    config = SuiteConfig(suite="hermite", n_max=3, trials=3, seed=5)
    assert run_suite(config).passed()
    points = sample_points(config.trials, config.seed, config.bound)
    assert len({p.q for p in points}) == len(points)
    random_calls, random_connection = dict(q_only), dict(connection)
    # One point's q-only calls at every point, and its connection pairs.
    want = {p.q: _one_point_calls(q_only, p.q, range(4)) for p in points}
    assert random_calls == want
    assert random_connection == {p.q: 4 for p in points}


def test_grid_lemmas_builds_the_q_vandermonde_pair_once_per_column(monkeypatch):
    calls = Counter()
    real = qmoments.qseries.qvandermonde_limit_sides

    def counted(p, point):
        calls[point.q, p] += 1
        return real(p, point)

    monkeypatch.setattr(qmoments.qseries, "qvandermonde_limit_sides", counted)
    assert run_suite(SuiteConfig(suite="lemmas", mode="grid", n_max=1)).passed()
    columns = [range(degree_bound("lemmas", p)[0] + 1) for p in range(2)]
    assert calls == {(c + 2, p): 1 for p in range(2) for c in columns[p]}


@pytest.mark.parametrize(
    "suite, n_max, points",
    [
        ("induction", 1, {"induction": 7600}),
        ("expansion", 2, {"expansion": 1294}),
        ("lemmas", 1, {"lemmas": 80}),
        ("lemmas", 3, {"lemmas": 2000}),
        ("hermite", 4, {"hermite": 330}),
        (
            "all",
            0,
            {
                "conjecture": 4,
                "expansion": 4,
                "hankel": 4,
                "hermite": 24,
                "induction": 2680,
                "lemmas": 40,
                "theorem": 50,
            },
        ),
    ],
    ids=["induction-1", "expansion-2", "lemmas-1", "lemmas-3", "hermite-4", "all-0"],
)
def test_grid_point_counts(suite, n_max, points):
    # Every grid point checked, and each suite's count that of a run of
    # that suite alone.
    report = run_suite(SuiteConfig(suite=suite, mode="grid", n_max=n_max))
    assert report.passed()
    assert {record.id: record.points for record in report.identities} == points


def test_all_suites_evaluate_each_point_once(monkeypatch):
    # One context per point serves every suite: b_n is made once per n.
    # Induction at n = 8 reads b_0 .. b_17; the conjecture's moments to 24
    # read no b_k past b_11.
    calls = _counted_coeff_b(monkeypatch)
    point = QPoint(F(-787, 911), F(613, 977))
    assert run_suite(SuiteConfig(suite="all", explicit_points=(point,))).passed()
    assert len(calls) == len(set(calls)) == 18


def test_all_suites_evaluate_each_grid_point_once(monkeypatch):
    calls = _counted_coeff_b(monkeypatch)
    assert run_suite(SuiteConfig(suite="all", mode="grid", n_max=1)).passed()
    assert calls
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize(
    "config",
    [SuiteConfig(suite="all", n_max=3), SuiteConfig(suite="all", mode="grid", n_max=0)],
    ids=["random", "grid"],
)
def test_all_suites_match_each_suite_alone(config):
    # Reports list their records by id; durations sit outside the records.
    together = run_suite(config).as_dict()["identities"]
    alone = [
        run_suite(dataclasses.replace(config, suite=suite)).as_dict()["identities"][0]
        for suite in sorted(SUITE_IDS)
    ]
    assert together == alone


def test_a_failing_split_pair_reports_its_value(monkeypatch):
    # A side the runner only compares may stay an unreduced pair with a
    # negative denominator; the report prints its value in p/r text.
    def sides(n, ctx):
        yield "split", (2, -4), (1, 2)

    monkeypatch.setitem(IDENTITIES, "conjecture", Identity(sides, 0))
    report = run_suite(SuiteConfig(suite="conjecture", trials=1, seed=3))
    (record,) = report.identities
    assert record.status == "fail"
    assert (record.counterexample.lhs, record.counterexample.rhs) == ("-1/2", "1/2")

"""One registry of identities, and one runner for random and grid mode.

Each identity is an equality lhs(n) = rhs(n) at a point (q, a).  Its
registry entry (``Identity``) holds ``sides(n, ctx)``, a generator of
labelled ``(index, lhs, rhs)`` scalar pairs; its default ``nmax``; its range
label; and where the second grid axis starts.  Adding an identity means one
entry here plus one bound in ``degrees``.

One runner serves both modes.  It walks (index, point) cases and the sides
of each, and stops at the first pair with ``lhs != rhs``; since all
arithmetic is exact, that pair is a hard counterexample.  It is the only
place that compares the sides: the library's ``*_sides`` functions return
both and decide nothing.  Random mode walks a deterministic list of sampled
admissible points, then the indices, with one ``PointContext`` per point
shared by every index.  Grid mode walks the
indices, then a degree-bound grid per index (see ``degrees``), which
upgrades a passing run to a proof of the identity as a rational-function
identity for each checked index.

The hermite identities live in the Laurent variable t: the grid's second
axis is t (from 1) instead of a (from 0).  In random mode t = a when a is
nonzero, else t = q (never zero for admissible points).
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from . import degrees, expansion, hankel, qhermite, qseries
from ._version import __version__
from .context import PointContext, QTables
from .errors import InvalidInputError
from .points import QPoint
from .rationals import format_rational
from .report import (
    GRID_NMAX_CAP,
    Counterexample,
    IdentityRecord,
    SuiteConfig,
    VerificationReport,
)
from .sampling import sample_points

Sides = Iterator[tuple[str, object, object]]


def _conjecture_sides(n: int, ctx: PointContext) -> Sides:
    # One pair per index.  Grid mode stays a proof by induction on n: the
    # grids for m < n run first and the run stops at the first failure, so
    # mu_m = P_m already holds as rational functions for m < n, and then
    # mu_n = P_n is the annihilation relation for s_n, which
    # degree_bound("conjecture", n) covers.
    yield f"n={n}", ctx.moments(n)[n], ctx.closed_form(n)


def _expansion_sides(n: int, ctx: PointContext) -> Sides:
    lhs, rhs = expansion.expansion_sides(n, ctx)
    for j in range(max(lhs.degree, rhs.degree) + 1):
        yield f"n={n}, coefficient of x^{j}", lhs.coefficient(j), rhs.coefficient(j)


def _induction_sides(n: int, ctx: PointContext) -> Sides:
    for k in range(2 * n + 3):
        yield (f"n={n}, k={k}", *expansion.induction_sides(n, k, ctx))


def _theorem_sides(n: int, ctx: PointContext) -> Sides:
    for label, lhs, rhs in expansion.theorem_identities(n, ctx):
        yield f"n={n}, {label}", lhs, rhs


def _hankel_sides(n: int, ctx: PointContext) -> Sides:
    yield (f"n={n}", *hankel.hankel_sides(n, ctx))


def _lemmas_sides(n: int, ctx: PointContext) -> Sides:
    yield (f"q-binomial theorem, m={n}", *qseries.qbinomial_theorem_sides(n, ctx))
    yield (
        f"q-Vandermonde limit, p={n}",
        *qseries.qvandermonde_limit_sides(n, ctx.q, ctx.tables),
    )
    for m in range(n // 2 + 1):
        for eps in (0, 1):
            closed = ctx.product_moment(m, eps, "closed")
            direct = ctx.product_moment(m, eps, "direct")
            yield f"product moment n={m}, eps={eps}", direct, closed


def _laurent_sides(label: str, lhs, rhs, name_exponent: bool = False) -> Sides:
    for e in sorted(lhs.coeffs.keys() | rhs.coeffs.keys()):
        index = f"{label}, t^{e}" if name_exponent else label
        yield index, lhs.coefficient(e), rhs.coefficient(e)


def _hermite_sides(n: int, ctx: PointContext) -> Sides:
    q, tables = ctx.q, ctx.tables
    h_n = qhermite.hermite_laurent(n, q, tables)
    label = f"palindromicity, n={n}"
    for e, c in h_n.coeffs.items():
        yield label, c, h_n.coefficient(-e)
    yield f"coefficient count, n={n}", len(h_n.coeffs), n + 1
    yield from _laurent_sides(
        f"Laurent connection, n={n}", *qhermite.connection_laurent_sides(n, q, tables)
    )
    if n >= 1:
        yield from _laurent_sides(
            f"three-term recurrence, n={n}",
            *qhermite.hermite_recurrence_sides(n, q, tables),
            name_exponent=True,
        )
    t0 = ctx.a or ctx.q
    yield (
        f"connection, n={n}, t={format_rational(t0)}",
        *qhermite.connection_sides(n, t0, q, tables),
    )


class Identity(NamedTuple):
    sides: Callable[[int, PointContext], Sides]
    nmax: int
    # Formatted with n = the checked nmax and half = nmax // 2.
    range: str = "n=0..{n}"
    # First value on the grid's second axis (a, or t for hermite).
    grid_from: int = 0


IDENTITIES = {
    "conjecture": Identity(_conjecture_sides, 24),
    "expansion": Identity(_expansion_sides, 8),
    "induction": Identity(_induction_sides, 8, "n=0..{n}, k=0..2n+2"),
    "theorem": Identity(_theorem_sides, 8),
    "hankel": Identity(_hankel_sides, 8),
    "lemmas": Identity(_lemmas_sides, 20, "m,p=0..{n}; product moments n=0..{half}"),
    "hermite": Identity(_hermite_sides, 16, grid_from=1),
}

SUITE_IDS = tuple(IDENTITIES)
DEFAULT_NMAX = {suite: identity.nmax for suite, identity in IDENTITIES.items()}


def _ce(point: QPoint, index: str, lhs: object, rhs: object) -> Counterexample:
    def render(value: object) -> str:
        if isinstance(value, Fraction):
            return format_rational(value)
        return str(value)

    return Counterexample(
        q=format_rational(point.q),
        a=format_rational(point.a),
        index=index,
        lhs=render(lhs),
        rhs=render(rhs),
    )


def _random_cases(
    n_max: int, points: list[QPoint]
) -> Iterator[tuple[int, PointContext]]:
    for point in points:
        ctx = PointContext(point)
        for n in range(n_max + 1):
            yield n, ctx


def _grid_cases(suite: str, n_max: int) -> Iterator[tuple[int, PointContext]]:
    """Degree-bound grid points per index.

    One q-binomial and Pochhammer store (``QTables``) serves each fixed-q
    column of points and is dropped after it.
    """
    first = IDENTITIES[suite].grid_from
    for n in range(n_max + 1):
        dq, da = degrees.degree_bound(suite, n)
        for q in range(2, dq + 3):
            tables = QTables()
            for second in range(first, first + da + 1):
                yield n, PointContext(QPoint(Fraction(q), Fraction(second)), tables)


def _first_failure(
    sides: Callable[[int, PointContext], Sides],
    cases: Iterator[tuple[int, PointContext]],
) -> tuple[int, Counterexample | None]:
    """(cases evaluated, the first failing pair as a counterexample or None)."""
    evaluated = 0
    for n, ctx in cases:
        evaluated += 1
        for index, lhs, rhs in sides(n, ctx):
            if lhs != rhs:
                return evaluated, _ce(ctx, index, lhs, rhs)
    return evaluated, None


def _resolve_nmax(suite: str, config: SuiteConfig) -> int:
    if config.n_max is not None:
        return config.n_max
    default = IDENTITIES[suite].nmax
    if config.mode == "grid":
        return min(default, GRID_NMAX_CAP)
    return default


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Execute the selected suite (or all of them) and assemble a report."""
    if config.suite != "all" and config.suite not in SUITE_IDS:
        raise InvalidInputError(
            f"unknown suite {config.suite!r} (expected one of"
            f" {', '.join(SUITE_IDS)} or 'all')"
        )
    selected = SUITE_IDS if config.suite == "all" else (config.suite,)

    if config.mode == "grid":
        if config.explicit_points:
            raise InvalidInputError("grid mode generates its own points")
        points: list[QPoint] = []
    elif config.explicit_points:
        points = list(config.explicit_points)
    else:
        points = sample_points(config.trials, config.seed, config.bound)

    echo: dict[str, object] = {
        "version": __version__,
        "suite": config.suite,
        "n_max": config.n_max,
        "mode": config.mode,
        "trials": config.trials,
        "seed": config.seed,
        "bound": config.bound,
    }
    if config.mode == "random":
        echo["points"] = [p.as_strings() for p in points]

    report = VerificationReport(config=echo)
    for suite in selected:
        identity = IDENTITIES[suite]
        n_max = _resolve_nmax(suite, config)
        started = time.perf_counter()
        if config.mode == "grid":
            count, failure = _first_failure(identity.sides, _grid_cases(suite, n_max))
        else:
            _, failure = _first_failure(identity.sides, _random_cases(n_max, points))
            count = len(points)
        report.durations[suite] = round(time.perf_counter() - started, 6)
        report.identities.append(
            IdentityRecord(
                id=suite,
                range=identity.range.format(n=n_max, half=n_max // 2),
                points=count,
                status="pass" if failure is None else "fail",
                counterexample=failure,
            )
        )
    return report

"""Suite runners: execute every identity check over points and build reports.

Random mode evaluates each identity family at a deterministic list of
sampled admissible points; since all arithmetic is exact, a single mismatch
is a hard counterexample.  Grid mode evaluates on a degree-bound grid (see
``degrees``), which upgrades a passing run to a proof of the identity as a
rational-function identity for each checked index.

The hermite suite needs a nonzero Laurent argument t; in random mode it uses
t = a when a is nonzero and falls back to t = q (never zero for admissible
points) otherwise.
"""

from __future__ import annotations

import time
from fractions import Fraction

from . import degrees, expansion, hankel, qhermite, qseries
from ._version import __version__
from .context import PointContext, QTables
from .errors import InvalidInputError
from .points import QPoint
from .polynomials import LaurentPolynomial, Polynomial
from .rationals import format_rational
from .report import (
    GRID_NMAX_CAP,
    Counterexample,
    IdentityRecord,
    SuiteConfig,
    VerificationReport,
)
from .sampling import sample_points

DEFAULT_NMAX = {
    "conjecture": 24,
    "expansion": 8,
    "induction": 8,
    "theorem": 8,
    "hankel": 8,
    "lemmas": 20,
    "hermite": 16,
}

SUITE_IDS = tuple(DEFAULT_NMAX)


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


def _first_poly_mismatch(lhs: Polynomial, rhs: Polynomial) -> tuple[int, Fraction, Fraction]:
    for j in range(max(lhs.degree, rhs.degree) + 1):
        if lhs.coefficient(j) != rhs.coefficient(j):
            return j, lhs.coefficient(j), rhs.coefficient(j)
    raise AssertionError("polynomials compare unequal but share all coefficients")


def _first_laurent_mismatch(
    lhs: LaurentPolynomial, rhs: LaurentPolynomial
) -> tuple[int, Fraction, Fraction]:
    for e in sorted(set(lhs.coeffs) | set(rhs.coeffs)):
        if lhs.coefficient(e) != rhs.coefficient(e):
            return e, lhs.coefficient(e), rhs.coefficient(e)
    raise AssertionError("Laurent polynomials compare unequal but share all coefficients")


def _conjecture_at(n: int, ctx: PointContext) -> Counterexample | None:
    # The degree bound for index n covers the whole family m <= n, so every
    # check of index n verifies the full prefix m <= n.
    mu = ctx.moments(n)
    for m in range(n + 1):
        rhs = ctx.closed_form(m)
        if mu[m] != rhs:
            return _ce(ctx, f"n={m}", mu[m], rhs)
    return None


def _expansion_at(n: int, ctx: PointContext) -> Counterexample | None:
    lhs, rhs = expansion.expansion_sides(n, ctx)
    if lhs != rhs:
        j, lc, rc = _first_poly_mismatch(lhs, rhs)
        return _ce(ctx, f"n={n}, coefficient of x^{j}", lc, rc)
    return None


def _induction_at(n: int, ctx: PointContext) -> Counterexample | None:
    for k in range(2 * n + 3):
        lhs, rhs, note = expansion.induction_sides(n, k, ctx)
        if note is not None:
            return _ce(ctx, f"n={n}, k={k}", lhs, note)
        if lhs != rhs:
            return _ce(ctx, f"n={n}, k={k}", lhs, rhs)
    return None


def _theorem_at(n: int, ctx: PointContext) -> Counterexample | None:
    for label, lhs, rhs in expansion.theorem_identities(n, ctx):
        if lhs != rhs:
            return _ce(ctx, f"n={n}, {label}", lhs, rhs)
    return None


def _hankel_at(n: int, ctx: PointContext) -> Counterexample | None:
    result = hankel.hankel_check(n, ctx)
    if not result.equal:
        return _ce(ctx, f"n={n}", result.determinant, result.lambda_product)
    return None


def _lemmas_at(n: int, ctx: PointContext) -> Counterexample | None:
    lhs, rhs = qseries.qbinomial_theorem_sides(n, ctx)
    if lhs != rhs:
        return _ce(ctx, f"q-binomial theorem, m={n}", lhs, rhs)
    lhs, rhs = qseries.qvandermonde_limit_sides(n, ctx.q, ctx.tables)
    if lhs != rhs:
        return _ce(ctx, f"q-Vandermonde limit, p={n}", lhs, rhs)
    for m in range(n // 2 + 1):
        for eps in (0, 1):
            closed = ctx.product_moment(m, eps, "closed")
            direct = ctx.product_moment(m, eps, "direct")
            if closed != direct:
                return _ce(ctx, f"product moment n={m}, eps={eps}", direct, closed)
    return None


def _hermite_at(n: int, ctx: PointContext, t0: Fraction) -> Counterexample | None:
    q, tables = ctx.q, ctx.tables
    h_n = qhermite.hermite_laurent(n, q, tables)
    if not qhermite.is_palindromic(h_n):
        return _ce(ctx, f"palindromicity, n={n}", h_n, "palindromic coefficients")
    if len(h_n.coeffs) != n + 1:
        return _ce(ctx, f"coefficient count, n={n}", len(h_n.coeffs), n + 1)
    if not qhermite.connection_laurent_identity(n, q, tables):
        return _ce(ctx, f"Laurent connection, n={n}", "lhs", "rhs")
    if n >= 1:
        lhs, rhs = qhermite.hermite_recurrence_sides(n, q, tables)
        if lhs != rhs:
            e, lc, rc = _first_laurent_mismatch(lhs, rhs)
            return _ce(ctx, f"three-term recurrence, n={n}, t^{e}", lc, rc)
    lhs, rhs = qhermite.connection_sides(n, t0, q, tables)
    if lhs != rhs:
        return _ce(ctx, f"connection, n={n}, t={format_rational(t0)}", lhs, rhs)
    return None


_CHECKS = {
    "conjecture": _conjecture_at,
    "expansion": _expansion_at,
    "induction": _induction_at,
    "theorem": _theorem_at,
    "hankel": _hankel_at,
    "lemmas": _lemmas_at,
    "hermite": _hermite_at,
}


def _run_random(suite: str, n_max: int, points: list[QPoint]) -> Counterexample | None:
    check = _CHECKS[suite]
    # One prefix check at n_max covers every conjecture index n <= n_max.
    indices = [n_max] if suite == "conjecture" else range(n_max + 1)
    for point in points:
        ctx = PointContext(point)
        extra = (point.a if point.a != 0 else point.q,) if suite == "hermite" else ()
        for n in indices:
            found = check(n, ctx, *extra)
            if found:
                return found
    return None


def _run_grid(suite: str, n_max: int) -> tuple[int, Counterexample | None]:
    """Run a suite on degree-bound grids; returns (points evaluated, failure).

    One q-binomial and Pochhammer store (``QTables``) serves each fixed-q
    column of points and is dropped after it.
    """
    check = _CHECKS[suite]
    evaluated = 0
    for n in range(n_max + 1):
        dq, da = degrees.degree_bound(suite, n)
        q_values = [Fraction(v) for v in range(2, dq + 3)]
        if suite == "hermite":
            second_values = [Fraction(v) for v in range(1, da + 2)]
        else:
            second_values = [Fraction(v) for v in range(0, da + 1)]
        for q in q_values:
            tables = QTables()
            for second in second_values:
                evaluated += 1
                if suite == "hermite":
                    ctx = PointContext(QPoint(q, second * second), tables)
                    found = check(n, ctx, second)
                else:
                    found = check(n, PointContext(QPoint(q, second), tables))
                if found:
                    return evaluated, found
    return evaluated, None


def _range_label(suite: str, n_max: int) -> str:
    if suite == "induction":
        return f"n=0..{n_max}, k=0..2n+2"
    if suite == "lemmas":
        return f"m,p=0..{n_max}; product moments n=0..{n_max // 2}"
    return f"n=0..{n_max}"


def _resolve_nmax(suite: str, config: SuiteConfig) -> int:
    if config.n_max is not None:
        return config.n_max
    default = DEFAULT_NMAX[suite]
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
        n_max = _resolve_nmax(suite, config)
        started = time.perf_counter()
        if config.mode == "grid":
            count, failure = _run_grid(suite, n_max)
        else:
            failure = _run_random(suite, n_max, points)
            count = len(points)
        report.durations[suite] = round(time.perf_counter() - started, 6)
        report.identities.append(
            IdentityRecord(
                id=suite,
                range=_range_label(suite, n_max),
                points=count,
                status="pass" if failure is None else "fail",
                counterexample=failure,
            )
        )
    return report

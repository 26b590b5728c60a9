"""One registry of identities, and one runner for random and grid mode.

Each identity is an equality lhs(n) = rhs(n) at a point (q, a).  Its
registry entry (``Identity``) holds ``sides(n, ctx)``, a generator of
labelled ``(index, lhs, rhs)`` pairs, each side a scalar value or a split
pair (num, den); its default ``nmax``; its range label; and where the
second grid axis starts.  Adding an identity means one entry here plus one
bound in ``degrees``.  The entries call the library's one function per
side (``expansion.induction_sides`` and the like), so a side that is an
integer sum over an integer denominator is compared as it is and never made
a ``Fraction``.

One runner serves both modes.  It walks the distinct points once, with one
``PointContext`` per point for every selected suite and index, and is the
only place that decides on the sides (the library's ``*_sides`` functions
return both and decide nothing).  It compares them with ``context.same``:
cross-multiplication with no gcd, where a zero denominator raises.  Since
all arithmetic is exact, a pair whose sides differ is a hard
counterexample, reported with both sides as values (``context.value``)
in the ``p/r`` text of ``rationals.format_rational``, at any size.
Random mode walks a deterministic list of sampled admissible points.  Grid
mode walks the union of the indices' degree-bound grids (see ``degrees``),
so a passing run proves each checked index as a rational-function identity.
Each suite reports the failure that a suite-by-suite run would meet first.

Grid mode is a proof by induction on n where index n checks a pair that
decides the identity only given the indices below it: a run that passes
index n has passed every grid of m < n too.  The conjecture compares mu_n
with P_n, the annihilation relation for s_n once mu_m = P_m for m < n; the
hankel suite compares the pivot d_n = H_n / H_{n-1} with the norm
lambda_1 ... lambda_n, which is H_n = prod once H_m = prod for m < n (see
``hankel``).  Where the two differ, and past a zero pivot, it yields H_n
and the product (``hankel.hankel_sides``), so a counterexample reads as
the determinant check reported it.

The expansion suite is the paper's own induction.  Index 0 compares
e_0^{(0)} with 1 (pi_0 = s_0); index n >= 1 compares e^{(n)} with the
s-basis row of (x^2 - a^2 q^{2n-2}) pi_{n-1}, one pair delta_j per s_j
(``expansion.induction_sides(n - 1)``).  With D_n = pi_n -
sum_k e_k^{(n)} s_{2n-k}, D_n = (x^2 - a^2 q^{2n-2}) D_{n-1} +
sum_j delta_j s_j.  A random point is checked at n = 0, 1, ... in order,
so index n passes there exactly when D_n vanishes there, given index
n - 1.  A grid of index n is still sized by ``degree_bound("expansion",
n)``, the bound on the x-coefficients of D_n cleared of denominators: the
grids below proved D_{n-1} = 0, and at a grid point where every delta_j is
0, D_n is 0 as a polynomial in x, since the s_j there are monic and free
of poles.  So each cleared x-coefficient of D_n vanishes on the whole grid,
and the bound proves it is 0.

A pair that reads q alone is checked once per ``QTables`` store: the
hermite palindromicity, coefficient-count and three-term-recurrence pairs
of index n, and the lemmas q-Vandermonde pair.  The first
``PointContext`` of a store to reach such a key yields its pairs, which
the runner compares like any other; every later point of that store
yields only its pairs that read a or t.  To mark the first point the store
keeps a fresh token per key (``_first``), never the context, so a store
never keeps a point alive.  Every report is that of a run that checked
each pair at each point.  A grid column shares one store and walks its
points up the second axis, so the first of them to reach an index holds
the column's smallest key (n, place) for it; a point before it that failed
or was skipped ends the suite at a smaller key still.  A failing q-only
pair is thus reported where such a run would first meet it, and a later
point of the column either carries a larger key, which the runner skips
once the suite has failed, or meets a passing pair it need not see again.
A random point owns its store, so it is always first and checks
everything.

The hermite identities live in the Laurent variable t: the grid's second
axis is t (from 1) instead of a (from 0).  In random mode t = a when a is
nonzero, else t = q (never zero for admissible points).
"""

from __future__ import annotations

import time
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple

from . import degrees, expansion, hankel, moments, qhermite, qseries
from ._version import __version__
from .context import PointContext, QTables, same, value
from .errors import InvalidInputError
from .points import QPoint, validate_q
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
    # One pair per index, a proof by induction on n in grid mode (see the
    # module docstring).
    yield f"n={n}", ctx.moments(n)[n], ctx.closed_form(n)


def _expansion_sides(n: int, ctx: PointContext) -> Sides:
    # pi_0 = s_0, then the induction step from level n - 1, a proof by
    # induction on n in grid mode (see the module docstring).
    if n == 0:
        one = ctx.q_split[1] ** 0
        yield "n=0, coefficient of s_0", ctx.expansion(0)[0], (one, one)
        return
    for k, pair in enumerate(expansion.induction_sides(n - 1, ctx)):
        yield (f"n={n}, coefficient of s_{2 * n - k}", *pair)


def _induction_sides(n: int, ctx: PointContext) -> Sides:
    for k, pair in enumerate(expansion.induction_sides(n, ctx)):
        yield (f"n={n}, k={k}", *pair)


def _theorem_sides(n: int, ctx: PointContext) -> Sides:
    for label, lhs, rhs in expansion.theorem_identities(n, ctx):
        yield f"n={n}, {label}", lhs, rhs


def _hankel_sides(n: int, ctx: PointContext) -> Sides:
    # d_n against lambda_1 ... lambda_n; a failure, and an index past a
    # zero pivot, compare H_n with the product (see the module docstring).
    rows, norm = ctx.ldl(n), ctx.norm(n)
    if n < len(rows) and same(rows[n][-1], norm):
        yield f"n={n}", rows[n][-1], norm
    else:
        yield (f"n={n}", *hankel.hankel_sides(n, ctx))


def _first(ctx: PointContext, key: tuple) -> bool:
    """Whether ctx is the first point of its store to reach ``key``, whose
    q-only pairs it then yields (see the module docstring)."""
    token = object()
    return ctx.q_parts(key, lambda: token) is token


def _lemmas_sides(n: int, ctx: PointContext) -> Sides:
    yield (f"q-binomial theorem, m={n}", *qseries.qbinomial_theorem_sides(n, ctx))
    if _first(ctx, ("q-Vandermonde", n)):
        yield (f"q-Vandermonde limit, p={n}", *qseries.qvandermonde_limit_sides(n, ctx))
    # Index n adds the product moments of n // 2; odd n would repeat them.
    if n % 2 == 0:
        for eps, pair in enumerate(moments.product_moment_sides(n // 2, ctx)):
            yield (f"product moment n={n // 2}, eps={eps}", *pair)


def _hermite_q_pairs(n: int, ctx: PointContext) -> list[tuple[str, object, object]]:
    """The pairs of index n that read q alone, in check order."""
    h_n = qhermite.hermite_laurent(n, ctx)
    label = f"palindromicity, n={n}"
    pairs = [(label, c, h_n.coefficient(-e)) for e, c in h_n.coeffs.items()]
    pairs.append((f"coefficient count, n={n}", len(h_n.coeffs), n + 1))
    if n >= 1:
        lhs, rhs = qhermite.hermite_recurrence_sides(n, ctx)
        for e in sorted(lhs.coeffs.keys() | rhs.keys()):
            label = f"three-term recurrence, n={n}, t^{e}"
            pairs.append((label, lhs.coefficient(e), rhs.get(e, 0)))
    return pairs


def _hermite_sides(n: int, ctx: PointContext) -> Sides:
    if _first(ctx, ("hermite", n)):
        yield from _hermite_q_pairs(n, ctx)
    t0 = ctx.a or ctx.q
    label = f"connection, n={n}, t={format_rational(t0)}"
    yield (label, *qhermite.connection_sides(n, t0, ctx))


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


def _grid_walk(bounds: dict[str, list[tuple[int, int]]]) -> Iterator[tuple]:
    """(context, cases) for each point of the union of the suites' grids.

    Index n's grid is q = 2..2+dq by second = first..first+da, with (dq, da)
    = ``bounds[suite][n]`` and first = ``grid_from``.  Columns q = 2, 3, ...
    are walked in turn, each up its second axis, with one ``QTables(q)`` for
    all of it; q is validated once per column, each second-axis value is
    made once per walk, and a = -1 never occurs.
    A case (suite, n, key) is made for each index whose grid holds the
    point, with key n and the point's 1-based place in that grid; a point
    in no grid gets no context.
    """
    spans = [
        (suite, n, IDENTITIES[suite].grid_from, dq, da)
        for suite, pairs in bounds.items()
        for n, (dq, da) in enumerate(pairs)
    ]
    top = max(first + da for _, _, first, _, da in spans)
    seconds = [Fraction(second) for second in range(top + 1)]
    for column in range(max(dq for *_, dq, _ in spans) + 1):
        q = validate_q(column + 2)
        tables = QTables(q)
        for second, a in enumerate(seconds):
            cases = [
                (suite, n, (n, column * (da + 1) + second - first + 1))
                for suite, n, first, dq, da in spans
                if column <= dq and first <= second <= first + da
            ]
            if cases:
                yield PointContext(SimpleNamespace(q=q, a=a), tables), cases


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
    n_maxes = {suite: _resolve_nmax(suite, config) for suite in selected}
    if config.mode == "grid":
        bounds = {
            suite: [degrees.degree_bound(suite, n) for n in range(n_max + 1)]
            for suite, n_max in n_maxes.items()
        }
        walk = _grid_walk(bounds)
    else:
        indices = [(s, n) for s, n_max in n_maxes.items() for n in range(n_max + 1)]
        walk = (
            (PointContext(point), [(suite, n, (i, n)) for suite, n in indices])
            for i, point in enumerate(points)
        )

    # The keys order each suite's cases as a suite-by-suite run meets them:
    # (point, n) in random mode, (n, point) in grid mode.  A suite keeps its
    # smallest failing key and skips every case with a larger one.
    failures: dict[str, tuple[tuple[int, int], Counterexample]] = {}
    spent = dict.fromkeys(selected, 0.0)
    for ctx, cases in walk:
        for suite, n, key in cases:
            if suite in failures and failures[suite][0] < key:
                continue
            started = time.perf_counter()
            sides = IDENTITIES[suite].sides(n, ctx)
            pair = next((pair for pair in sides if not same(pair[1], pair[2])), None)
            spent[suite] += time.perf_counter() - started
            if pair is not None:
                label, lhs, rhs = pair
                q, a, lhs, rhs = map(
                    format_rational, (ctx.q, ctx.a, value(lhs), value(rhs))
                )
                failures[suite] = key, Counterexample(q, a, label, lhs, rhs)

    for suite, n_max in n_maxes.items():
        identity = IDENTITIES[suite]
        key, failure = failures.get(suite, ((n_max + 1, 0), None))
        count = len(points)
        if config.mode == "grid":
            # Every grid below the failing index, then the place in its own.
            n, place = key
            count = place + sum((dq + 1) * (da + 1) for dq, da in bounds[suite][:n])
        report.durations[suite] = round(spent[suite], 6)
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

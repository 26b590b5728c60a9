"""Command line interface.

Two subcommands:

``verify`` runs identity suites over sampled points or degree-bound grids
and writes a JSON or CSV report (stdout by default).  Exit code 0 means
every executed check passed, 1 means some identity failed, 2 means invalid
input.

``eval`` prints exact values (as ``p/r`` strings of any size) of the
library's basic objects at one parameter point: recurrence coefficients,
orthogonal polynomials, moments, closed-form moments, the even product
basis, expansion coefficients, Hankel determinant pairs, and q-Hermite
Laurent polynomials.  Polynomials print as coefficients from degree 0 upward;
Laurent polynomials print as ``exponent:coefficient`` pairs; ``--eps 1``
turns the product basis into its x-weighted variant.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import expansion, hankel, moments, qhermite, recurrence
from ._version import __version__
from .context import PointContext, value
from .errors import InvalidInputError
from .points import QPoint
from .rationals import _RATIONAL_RE, format_rational, parse_rational
from .report import MODES, REPORT_FORMATS, SuiteConfig, emit_report
from .suites import SUITE_IDS, run_suite

_EVAL_CHOICES = ("b", "lambda", "s", "moment", "P", "pi", "acoeff", "hankel", "hermite")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmoments",
        description="Exact verification of q-Hermite moment identities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser("verify", help="run identity suites")
    verify.add_argument(
        "--suite", required=True, choices=SUITE_IDS + ("all",), help="which suite to run"
    )
    # No --nmax means each suite's own range, as SuiteConfig's n_max = None.
    verify.add_argument("--nmax", type=int, help="largest index checked")
    verify.add_argument(
        "--mode", choices=MODES, default=SuiteConfig.mode, help="point selection"
    )
    verify.add_argument(
        "--trials", type=int, default=SuiteConfig.trials, help="sampled points"
    )
    verify.add_argument("--seed", type=int, default=SuiteConfig.seed, help="sampling seed")
    verify.add_argument(
        "--bound", type=int, default=SuiteConfig.bound, help="sampling height bound"
    )
    verify.add_argument(
        "--q", action="append", default=[], metavar="P/R", help="explicit point q"
    )
    verify.add_argument(
        "--a", action="append", default=[], metavar="P/R", help="explicit point a"
    )
    verify.add_argument("--out", default=None, help="report file (default stdout)")
    verify.add_argument("--format", choices=REPORT_FORMATS, default="json")

    evaluate = commands.add_parser("eval", help="print exact values")
    evaluate.add_argument("--what", required=True, choices=_EVAL_CHOICES)
    evaluate.add_argument("--n", type=int, required=True)
    evaluate.add_argument("--k", type=int, default=None)
    evaluate.add_argument("--eps", type=int, choices=(0, 1), default=0)
    evaluate.add_argument("--q", required=True, metavar="P/R")
    evaluate.add_argument("--a", default=None, metavar="P/R")
    return parser


def _explicit_points(q_texts: list[str], a_texts: list[str]) -> tuple[QPoint, ...]:
    if len(q_texts) != len(a_texts):
        raise InvalidInputError(
            f"--q given {len(q_texts)} times but --a {len(a_texts)} times;"
            " explicit points need one of each"
        )
    return tuple(
        QPoint(parse_rational(q), parse_rational(a))
        for q, a in zip(q_texts, a_texts)
    )


def _run_verify(args: argparse.Namespace) -> int:
    config = SuiteConfig(
        suite=args.suite,
        n_max=args.nmax,
        mode=args.mode,
        trials=args.trials,
        seed=args.seed,
        bound=args.bound,
        explicit_points=_explicit_points(args.q, args.a),
    )
    report = run_suite(config)
    if args.out is None:
        sys.stdout.write(report.render(args.format))
    else:
        emit_report(report, args.format, args.out)
    return 0 if report.passed() else 1


def _print(*values) -> None:
    print(" ".join(map(format_rational, values)))


def _run_eval(args: argparse.Namespace) -> int:
    n = args.n
    if args.what == "hermite":
        poly = qhermite.hermite_laurent(n, QPoint(parse_rational(args.q), 0))
        print(" ".join(f"{e}:{format_rational(value(c))}" for e, c in poly.items()))
        return 0
    if args.a is None:
        raise InvalidInputError(f"--a is required for --what {args.what}")
    point = QPoint(parse_rational(args.q), parse_rational(args.a))
    if args.what == "b":
        _print(value(recurrence.coeff_b(n, point)))
    elif args.what == "lambda":
        _print(value(recurrence.coeff_lambda(n, point)))
    elif args.what == "s":
        poly = recurrence.s_polynomials(n, point)[n]
        _print(*(poly.coefficient(j) for j in range(n + 1)))
    elif args.what == "moment":
        _print(value(PointContext(point).moments(n)[n]))
    elif args.what == "P":
        _print(value(moments.moment_closed_form(n, point)))
    elif args.what == "pi":
        coeffs, den = moments.product_basis(n, point)
        # x pi_n for --eps 1: the same coefficients one power of x up.
        _print(*[0] * args.eps, *(value((c, den)) for c in coeffs))
    elif args.what == "acoeff":
        row = [value(e) for e in expansion.expansion_coeffs(n, point)]
        if args.k is None:
            _print(*row)
        else:
            # e_k^{(n)} = 0 outside k = 0..2n (see ``expansion``).
            _print(row[args.k] if 0 <= args.k < len(row) else 0)
    elif args.what == "hankel":
        _print(*hankel.hankel_sides(n, point))
    return 0


def _merge_rational_values(argv: list[str]) -> list[str]:
    # argparse reads "-3/7" as an option; fold rational values into --flag=value.
    merged = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (
            token in ("--q", "--a")
            and i + 1 < len(argv)
            and _RATIONAL_RE.match(argv[i + 1])
        ):
            merged.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            merged.append(token)
            i += 1
    return merged


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_rational_values(list(argv)))
    try:
        if args.command == "verify":
            return _run_verify(args)
        return _run_eval(args)
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

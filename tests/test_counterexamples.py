"""Counterexample contract: reports under fixed mutations match a golden file.

Each case replaces one library function with a corrupted version and runs a
suite; the report (without its ``durations`` block) must match the entry of
``golden/counterexamples.json`` field for field, so a refactor of the suite
runner cannot change which check fails, where, or what it prints.

To re-record after an intended change of the report format, run
``PYTHONPATH=src python tests/test_counterexamples.py``; it rewrites the
golden file from the current code.
"""

import json
from pathlib import Path

import pytest

import qmoments.expansion
import qmoments.moments
import qmoments.qhermite
import qmoments.qseries
import qmoments.recurrence
from qmoments import LaurentPolynomial, SuiteConfig, run_suite

GOLDEN = Path(__file__).parent / "golden" / "counterexamples.json"


def _mutation(module, name, at, change, q=None):
    """Replace ``module.name(n, ..., point)`` by ``change`` of its value at
    n == ``at``, and only at the point's q == ``q`` when ``q`` is given.

    ``at`` may be a predicate on n instead of one index.
    """
    hit = at if callable(at) else (lambda n: n == at)

    def apply(monkeypatch):
        real = getattr(module, name)

        def corrupted(n, *args):
            value = real(n, *args)
            if hit(n) and (q is None or args[-1].q == q):
                return change(value)
            return value

        monkeypatch.setattr(module, name, corrupted)

    return apply


# b_n, lambda_n, P_m and e_k come as reduced pairs (num, den).
def _negated(pair):
    return -pair[0], pair[1]


def _plus_1(pair):
    num, den = pair
    return num + den, den


B0_NEGATED = _mutation(qmoments.recurrence, "coeff_b", 0, _negated)
ODD_LAMBDA_NEGATED = _mutation(
    qmoments.recurrence, "coeff_lambda", lambda n: n % 2, _negated
)
CLOSED_FORM_3_PLUS_1 = _mutation(qmoments.moments, "moment_closed_form", 3, _plus_1)


def _e1_plus_1(row):
    return (row[0], _plus_1(row[1]), *row[2:])


E1_OF_LEVEL_1_PLUS_1 = _mutation(qmoments.expansion, "expansion_coeffs", 1, _e1_plus_1)


def _hermite_mutation(at, change, q=None):
    return _mutation(qmoments.qhermite, "hermite_laurent", at, change, q)


# H_n holds its coefficients as reduced pairs too.
def _plus_t(h):
    return LaurentPolynomial({**h.coeffs, 1: _plus_1(h.coeffs[1])})


def _doubled(h):
    return LaurentPolynomial({e: (2 * num, den) for e, (num, den) in h.items()})


def _off_parity(h):
    return LaurentPolynomial({-2: h.coefficient(-1), 2: h.coefficient(1)})


def _lhs_plus_1(sides):
    return _plus_1(sides[0]), sides[1]


RANDOM_ALL = SuiteConfig(suite="all", trials=2, seed=5)
RANDOM_HERMITE = SuiteConfig(suite="hermite", trials=2, seed=5)

CASES = {
    "random-b0-negated": (B0_NEGATED, RANDOM_ALL),
    "random-odd-lambda-negated": (ODD_LAMBDA_NEGATED, RANDOM_ALL),
    "random-closed-form-3-plus-1": (CLOSED_FORM_3_PLUS_1, RANDOM_ALL),
    # H_1 = 1/t + t becomes 1/t + 2t: no longer palindromic.
    "random-hermite-1-not-palindromic": (
        _hermite_mutation(1, _plus_t),
        RANDOM_HERMITE,
    ),
    # H_0 = 2 keeps H_0 palindromic with one coefficient and first breaks
    # the t-evaluated connection at n = 0 (1 against 2).
    "random-hermite-0-doubled": (_hermite_mutation(0, _doubled), RANDOM_HERMITE),
    # H_2 doubled first breaks the three-term recurrence at n = 1.
    "random-hermite-2-doubled": (_hermite_mutation(2, _doubled), RANDOM_HERMITE),
    # H_1 moved to t^-2 + t^2: palindromic with two coefficients, but of
    # the wrong parity; the recurrence must carry the odd exponents through.
    "random-hermite-1-off-parity": (
        _hermite_mutation(1, _off_parity),
        RANDOM_HERMITE,
    ),
    "grid-conjecture-odd-lambda-negated": (
        ODD_LAMBDA_NEGATED,
        SuiteConfig(suite="conjecture", mode="grid", n_max=2),
    ),
    # The q-only factors are shared down each grid column beneath these
    # attributes, so a patched attribute must still set the first failure.
    "grid-induction-b0-negated": (
        B0_NEGATED,
        SuiteConfig(suite="induction", mode="grid", n_max=0),
    ),
    "grid-induction-e1-of-level-1-plus-1": (
        E1_OF_LEVEL_1_PLUS_1,
        SuiteConfig(suite="induction", mode="grid", n_max=0),
    ),
    "grid-hermite-closed-form-3-plus-1": (
        CLOSED_FORM_3_PLUS_1,
        SuiteConfig(suite="hermite", mode="grid", n_max=3),
    ),
    "grid-hermite-1-off-parity": (
        _hermite_mutation(1, _off_parity),
        SuiteConfig(suite="hermite", mode="grid", n_max=2),
    ),
    # The q-only pairs are built once per store.  A corruption at q = 3
    # alone passes the first column and first fails at the first point of
    # the second, as in a run that builds every pair at every point.
    "grid-hermite-1-not-palindromic-at-q-3": (
        _hermite_mutation(1, _plus_t, q=3),
        SuiteConfig(suite="hermite", mode="grid", n_max=2),
    ),
    "grid-lemmas-q-vandermonde-1-plus-1-at-q-3": (
        _mutation(qmoments.qseries, "qvandermonde_limit_sides", 1, _lhs_plus_1, q=3),
        SuiteConfig(suite="lemmas", mode="grid", n_max=1),
    ),
    # Expansion index n is the induction step from level n - 1, so a wrong
    # lambda_2 first fails at index 2, where the step reads it, at the
    # first point of that grid that tells it apart.
    "grid-expansion-lambda-2-plus-1": (
        _mutation(qmoments.recurrence, "coeff_lambda", 2, _plus_1),
        SuiteConfig(suite="expansion", mode="grid", n_max=3),
    ),
    # All suites share one context per point and one store per column.
    # Conjecture first fails at n=2, expansion at n=1 and induction at n=0,
    # while hermite passes.
    "grid-all-odd-lambda-negated": (
        ODD_LAMBDA_NEGATED,
        SuiteConfig(suite="all", mode="grid", n_max=2),
    ),
    # Conjecture fails at n=1 and induction at n=0; hankel and hermite pass.
    "grid-all-b0-negated": (
        B0_NEGATED,
        SuiteConfig(suite="all", mode="grid", n_max=1),
    ),
    # Expansion fails at n=1 and induction at n=0; conjecture, hankel,
    # lemmas and hermite pass through n=2.
    "grid-all-e1-of-level-1-plus-1": (
        E1_OF_LEVEL_1_PLUS_1,
        SuiteConfig(suite="all", mode="grid", n_max=2),
    ),
}


def _stripped_report(config):
    report = run_suite(config).as_dict()
    del report["durations"]
    return report


@pytest.mark.parametrize("name", list(CASES))
def test_counterexample_matches_golden(monkeypatch, name):
    mutate, config = CASES[name]
    mutate(monkeypatch)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    report = _stripped_report(config)
    assert any(record["status"] == "fail" for record in report["identities"])
    assert report == golden[name]


def test_golden_covers_every_suite():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    failed = {
        record["id"]
        for name, report in golden.items()
        if name.startswith("random-")
        for record in report["identities"]
        if record["status"] == "fail"
    }
    assert failed == set(qmoments.SUITE_IDS)


if __name__ == "__main__":
    recorded = {}
    for name, (mutate, config) in CASES.items():
        with pytest.MonkeyPatch.context() as patch:
            mutate(patch)
            recorded[name] = _stripped_report(config)
    GOLDEN.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")

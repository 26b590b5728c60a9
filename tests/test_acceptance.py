"""Acceptance suite: one test per acceptance criterion, all exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Every comparison is exact rational equality; there are no
tolerances anywhere.
"""

import time
from fractions import Fraction

import pytest

import qmoments.recurrence
from qmoments import (
    LaurentPolynomial,
    PointContext,
    QPoint,
    SuiteConfig,
    binom2,
    coeff_b,
    coeff_lambda,
    connection_sides,
    hankel_sides,
    hermite_laurent,
    hermite_recurrence_sides,
    induction_sides,
    pochhammer,
    product_moment_sides,
    qbinomial_theorem_sides,
    qvandermonde_limit_sides,
    run_suite,
    same,
    sample_points,
    value,
)
from oracles import expansion_in_x, moments_via_basis, pi_product, poly

F = Fraction

TRIALS = 25
SEED = 7
BOUND = 1000


@pytest.fixture(scope="module")
def points():
    return sample_points(TRIALS, SEED, BOUND)


@pytest.fixture(scope="module")
def ref():
    return QPoint(F(1, 2), F(2))


def _line(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_conjecture_suite_25_points():
    started = time.monotonic()
    report = run_suite(
        SuiteConfig(suite="conjecture", n_max=24, trials=TRIALS, seed=SEED, bound=BOUND)
    )
    elapsed = time.monotonic() - started
    ok = report.passed() and elapsed < 60.0
    _line(f"conjecture n<=24 at 25 points in {elapsed:.1f}s (<60s)", ok)


def test_pinned_values(ref):
    pi_1, x_pi_1 = product_moment_sides(1, ref)  # (direct, closed) each
    checks = {
        "b_0": value(coeff_b(0, ref)) == 6,
        "b_1": value(coeff_b(1, ref)) == F(-24, 7),
        "lambda_1": value(coeff_lambda(1, ref)) == -20,
        "lambda_2": value(coeff_lambda(2, ref)) == F(54, 49),
        "mu_0..mu_3": tuple(map(value, PointContext(ref).moments(3)[:4]))
        == (1, 6, 16, F(312, 7)),
        "L(pi_1) closed": value(pi_1[1]) == 12,
        "L(pi_1) direct": value(pi_1[0]) == 12,
        "L(x pi_1) closed": value(x_pi_1[1]) == F(144, 7),
        "L(x pi_1) direct": value(x_pi_1[0]) == F(144, 7),
        "hankel n=1": hankel_sides(1, ref) == (-20, -20),
    }
    bad = [name for name, ok in checks.items() if not ok]
    _line("pinned values at (q,a)=(1/2,2)", not bad)


def test_oracle_equivalence(points):
    ok = all(
        moments_via_basis(24, point)
        == tuple(map(value, PointContext(point).moments(24)[:25]))
        for point in points
    )
    _line("moment oracles agree entrywise, N<=24, 25 points", ok)


def test_expansion_proposition(points):
    # The x-basis oracle multiplies sum_k e_k s_{2n-k} out in x; the
    # five-term induction is what the expansion suite checks at n + 1.
    ok = True
    for point in points:
        for n in range(9):
            if poly(expansion_in_x(n, point)) != pi_product(n, point):
                ok = False
        for n in range(8):
            for lhs, rhs in induction_sides(n, point):
                if not same(lhs, rhs):
                    ok = False
    _line("product-basis expansion n<=8 and five-term induction n<=7", ok)


def test_product_moment_proposition(points):
    # Brute-force re-derivation of the q-Vandermonde closed form for p <= 6
    # precedes relying on it for the full range.
    derivation_ok = True
    for point in points[:5]:
        q = point.q
        for p in range(7):
            total = F(0)
            for k in range(p // 2 + 1):
                term = q ** (2 * binom2(k)) / (
                    pochhammer(q * q, q * q, k) * pochhammer(q, q, p - 2 * k)
                )
                total += -term if k % 2 else term
            if total != q ** binom2(p) / pochhammer(q, q, p):
                derivation_ok = False
    suite_ok = True
    for point in points:
        for n in range(11):
            for direct, closed in product_moment_sides(n, point):
                if not same(closed, direct):
                    suite_ok = False
        for m in range(21):
            for lhs, rhs in (
                qbinomial_theorem_sides(m, point),
                qvandermonde_limit_sides(m, point),
            ):
                if not same(lhs, rhs):
                    suite_ok = False
    _line(
        "product moments closed=direct n<=10 and summation lemmas m,p<=20",
        derivation_ok and suite_ok,
    )


def test_hankel_corollary(points):
    selected = list(points[:9])
    degenerate = QPoint(points[0].q, -points[0].q)
    selected.append(degenerate)
    ok = True
    for point in selected:
        for n in range(9):
            det, product = hankel_sides(n, point)
            if det != product:
                ok = False
    for n in range(1, 9):
        if hankel_sides(n, degenerate) != (0, 0):
            ok = False
    _line("hankel determinant equals lambda product, n<=8, 10 points", ok)


def test_q_hermite_identities(points):
    ok = True
    for point in points:
        t0 = point.a if point.a != 0 else point.q
        for n in range(17):
            # The coefficients of H_n and both recurrence sides are split
            # pairs, read here as values.
            h_n = hermite_laurent(n, point).coeffs
            if any(value(c) != value(h_n.get(-e, 0)) for e, c in h_n.items()):
                ok = False
            pairs = [tuple(map(value, connection_sides(n, t0, point)))]
            if n >= 1:
                lhs, rhs = hermite_recurrence_sides(n, point)
                pairs.append(
                    tuple(
                        LaurentPolynomial({e: value(c) for e, c in side.items()})
                        for side in (lhs.coeffs, rhs)
                    )
                )
            if any(lhs != rhs for lhs, rhs in pairs):
                ok = False
    _line("q-Hermite palindromicity, recurrence, connection n<=16", ok)


def test_grid_proof_and_mutation_sensitivity(monkeypatch):
    report = run_suite(SuiteConfig(suite="conjecture", mode="grid", n_max=6))
    grid_ok = report.passed()

    # Flip the sign of the odd-branch lambda values; mu_2 = lambda_1 + b_0^2
    # exposes the corruption on the very first nontrivial grid.
    real = qmoments.recurrence.coeff_lambda

    def corrupted(n, point):
        num, den = real(n, point)
        return (-num if n % 2 else num), den

    monkeypatch.setattr(qmoments.recurrence, "coeff_lambda", corrupted)
    mutated = run_suite(SuiteConfig(suite="conjecture", mode="grid", n_max=2))
    monkeypatch.undo()
    _line(
        "grid mode proves conjecture for each n<=6 and detects a mutated coefficient",
        grid_ok and not mutated.passed(),
    )

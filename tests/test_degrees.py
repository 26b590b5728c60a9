"""Budget arithmetic and soundness of the degree bounds.

The grid proofs are only as good as the budgets, so alongside unit tests of
the Budget algebra this module recomputes the budgeted quantities
symbolically (same expression bodies, sympy scalars) and checks that the
actual reduced numerator/denominator degrees stay under the budgets.
"""

import pytest
import sympy

from qmoments import InvalidInputError, degree_bound
from qmoments.degrees import (
    IDENTITY_IDS,
    Budget,
    _e_family,
    _mu_family,
    _p_budget,
    _s_family,
)
from qmoments.recurrence import _b_formula, _lambda_formula
from qmoments.suites import DEFAULT_NMAX, IDENTITIES, SUITE_IDS

Q, A = sympy.symbols("q a")


def _degrees(expr) -> tuple[tuple[int, int], tuple[int, int]]:
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))

    def dq(p):
        p = sympy.expand(p)
        return 0 if p.is_number else sympy.degree(sympy.Poly(p, Q, A), Q)

    def da(p):
        p = sympy.expand(p)
        return 0 if p.is_number else sympy.degree(sympy.Poly(p, Q, A), A)

    return (dq(num), da(num)), (dq(den), da(den))


def _fits(expr, budget: Budget) -> bool:
    (nq, na), (dq, da) = _degrees(expr)
    return nq <= budget.num_q and na <= budget.num_a and dq <= budget.den_q and da <= budget.den_a


def test_budget_arithmetic():
    q = Budget(num_q=1)
    a = Budget(num_a=1)
    prod = q * a
    assert (prod.num, prod.den) == ((1, 1), (0, 0))
    quot = q / a
    assert (quot.num, quot.den) == ((1, 0), (0, 1))
    s = quot + a  # (q + a^2) / a
    assert s.num == (1, 2)
    assert s.den == (0, 1)
    assert (q ** -2).den == (2, 0)
    assert (1 - q).num == (1, 0)
    assert (-q).num == (1, 0)
    cover = q.cover(a)
    assert cover.num == (1, 1)
    assert q.cleared_difference(a) == (1, 1)


def test_identity_registry_matches_suites():
    # perfbench's pass order and expected files rest on this order and these
    # defaults.
    assert SUITE_IDS == (
        "conjecture",
        "expansion",
        "induction",
        "theorem",
        "hankel",
        "lemmas",
        "hermite",
    )
    assert DEFAULT_NMAX == {
        "conjecture": 24,
        "expansion": 8,
        "induction": 8,
        "theorem": 8,
        "hankel": 8,
        "lemmas": 20,
        "hermite": 16,
    }
    assert set(IDENTITY_IDS) == set(SUITE_IDS)
    for identity in IDENTITIES:
        dq, da = degree_bound(identity, 0)
        assert dq >= 1 and da >= 1
    with pytest.raises(InvalidInputError):
        degree_bound("nonsense", 2)
    with pytest.raises(InvalidInputError):
        degree_bound("conjecture", -1)


def test_spec_examples():
    dq, da = degree_bound("conjecture", 0)
    assert dq >= 1 and da >= 1
    dq, da = degree_bound("hankel", 0)
    assert dq >= 0 and da >= 0


def test_bounds_monotone_in_n():
    for identity in IDENTITY_IDS:
        bounds = [degree_bound(identity, n) for n in range(7)]
        for lo, hi in zip(bounds, bounds[1:]):
            assert hi[0] >= lo[0]
            assert hi[1] >= lo[1]


def test_recurrence_leaf_budgets_sound():
    for n in range(0, 7):
        assert _fits(_b_formula(n, Q, A), _b_formula(n, Budget(num_q=1), Budget(num_a=1)))
    for n in range(1, 7):
        assert _fits(
            _lambda_formula(n, Q, A),
            _lambda_formula(n, Budget(num_q=1), Budget(num_a=1)),
        )


def test_moment_budgets_sound():
    upto = 4
    budgets = _mu_family(upto)
    b = [_b_formula(k, Q, A) for k in range(upto)]
    lam = [_lambda_formula(k, Q, A) for k in range(1, upto)]
    row = [sympy.Integer(1)] + [sympy.Integer(0)] * upto
    mu = [sympy.Integer(1)]
    for n in range(upto):
        new_row = []
        for k in range(upto - n):
            value = row[k + 1] + b[k] * row[k]
            if k >= 1:
                value += lam[k - 1] * row[k - 1]
            new_row.append(sympy.cancel(sympy.together(value)))
        row = new_row
        mu.append(row[0])
    for n in range(upto + 1):
        assert _fits(mu[n], budgets[n])


def test_s_coefficient_budgets_sound():
    # Coefficient lists with per-entry cancellation, mirroring the
    # implementation's recurrence; avoids blowing up a symbolic expansion.
    upto = 4
    budgets = _s_family(upto)
    family = [[sympy.Integer(1)], [sympy.cancel(-_b_formula(0, Q, A)), sympy.Integer(1)]]
    for m in range(1, upto):
        b_m = _b_formula(m, Q, A)
        lam_m = _lambda_formula(m, Q, A)
        prev, prev2 = family[m], family[m - 1]
        nxt = []
        for j in range(m + 2):
            term = sympy.Integer(0)
            if 1 <= j:
                term += prev[j - 1]
            if j < len(prev):
                term -= b_m * prev[j]
            if j < len(prev2):
                term -= lam_m * prev2[j]
            nxt.append(sympy.cancel(sympy.together(term)))
        family.append(nxt)
    for m in range(upto + 1):
        for coeff in family[m]:
            assert _fits(coeff, budgets[m])


def test_expansion_coefficient_budgets_sound():
    for n in range(4):
        budgets = _e_family(n)
        q_inv = 1 / Q
        for k in range(n + 1):
            shared = sympy.prod(
                [1 + A * Q ** (2 * n - 1) * q_inv**j for j in range(2 * k)]
            )
            den_even = sympy.prod(
                [1 - Q ** (4 * n - 2 * k - 1) * q_inv ** (2 * j) for j in range(k)]
            )
            qq = [
                sympy.prod([1 - (Q * Q) ** (i + 1) for i in range(m)])
                for m in range(n + 1)
            ]
            even = shared / den_even * qq[n] / (qq[k] * qq[n - k])
            assert _fits(even, budgets[2 * k])
            if 2 * k + 1 <= 2 * n:
                den_odd = sympy.prod(
                    [
                        1 - Q ** (4 * n - 2 * k - 1) * q_inv ** (2 * j)
                        for j in range(k + 1)
                    ]
                )
                odd = (
                    (1 + A)
                    * shared
                    / den_odd
                    * qq[n]
                    / (qq[k + 1] * qq[n - k - 1])
                    * (1 - Q ** (2 * (k + 1)))
                )
                assert _fits(odd, budgets[2 * k + 1])


def test_closed_moment_budget_sound():
    for j in range(7):
        top = sum(
            sympy.prod([1 - Q ** (i + 1) for i in range(j)])
            / (
                sympy.prod([1 - Q ** (i + 1) for i in range(k)])
                * sympy.prod([1 - Q ** (i + 1) for i in range(j - k)])
            )
            * A**k
            for k in range(j + 1)
        )
        den = sympy.prod([1 - Q ** (2 * i + 1) for i in range((j + 1) // 2)])
        assert _fits(top / den, _p_budget(j))

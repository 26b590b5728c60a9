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

Q, A, T = sympy.symbols("q a t")


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


def _sym_moments(upto: int) -> list:
    """mu_0..mu_upto as rational functions of (q, a), by the moment-table
    recursion the implementation runs."""
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
    return mu


def _sym_poch(start, base, length):
    return sympy.prod([1 - start * base**j for j in range(length)])


def _sym_qbinom(n: int, k: int, q):
    return _sym_poch(q, q, n) / (_sym_poch(q, q, k) * _sym_poch(q, q, n - k))


def _sym_closed_form(j: int, a):
    """P_j(a) as a rational function of q and ``a``."""
    top = sum(_sym_qbinom(j, k, Q) * a**k for k in range(j + 1))
    return top / _sym_poch(Q, Q * Q, (j + 1) // 2)


def test_moment_budgets_sound():
    upto = 4
    budgets = _mu_family(upto)
    mu = _sym_moments(upto)
    for n in range(upto + 1):
        assert _fits(mu[n], budgets[n])


def _sym_s_family(upto: int) -> list[list]:
    """Coefficient lists of s_0..s_upto (degree 0 upward), with per-entry
    cancellation, mirroring the implementation's recurrence; avoids blowing
    up a symbolic expansion."""
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
    return family[: upto + 1]


def _sym_e_family(n: int) -> list:
    """The closed-form expansion coefficients e_0^{(n)} .. e_{2n}^{(n)}."""
    coeffs = []
    for k in range(n + 1):
        shared = _sym_poch(-A * Q ** (2 * n - 1), 1 / Q, 2 * k)
        top = Q ** (4 * n - 2 * k - 1)
        coeffs.append(shared / _sym_poch(top, Q**-2, k) * _sym_qbinom(n, k, Q * Q))
        if 2 * k + 1 <= 2 * n:
            coeffs.append(
                (1 + A)
                * shared
                / _sym_poch(top, Q**-2, k + 1)
                * _sym_qbinom(n, k + 1, Q * Q)
                * (1 - Q ** (2 * (k + 1)))
            )
    return coeffs


def test_s_coefficient_budgets_sound():
    upto = 4
    budgets = _s_family(upto)
    for m, coeffs in enumerate(_sym_s_family(upto)):
        for coeff in coeffs:
            assert _fits(coeff, budgets[m])


def test_expansion_coefficient_budgets_sound():
    for n in range(4):
        budgets = _e_family(n)
        for k, coeff in enumerate(_sym_e_family(n)):
            assert _fits(coeff, budgets[k])


def test_closed_moment_budget_sound():
    for j in range(7):
        assert _fits(_sym_closed_form(j, A), _p_budget(j))


# Identity-level bounds.  A grid proof at index n rests on degree_bound(id, n)
# covering the cleared difference of the identity's two sides.  Each side is
# rebuilt symbolically from the formulas the implementation evaluates and
# reduced to A/B and C/E; the cleared difference A*E - C*B must have degree
# at most the bound minus its +1 pad in each variable.


def _poly_degree(p, var) -> int:
    p = sympy.expand(p)
    return 0 if p.is_number else sympy.degree(p, var)


def _assert_within_bound(identity, n, lhs, rhs, second=A):
    num_l, den_l = sympy.fraction(sympy.cancel(sympy.together(lhs)))
    num_r, den_r = sympy.fraction(sympy.cancel(sympy.together(rhs)))
    dq, da = degree_bound(identity, n)
    for product in (num_l * den_r, num_r * den_l):
        assert _poly_degree(product, Q) <= dq - 1, (identity, n)
        assert _poly_degree(product, second) <= da - 1, (identity, n)


def test_conjecture_identity_bound_sound():
    # The grid at index n compares mu_n with P_n alone.
    mu = _sym_moments(4)
    for n in range(5):
        _assert_within_bound("conjecture", n, mu[n], _sym_closed_form(n, A))


def test_hankel_identity_bound_sound():
    for n in range(2):
        matrix = sympy.Matrix(
            n + 1, n + 1, lambda i, j: _sym_closed_form(i + j, A)
        )
        product = sympy.prod(
            [_lambda_formula(i, Q, A) ** (n + 1 - i) for i in range(1, n + 1)]
        )
        _assert_within_bound("hankel", n, matrix.det(), product)


def test_hermite_connection_bound_sound():
    # Second axis t: (q;q^2)_{floor((n+1)/2)} P_n(t^2) = t^n H_n(t).
    for n in range(4):
        lhs = _sym_poch(Q, Q * Q, (n + 1) // 2) * _sym_closed_form(n, T**2)
        h_n = sum(_sym_qbinom(n, k, Q) * T ** (2 * k - n) for k in range(n + 1))
        _assert_within_bound("hermite", n, lhs, T**n * h_n, second=T)


def test_hermite_recurrence_bound_sound():
    # The suite compares the recurrence coefficientwise in t, so each pair is
    # a function of q alone: the coefficients of t^e in H_{n+1} and in
    # (t + 1/t) H_n - (1 - q^n) H_{n-1}.
    def h(n):
        return {2 * k - n: _sym_qbinom(n, k, Q) for k in range(n + 1)}

    for n in range(1, 4):
        lhs, upper, lower = h(n + 1), h(n), h(n - 1)
        for e in range(-n - 1, n + 2, 2):
            rhs = upper.get(e - 1, 0) + upper.get(e + 1, 0) - (1 - Q**n) * lower.get(e, 0)
            _assert_within_bound("hermite", n, lhs[e], rhs, second=T)


def test_expansion_identity_bound_sound():
    # pi_n = sum_k e_k s_{2n-k}, one pair per coefficient of x.
    for n in range(3):
        s = _sym_s_family(2 * n)
        e = _sym_e_family(n)
        x = sympy.Symbol("x")
        pi_n = sympy.Poly(
            sympy.prod([x**2 - A**2 * Q ** (2 * i) for i in range(n)]), x
        )
        for j in range(2 * n + 1):
            rhs = sum(
                e[k] * s[2 * n - k][j] for k in range(2 * n + 1) if j <= 2 * n - k
            )
            _assert_within_bound("expansion", n, pi_n.coeff_monomial(x**j), rhs)


def test_induction_identity_bound_sound():
    def b(i):
        return _b_formula(i, Q, A)

    def lam(i):
        return _lambda_formula(i, Q, A) if i else sympy.Integer(0)

    for n in range(2):
        lower, upper = _sym_e_family(n), _sym_e_family(n + 1)

        def lo(j):
            return lower[j] if 0 <= j <= 2 * n else sympy.Integer(0)

        for k in range(2 * n + 3):
            m = 2 * n - k
            rhs = -(A**2) * Q ** (2 * n) * lo(k - 2) + lo(k)
            rhs += (b(m + 2) + b(m + 1)) * lo(k - 1)
            rhs += (lam(m + 3) + b(m + 2) ** 2 + lam(m + 2)) * lo(k - 2)
            rhs += (b(m + 3) * lam(m + 3) + lam(m + 3) * b(m + 2)) * lo(k - 3)
            rhs += lam(m + 4) * lam(m + 3) * lo(k - 4)
            _assert_within_bound("induction", n, upper[k], rhs)


def test_theorem_identity_bound_sound():
    mu = _sym_moments(3)
    for n in range(2):
        e = _sym_e_family(n)
        pairs = [(e[2 * n], _sym_poch(-A, Q, 2 * n) / _sym_poch(Q, Q * Q, n))]
        if n >= 1:
            combo = e[2 * n] * _b_formula(0, Q, A) + e[2 * n - 1] * _lambda_formula(
                1, Q, A
            )
            pairs.append(
                (combo, _sym_poch(-A, Q, 2 * n + 1) / _sym_poch(Q, Q * Q, n + 1))
            )
        pairs += [(mu[m], _sym_closed_form(m, A)) for m in range(2 * n + 2)]
        for lhs, rhs in pairs:
            _assert_within_bound("theorem", n, lhs, rhs)


def test_lemmas_identity_bound_sound():
    mu = _sym_moments(5)
    for n in range(5):
        binomial = sum(
            _sym_qbinom(n, p, Q) * Q ** (p * (p - 1) // 2) * A**p for p in range(n + 1)
        )
        pairs = [(binomial, _sym_poch(-A, Q, n))]
        vandermonde = sum(
            (-1) ** k
            * Q ** (k * (k - 1))
            / (_sym_poch(Q * Q, Q * Q, k) * _sym_poch(Q, Q, n - 2 * k))
            for k in range(n // 2 + 1)
        )
        pairs.append((vandermonde, Q ** (n * (n - 1) // 2) / _sym_poch(Q, Q, n)))
        half = n // 2
        for eps in (0, 1):
            direct = sum(
                (-1) ** k
                * _sym_qbinom(half, k, Q * Q)
                * A ** (2 * k)
                * Q ** (k * (k - 1))
                * mu[2 * (half - k) + eps]
                for k in range(half + 1)
            )
            closed = _sym_poch(-A, Q, 2 * half + eps) / _sym_poch(Q, Q * Q, half + eps)
            pairs.append((direct, closed))
        for lhs, rhs in pairs:
            _assert_within_bound("lemmas", n, lhs, rhs)

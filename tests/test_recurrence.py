import json
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from qmoments import (
    InvalidInputError,
    PointContext,
    Polynomial,
    QPoint,
    QTables,
    coeff_b,
    coeff_lambda,
    s_polynomials,
    value,
)
from qmoments.moments import x_step
from qmoments.recurrence import _b_parts, _lambda_parts
from oracles import poly, s_family

F = Fraction


def test_b_pinned_values(ref_point):
    assert value(coeff_b(0, ref_point)) == 6
    assert value(coeff_b(1, ref_point)) == F(-24, 7)


def test_b0_collapses_to_simple_form(small_points):
    # The vanishing (1 - q^n) factors at n = 0 leave b_0 = (1+a)/(1-q).
    assert value(coeff_b(0, QPoint(F(1, 3), 1))) == 3
    for point in small_points:
        assert value(coeff_b(0, point)) == (1 + point.a) / (1 - point.q)


def test_lambda_pinned_values(ref_point):
    assert value(coeff_lambda(1, ref_point)) == -20
    assert value(coeff_lambda(2, ref_point)) == F(54, 49)


def test_lambda_zero_factor():
    assert value(coeff_lambda(1, QPoint(F(1, 2), F(-1, 2)))) == 0


def test_lambda_even_branch_closed_form(small_points):
    for point in small_points:
        q, a = point.q, point.a
        for n in (2, 4, 6):
            expected = (
                q**n
                * (1 + a) ** 2
                * (1 - q ** (n - 1))
                * (1 - q**n)
                / (1 - q ** (2 * n - 1)) ** 2
            )
            assert value(coeff_lambda(n, point)) == expected


def test_index_domain_errors(ref_point):
    with pytest.raises(InvalidInputError):
        coeff_b(-1, ref_point)
    with pytest.raises(InvalidInputError):
        coeff_lambda(0, ref_point)
    with pytest.raises(InvalidInputError):
        s_polynomials(-1, ref_point)


def test_s_initial_and_pinned(ref_point):
    s = s_polynomials(2, ref_point)
    assert s[0] == Polynomial((1,))
    assert s[1] == Polynomial([-6, 1])
    assert s[2] == Polynomial([F(-4, 7), F(-18, 7), 1])


def test_s_monic_of_correct_degree(ref_point, small_points):
    for point in (ref_point, small_points[0]):
        family = s_polynomials(24, point)
        for n, s_n in enumerate(family):
            assert len(s_n.coeffs) == n + 1
            assert s_n.coeffs[-1] == 1
    for point in small_points[1:4]:
        family = s_polynomials(12, point)
        for n, s_n in enumerate(family):
            assert len(s_n.coeffs) == n + 1
            assert s_n.coeffs[-1] == 1


def test_s_satisfies_recurrence(ref_point):
    family = s_family(8, ref_point)
    for n in range(1, 8):
        lhs = family[n + 1]
        b_n, lam_n = value(coeff_b(n, ref_point)), value(coeff_lambda(n, ref_point))
        rhs = poly([-b_n, 1]) * family[n] - poly([lam_n]) * family[n - 1]
        assert lhs == rhs


def test_negative_exponent_handling():
    # Odd-branch b_1 contains q^{-1}; exact rational powers keep it finite.
    point = QPoint(F(5, 3), F(1, 4))
    b_1 = value(coeff_b(1, point))
    assert b_1.denominator > 0


# The formulas as one expression each, as written before the q-only factors
# were split off and shared down a grid column: the oracle for that split.
def _b_literal(n, q, a):
    if n % 2 == 0:
        lead = -(1 - q) / ((1 - q ** (2 * n + 1)) * (1 - q ** (2 * n - 1)) * (1 + a))
        inner = a * (1 - q ** (2 * n - 1)) * (1 - q ** (n + 1)) * (1 - q**n) / (
            1 - q
        ) - q**n * (
            (1 - q ** (n - 1)) / (1 - q) + q ** (n + 1) * (1 - q**n) / (1 - q)
        ) * (1 + a) ** 2
    else:
        lead = (1 - q) / ((1 - q ** (2 * n + 1)) * (1 - q ** (2 * n - 1)) * (1 + a))
        inner = a * (1 - q ** (2 * n + 1)) * (1 - q ** (n - 1)) * (1 - q**n) / (
            1 - q
        ) - q ** (n + 1) * (
            (1 - q**n) / (1 - q) + q ** (n - 2) * (1 - q ** (n + 1)) / (1 - q)
        ) * (1 + a) ** 2
    return lead * inner


def _lambda_literal(n, q, a):
    if n % 2 == 0:
        return (
            q**n * (1 + a) ** 2 * (1 - q ** (n - 1)) * (1 - q**n)
            / (1 - q ** (2 * n - 1)) ** 2
        )
    return -(
        (a + q**n) * (a + q ** (n - 1)) * (1 + a * q ** (n - 1)) * (1 + a * q**n)
    ) / ((1 + a) ** 2 * (1 - q ** (2 * n - 1)) ** 2)


# The reference point, a negative q, |q| > 1, a = 0, and a = -q (where
# lambda_1 = 0); the first and last share q = 1/2.  Then the grid's own
# shapes, split as q = u/v and a = s/t: integer q and a (v = t = 1), s = 0,
# and u < 0, v != 1, s < 0, t != 1 together.
ORACLE_POINTS = [
    QPoint(F(1, 2), 2),
    QPoint(F(-3, 4), F(5, 3)),
    QPoint(F(5, 3), F(1, 4)),
    QPoint(F(2, 3), 0),
    QPoint(F(2), F(3)),
    QPoint(F(2), F(0)),
    QPoint(F(-5, 2), F(-7, 4)),
    QPoint(F(1, 2), F(-1, 2)),
]


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "one QTables"])
def test_coefficients_match_the_literal_formulas(shared):
    # One store per distinct q; ORACLE_POINTS repeats some q, so a store serves
    # more than one point.
    stores = {point.q: QTables(point.q) for point in ORACLE_POINTS}
    for point in ORACLE_POINTS:
        ctx = PointContext(point, stores[point.q]) if shared else point
        for n in range(31):
            want = _b_literal(n, point.q, point.a)
            assert value(coeff_b(n, ctx)) == want, (point, n)
            if n:
                want = _lambda_literal(n, point.q, point.a)
                assert value(coeff_lambda(n, ctx)) == want, (point, n)
    last = ORACLE_POINTS[-1]
    assert value(coeff_lambda(1, PointContext(last, stores[last.q]))) == 0


# lead, p and r of b_n and c of the even lambda_n, as the module docstring
# writes them, evaluated in Fraction: the oracle for the integer parts.
def _b_docstring_parts(n, q):
    lead = (1 - q) / ((1 - q ** (2 * n + 1)) * (1 - q ** (2 * n - 1)))
    if n % 2 == 0:
        p = (1 - q ** (2 * n - 1)) * (1 - q ** (n + 1)) * (1 - q**n) / (1 - q)
        inner = (1 - q ** (n - 1)) / (1 - q) + q ** (n + 1) * (1 - q**n) / (1 - q)
        return -lead, p, q**n * inner
    p = (1 - q ** (2 * n + 1)) * (1 - q ** (n - 1)) * (1 - q**n) / (1 - q)
    inner = (1 - q**n) / (1 - q) + q ** (n - 2) * (1 - q ** (n + 1)) / (1 - q)
    return lead, p, q ** (n + 1) * inner


@pytest.mark.parametrize("q", [F(1, 2), F(-3, 4), F(7), F(-1, 3)], ids=str)
def test_q_parts_are_the_docstring_formulas_in_integers(q):
    u, v = q.numerator, q.denominator
    for n in range(31):
        parts = _b_parts(n, q)
        assert all(type(x) is int for x in parts), n
        lead_num, p, r, den = parts
        lead, p_want, r_want = _b_docstring_parts(n, q)
        # b_n = L (s t P - R w^2) / (D t w) = (L P / D) a/(1+a) - (L R / D) (1+a).
        assert F(lead_num * p, den) == lead * p_want, n
        assert F(lead_num * r, den) == lead * r_want, n
        if n == 0:
            continue
        parts = _lambda_parts(n, q)
        assert all(type(x) is int for x in parts), n
        if n % 2 == 0:
            c = q**n * (1 - q ** (n - 1)) * (1 - q**n) / (1 - q ** (2 * n - 1)) ** 2
            assert F(*parts) == c, n
        else:
            assert parts[:4] == (u**n, v**n, u ** (n - 1), v ** (n - 1)), n
            assert F(parts[4], v ** (4 * n - 2)) == (1 - q ** (2 * n - 1)) ** 2, n


# s_0 .. s_12 at ORACLE_POINTS, each as its coefficients by ascending degree
# in the text of ``eval --what s``, recorded from the split family that grew
# s_j as integer coefficients over one reduced denominator, checked there
# against the recurrence in Fraction arithmetic.
S_FAMILY = json.loads(
    (Path(__file__).parent / "golden" / "s_family.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("point", ORACLE_POINTS, ids=str)
def test_split_s_family_is_the_recurrence_over_reduced_pairs(point):
    family = s_polynomials(12, point)
    got = [" ".join(map(str, s_j.coeffs)) for s_j in family]
    assert got == S_FAMILY[f"q={point.q} a={point.a}"]


def test_x_squared_lemma_over_free_coefficients():
    # The premise of the paper's induction step, from the recurrence used
    # twice: x^2 s_m = s_{m+2} + (b_{m+1} + b_m) s_{m+1}
    # + (lambda_{m+1} + b_m^2 + lambda_m) s_m
    # + (b_m lambda_m + lambda_m b_{m-1}) s_{m-1} + lambda_m lambda_{m-1} s_{m-2},
    # over free symbols b_i, lambda_i, with lambda_0 = 0 and s_{-1} = s_{-2} = 0.
    x = sympy.Symbol("x")
    b = {i: sympy.Symbol(f"b{i}") for i in range(-1, 8)}
    lam = {i: sympy.Symbol(f"lambda{i}") for i in range(-1, 8)}
    lam[0] = 0
    s = {-2: 0, -1: 0, 0: sympy.Integer(1)}
    for j in range(8):
        s[j + 1] = sympy.expand((x - b[j]) * s[j] - lam[j] * s[j - 1])
    for m in range(7):
        rhs = (
            s[m + 2]
            + (b[m + 1] + b[m]) * s[m + 1]
            + (lam[m + 1] + b[m] ** 2 + lam[m]) * s[m]
            + (b[m] * lam[m] + lam[m] * b[m - 1]) * s[m - 1]
            + lam[m] * lam[m - 1] * s[m - 2]
        )
        assert sympy.expand(x**2 * s[m] - rhs) == 0, m


def test_x_step_is_the_recurrence_over_free_coefficients():
    # x s_m = s_{m+1} + b_m s_m + lambda_m s_{m-1} on split pairs of free
    # symbols; lam[0] is None, so a read of lambda_0 raises.  Two steps give
    # the x^2-lemma's five weights above, with lambda_0 = 0 and no b_{-1}.
    one, zero = sympy.Integer(1), sympy.Integer(0)
    b = [(sympy.Symbol(f"b{i}"), one) for i in range(10)]
    lam = [None, *((sympy.Symbol(f"lambda{i}"), one) for i in range(1, 10))]
    B = [x for x, _ in b]
    L = [zero, *(x for x, _ in lam[1:])]

    def step(row):
        return [x_step(row, k, b, lam) for k in range(len(row) + 1)]

    def check(row, weights):
        assert len(row) == max(weights) + 1
        for k, (num, den) in enumerate(row):
            assert sympy.expand(num - weights.get(k, 0) * den) == 0, k

    for m in range(7):
        unit = [(zero, one)] * m + [(one, one)]
        once = step(unit)
        check(once, {m - 1: L[m], m: B[m], m + 1: 1})  # key -1 at m = 0 is unread
        weights = {
            m + 2: 1,
            m + 1: B[m + 1] + B[m],
            m: L[m + 1] + B[m] ** 2 + L[m],
        }
        if m >= 1:
            weights[m - 1] = B[m] * L[m] + L[m] * B[m - 1]
        if m >= 2:
            weights[m - 2] = L[m] * L[m - 1]
        check(step(once), weights)

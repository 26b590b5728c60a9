import math
from fractions import Fraction

import pytest

from qmoments import (
    InvalidInputError,
    PointContext,
    Polynomial,
    QPoint,
    coeff_b,
    coeff_lambda,
    moment_closed_form,
    moments_via_basis,
    pochhammer,
    product_basis,
    product_moment_sides,
    qbinom,
    s_polynomials,
    same,
    value,
)
from qmoments import hankel
from qmoments.moments import extend_nu

F = Fraction


def _nu_table(upto, point):
    ctx = PointContext(point)
    rows = [[(1, 1)]]
    extend_nu(rows, [ctx.one], upto, ctx.b, ctx.lam)
    return rows


def test_mu_pinned(ref_point):
    assert PointContext(ref_point).moments(3)[:4] == (1, 6, 16, F(312, 7))
    nu = _nu_table(3, ref_point)
    assert [row[0] for row in nu] == [(1, 1), (6, 1), (16, 1), (312, 7)]
    assert nu[1][1] == (-20, 1)  # equals lambda_1
    assert nu[2][1] == (-360, 7)  # lambda_1 (b_0 + b_1)


def test_nu_initial_row(ref_point):
    # nu[0] = (1, 0, 0, ...), and the table keeps no entry past nu[n][n].
    assert _nu_table(4, ref_point)[0] == [(1, 1)]


def test_nu_table_is_trimmed(ref_point):
    # Row n of the table for mu_N is nu[n][0..min(n, N-n)].
    for upto in (0, 1, 2, 7, 12):
        rows = _nu_table(upto, ref_point)
        assert [len(row) for row in rows] == [
            min(n, upto - n) + 1 for n in range(upto + 1)
        ]


def test_nu_table_grown_in_steps_equals_built_at_once(ref_point, small_points):
    for point in (ref_point, small_points[0]):
        ctx = PointContext(point)
        rows, mu = [[(1, 1)]], [ctx.one]
        for upto in (1, 5, 24):
            extend_nu(rows, mu, upto, ctx.b, ctx.lam)
            assert rows == _nu_table(upto, point), upto
        assert tuple(mu) == moments_via_basis(24, point)
        assert [F(*row[0]) for row in rows] == mu


def test_nu_table_reads_coefficients_up_to_half_the_index(ref_point):
    # mu_N reads b_k only for k <= (N-1)//2 and lambda_k only for k <= N//2.
    for upto in range(1, 25):
        ctx = PointContext(ref_point)
        read_b, read_lam = [], []

        def b(k):
            read_b.append(k)
            return ctx.b(k)

        def lam(k):
            read_lam.append(k)
            return ctx.lam(k)

        mu = [ctx.one]
        extend_nu([[(1, 1)]], mu, upto, b, lam)
        assert max(read_b) == (upto - 1) // 2, upto
        assert max(read_lam, default=0) == upto // 2, upto
        assert tuple(mu) == moments_via_basis(upto, ref_point)


# The split shapes of q = u/v and a = s/t: the reference point, u < 0 with
# t != 1, |q| > 1, a = 0, integer q and a (v = t = 1), s = 0, s < 0, and
# a = -q, where lambda_1 = 0 and the LDL^T factors stop at d_1.
SPLIT_POINTS = [
    QPoint(F(1, 2), 2),
    QPoint(F(-3, 4), F(5, 7)),
    QPoint(F(5, 3), F(1, 4)),
    QPoint(F(2, 3), 0),
    QPoint(F(2), F(3)),
    QPoint(F(2), F(0)),
    QPoint(F(-5, 2), F(-7, 4)),
    QPoint(F(1, 2), F(-1, 2)),
]


def _is_reduced(pair):
    num, den = pair
    return type(num) is int and type(den) is int and den > 0 and math.gcd(num, den) == 1


@pytest.mark.parametrize("point", SPLIT_POINTS, ids=str)
def test_nu_and_ldl_entries_are_reduced_pairs(point):
    ctx = PointContext(point)
    nu = _nu_table(24, point)
    assert all(_is_reduced(pair) for row in nu for pair in row)
    rows, minors = [], []
    hankel.extend_ldl(rows, minors, 10, ctx.closed_form)
    assert len(rows) == (2 if point.a == -point.q else 11)
    assert all(_is_reduced(pair) for row in rows for pair in row)
    assert minors == [ctx.hankel_det(n) for n in range(len(minors))]


def _nu_by_fractions(upto, point):
    """nu[n][k] = nu[n-1][k+1] + b_k nu[n-1][k] + lambda_k nu[n-1][k-1] in
    Fraction arithmetic, row n over k = 0..upto+2-n: the oracle for the
    split table."""
    b = [coeff_b(k, point) for k in range(upto + 2)]
    lam = [F(0), *(coeff_lambda(k, point) for k in range(1, upto + 2))]
    table = [[F(1)] + [F(0)] * (upto + 2)]
    for _ in range(upto):
        prev = table[-1]
        table.append(
            [
                prev[k + 1] + b[k] * prev[k] + (lam[k] * prev[k - 1] if k else 0)
                for k in range(len(prev) - 1)
            ]
        )
    return table


@pytest.mark.parametrize("point", SPLIT_POINTS, ids=str)
def test_nu_table_is_the_fraction_recursion(point):
    want = _nu_by_fractions(24, point)
    for n, row in enumerate(_nu_table(24, point)):
        assert [F(*pair) for pair in row] == want[n][: len(row)], n
    assert list(PointContext(point).moments(24)[:25]) == [row[0] for row in want]


@pytest.mark.parametrize("point", SPLIT_POINTS, ids=str)
def test_product_moment_direct_side_is_the_qbinom_sum(point):
    q, a = point.q, point.a
    mu = moments_via_basis(21, point)
    for n in range(11):
        for eps, (direct, _) in enumerate(product_moment_sides(n, point)):
            want = sum(
                qbinom(n, k, q * q) * (-(a * a)) ** k * q ** (k * (k - 1))
                * mu[2 * (n - k) + eps]
                for k in range(n + 1)
            )
            assert value(direct) == want, (n, eps)


def test_mu0_and_mu1(small_points):
    for point in small_points:
        mu = PointContext(point).moments(1)
        assert mu[0] == 1
        assert mu[1] == coeff_b(0, point)


def test_via_basis_matches_pinned(ref_point):
    assert moments_via_basis(3, ref_point) == (1, 6, 16, F(312, 7))


def test_oracle_agreement(ref_point, small_points):
    assert moments_via_basis(24, ref_point) == PointContext(ref_point).moments(24)[:25]
    for point in small_points[:3]:
        assert moments_via_basis(10, point) == PointContext(point).moments(10)[:11]


def test_closed_form_pinned(ref_point):
    assert moment_closed_form(0, ref_point) == 1
    assert moment_closed_form(2, ref_point) == 16
    assert moment_closed_form(3, ref_point) == F(312, 7)


def test_closed_form_degree_one(small_points):
    for point in small_points:
        assert moment_closed_form(1, point) == (1 + point.a) / (1 - point.q)


def test_moment_identity_sampled(small_points):
    for point in small_points:
        mu = PointContext(point).moments(12)
        for n in range(13):
            assert mu[n] == moment_closed_form(n, point)


def test_functional_annihilates_family(ref_point, small_points):
    for point, upto in ((ref_point, 24), (small_points[0], 16)):
        mu = PointContext(point).moments(upto)
        family = s_polynomials(upto, point)
        for n in range(upto + 1):
            applied = sum(
                (family[n].coefficient(j) * mu[j] for j in range(n + 1)), F(0)
            )
            assert applied == (1 if n == 0 else 0)


def test_product_basis(ref_point):
    def pi(n):
        coeffs, den = product_basis(n, ref_point)
        return Polynomial(value((c, den)) for c in coeffs)

    assert pi(0) == Polynomial((1,))
    assert pi(1) == Polynomial([-4, 0, 1])
    expected = Polynomial([-4, 0, 1]) * Polynomial([-1, 0, 1])
    assert pi(2) == expected


def _product_moment_values(n, point):
    return [tuple(map(value, pair)) for pair in product_moment_sides(n, point)]


def test_product_moment_pinned(ref_point):
    assert _product_moment_values(0, ref_point)[0] == (1, 1)
    assert _product_moment_values(1, ref_point) == [(12, 12), (F(144, 7), F(144, 7))]


def test_product_moment_methods_agree(ref_point):
    for n in range(11):
        for direct, closed in product_moment_sides(n, ref_point):
            assert same(closed, direct)


# The reference point, and a = -q, where lambda_1 = 0.
@pytest.mark.parametrize(
    "point", [QPoint(F(1, 2), 2), QPoint(F(1, 2), F(-1, 2))], ids=str
)
def test_product_moment_sides_cover_both_eps(point):
    q, a = point.q, point.a
    for n in range(6):
        pairs = product_moment_sides(n, point)
        assert len(pairs) == 2, n
        for eps, (_, closed) in enumerate(pairs):
            want = pochhammer(-a, q, 2 * n + eps) / pochhammer(q, q * q, n + eps)
            assert value(closed) == want, (n, eps)


def test_product_moment_validation(ref_point):
    with pytest.raises(InvalidInputError):
        product_moment_sides(-1, ref_point)
    with pytest.raises(InvalidInputError):
        moments_via_basis(-1, ref_point)
    with pytest.raises(InvalidInputError):
        product_basis(-1, ref_point)
    with pytest.raises(InvalidInputError):
        moment_closed_form(-1, ref_point)


def test_degenerate_point_a_equals_minus_q():
    # a = -q zeroes lambda_1 and with it every moment product that carries it.
    point = QPoint(F(1, 2), F(-1, 2))
    mu = PointContext(point).moments(6)
    for n in range(7):
        assert mu[n] == moment_closed_form(n, point)

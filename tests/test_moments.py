from fractions import Fraction

import pytest

from qmoments import (
    InvalidInputError,
    PointContext,
    Polynomial,
    QPoint,
    coeff_b,
    moment_closed_form,
    moments_via_basis,
    pochhammer,
    product_basis,
    product_moment_sides,
    s_polynomials,
)
from qmoments.moments import extend_nu

F = Fraction


def _nu_table(upto, point):
    ctx = PointContext(point)
    rows = [[ctx.one]]
    extend_nu(rows, upto, ctx.b, ctx.lam)
    return rows


def test_mu_pinned(ref_point):
    assert PointContext(ref_point).moments(3)[:4] == (1, 6, 16, F(312, 7))
    nu = _nu_table(3, ref_point)
    assert [row[0] for row in nu] == [1, 6, 16, F(312, 7)]
    assert nu[1][1] == -20  # equals lambda_1
    assert nu[2][1] == F(-360, 7)  # lambda_1 (b_0 + b_1)


def test_nu_initial_row(ref_point):
    # nu[0] = (1, 0, 0, ...), and the table keeps no entry past nu[n][n].
    assert _nu_table(4, ref_point)[0] == [1]


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
        rows = [[ctx.one]]
        for upto in (1, 5, 24):
            extend_nu(rows, upto, ctx.b, ctx.lam)
            assert rows == _nu_table(upto, point), upto
        assert tuple(row[0] for row in rows) == moments_via_basis(24, point)


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

        rows = [[ctx.one]]
        extend_nu(rows, upto, b, lam)
        assert max(read_b) == (upto - 1) // 2, upto
        assert max(read_lam, default=0) == upto // 2, upto
        assert tuple(row[0] for row in rows) == moments_via_basis(upto, ref_point)


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
    assert product_basis(0, ref_point) == Polynomial((1,))
    assert product_basis(1, ref_point) == Polynomial([-4, 0, 1])
    expected = Polynomial([-4, 0, 1]) * Polynomial([-1, 0, 1])
    assert product_basis(2, ref_point) == expected


def test_product_moment_pinned(ref_point):
    assert product_moment_sides(0, ref_point)[0] == (1, 1)
    assert product_moment_sides(1, ref_point) == [(12, 12), (F(144, 7), F(144, 7))]


def test_product_moment_methods_agree(ref_point):
    for n in range(11):
        for direct, closed in product_moment_sides(n, ref_point):
            assert closed == direct


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
            assert closed == want, (n, eps)


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

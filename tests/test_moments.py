from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmoments import (
    InvalidInputError,
    PointContext,
    QPoint,
    coeff_b,
    coeff_lambda,
    moment_closed_form,
    pochhammer,
    product_basis,
    product_moment_sides,
    qbinom,
    s_polynomials,
    same,
    value,
)
from qmoments import hankel
from qmoments.moments import extend_moments
from oracles import is_reduced, moments_via_basis, poly, s_family, split_poly

F = Fraction


def _power_table(upto, point):
    """Rows c[n][0..min(n, upto-n)] of x^n = sum_k c[n][k] s_k, split."""
    ctx = PointContext(point)
    rows = [[(1, 1)]]
    extend_moments(rows, upto, ctx.b, ctx.lam)
    return rows


def test_mu_pinned(ref_point):
    mu = PointContext(ref_point).moments(3)[:4]
    assert tuple(map(value, mu)) == (1, 6, 16, F(312, 7))
    table = _power_table(3, ref_point)
    assert [row[0] for row in table] == [(1, 1), (6, 1), (16, 1), (312, 7)]
    assert table[1][1] == (1, 1)  # x = s_1 + b_0 s_0
    assert table[2][1] == (18, 7)  # b_0 + b_1


def test_power_table_initial_row(ref_point):
    # c[0] = (1, 0, 0, ...), and the table keeps no entry past c[n][n].
    assert _power_table(4, ref_point)[0] == [(1, 1)]


def test_power_table_is_trimmed(ref_point):
    # Row n of the table for mu_N is c[n][0..min(n, N-n)].
    for upto in (0, 1, 2, 7, 12):
        rows = _power_table(upto, ref_point)
        assert [len(row) for row in rows] == [
            min(n, upto - n) + 1 for n in range(upto + 1)
        ]


def test_power_table_grown_in_steps_equals_built_at_once(ref_point, small_points):
    for point in (ref_point, small_points[0]):
        ctx = PointContext(point)
        rows = [[(1, 1)]]
        for upto in (1, 5, 24):
            extend_moments(rows, upto, ctx.b, ctx.lam)
            assert rows == _power_table(upto, point), upto
        assert tuple(F(*row[0]) for row in rows) == moments_via_basis(24, point)


def test_power_table_reads_coefficients_up_to_half_the_index(ref_point):
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

        rows = [[(1, 1)]]
        extend_moments(rows, upto, b, lam)
        assert max(read_b) == (upto - 1) // 2, upto
        assert max(read_lam, default=0) == upto // 2, upto
        assert tuple(F(*row[0]) for row in rows) == moments_via_basis(upto, ref_point)


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


@pytest.mark.parametrize("point", SPLIT_POINTS, ids=str)
def test_nu_and_ldl_entries_are_reduced_pairs(point):
    # The power table's entries, the LDL^T factors and the norms.
    ctx = PointContext(point)
    table = _power_table(24, point)
    assert all(is_reduced(pair) for row in table for pair in row)
    rows = []
    hankel.extend_ldl(rows, 10, ctx.closed_form)
    assert len(rows) == (2 if point.a == -point.q else 11)
    assert all(is_reduced(pair) for row in rows for pair in row)
    assert all(is_reduced(ctx.norm(j)) for j in range(11))
    # The pivots multiply to the leading minors of the full matrix.
    entries = [value(ctx.closed_form(m)) for m in range(21)]
    minor = F(1)
    for n, row in enumerate(rows):
        minor *= F(*row[-1])
        matrix = [entries[i : i + n + 1] for i in range(n + 1)]
        assert minor == hankel.exact_determinant(matrix), n


def _nu_by_fractions(upto, b, lam):
    """nu[n][k] = L(x^n s_k) by nu[n][k] = nu[n-1][k+1] + b_k nu[n-1][k] +
    lambda_k nu[n-1][k-1] in Fraction arithmetic, row n over
    k = 0..upto+2-n, from b_0..b_{upto+1} and lambda_1..lambda_{upto+1}
    (``lam[0]`` is not read): the oracle for the power table, whose
    c[n][k] is nu[n][k] / (lambda_1 ... lambda_k)."""
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
    # nu[n][k] = h_k c[n][k] with h_k = lambda_1 ... lambda_k, at every
    # stored entry, and both tables give the same mu_n.
    b = [value(coeff_b(k, point)) for k in range(26)]
    lam = [F(0), *(value(coeff_lambda(k, point)) for k in range(1, 26))]
    want = _nu_by_fractions(24, b, lam)
    for n, row in enumerate(_power_table(24, point)):
        h = F(1)
        for k, pair in enumerate(row):
            h *= lam[k] if k else 1
            assert F(*pair) * h == want[n][k], (n, k)
    mu = PointContext(point).moments(24)[:25]
    assert list(map(value, mu)) == [row[0] for row in want]


@pytest.mark.parametrize("point", SPLIT_POINTS, ids=str)
def test_power_table_expands_x_to_the_n_in_the_s_basis(point):
    # x^n = sum_k c[n][k] s_k; the table for mu_24 keeps whole rows n <= 12.
    family = s_family(12, point)
    for n, row in enumerate(_power_table(24, point)[:13]):
        assert len(row) == n + 1
        expanded = sum(
            (family[k] * poly([F(*pair)]) for k, pair in enumerate(row)), poly([])
        )
        assert expanded == poly([0] * n + [1]), n


RATIONALS = st.builds(F, st.integers(-9, 9) | st.just(0), st.integers(1, 9))


@given(
    st.integers(0, 14),
    st.lists(RATIONALS, min_size=16, max_size=16),
    st.lists(RATIONALS, min_size=16, max_size=16),
)
def test_power_table_moments_equal_the_nu_recursion_for_any_coefficients(
    upto, b, lam
):
    # mu_n = c[n][0] = nu[n][0] as polynomials in the b_k and lambda_k, so
    # the two tables agree at any rational coefficients, zeros included.
    rows = [[(1, 1)]]
    extend_moments(
        rows,
        upto,
        lambda k: (b[k].numerator, b[k].denominator),
        lambda k: (lam[k].numerator, lam[k].denominator),
    )
    mu = [F(*row[0]) for row in rows]
    assert mu == [row[0] for row in _nu_by_fractions(upto, b, lam)]


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
        assert value(mu[0]) == 1
        assert value(mu[1]) == value(coeff_b(0, point))


def test_via_basis_matches_pinned(ref_point):
    assert moments_via_basis(3, ref_point) == (1, 6, 16, F(312, 7))


def test_oracle_agreement(ref_point, small_points):
    mu = PointContext(ref_point).moments(24)[:25]
    assert moments_via_basis(24, ref_point) == tuple(map(value, mu))
    for point in small_points[:3]:
        mu = PointContext(point).moments(10)[:11]
        assert moments_via_basis(10, point) == tuple(map(value, mu))


def test_closed_form_pinned(ref_point):
    assert value(moment_closed_form(0, ref_point)) == 1
    assert value(moment_closed_form(2, ref_point)) == 16
    assert value(moment_closed_form(3, ref_point)) == F(312, 7)


def test_closed_form_degree_one(small_points):
    for point in small_points:
        assert value(moment_closed_form(1, point)) == (1 + point.a) / (1 - point.q)


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
                (family[n].coefficient(j) * value(mu[j]) for j in range(n + 1)), F(0)
            )
            assert applied == (1 if n == 0 else 0)


def test_product_basis(ref_point):
    def pi(n):
        return split_poly(product_basis(n, ref_point))

    assert pi(0) == poly((1,))
    assert pi(1) == poly([-4, 0, 1])
    expected = poly([-4, 0, 1]) * poly([-1, 0, 1])
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
        product_basis(-1, ref_point)
    with pytest.raises(InvalidInputError):
        moment_closed_form(-1, ref_point)


def test_degenerate_point_a_equals_minus_q():
    # a = -q zeroes lambda_1 and with it every moment product that carries it.
    point = QPoint(F(1, 2), F(-1, 2))
    mu = PointContext(point).moments(6)
    for n in range(7):
        assert mu[n] == moment_closed_form(n, point)

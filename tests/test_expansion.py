from collections import Counter
from fractions import Fraction

import pytest

from qmoments import (
    InvalidInputError,
    PointContext,
    QPoint,
    QTables,
    coeff_b,
    coeff_lambda,
    expansion_coeffs,
    induction_sides,
    pochhammer,
    product_basis,
    same,
    theorem_identities,
    value,
)
from qmoments.suites import IDENTITIES
from oracles import (
    docstring_coeffs,
    expansion_in_x,
    pi_product,
    poly,
    s_family,
    split_poly,
)

F = Fraction


def test_coeffs_pinned(ref_point):
    assert tuple(map(value, expansion_coeffs(1, ref_point))) == (1, F(18, 7), 12)


# Two points on each of two q columns, one with |q| > 1 and one with q < 0.
# Then the grid's own shapes, split as q = u/v and a = s/t: integer q and a
# (v = t = 1), s = 0, and u < 0, v != 1, s < 0, t != 1 together.
DOCSTRING_POINTS = [
    QPoint(F(1, 2), 2),
    QPoint(F(1, 2), 0),
    QPoint(F(-7, 3), F(2, 5)),
    QPoint(F(-7, 3), F(-9, 4)),
    QPoint(F(2), F(3)),
    QPoint(F(2), F(0)),
    QPoint(F(-5, 2), F(-7, 4)),
    QPoint(F(2), F(-1, 4)),  # 1 + a q^2 = 0: the row reaches 0 in its middle
]


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "one QTables"])
def test_coeffs_match_the_docstring_formula(shared):
    # One store per distinct q; DOCSTRING_POINTS repeats some q, so a store serves
    # more than one point.
    stores = {point.q: QTables(point.q) for point in DOCSTRING_POINTS}
    for point in DOCSTRING_POINTS:
        ctx = PointContext(point, stores[point.q]) if shared else point
        for n in range(9):
            want = docstring_coeffs(n, point.q, point.a)
            assert tuple(map(value, expansion_coeffs(n, ctx))) == want, (point, n)


def test_leading_coefficient_is_one(small_points):
    for point in small_points:
        for n in range(5):
            assert value(expansion_coeffs(n, point)[0]) == 1


def test_row_holds_e_0_to_e_2n(ref_point):
    for n in range(4):
        row = expansion_coeffs(n, ref_point)
        assert type(row) is tuple and len(row) == 2 * n + 1


def test_constant_coefficient_closed_form(small_points):
    # e_{2n} = (-a;q)_{2n} / (q;q^2)_n
    for point in small_points:
        q, a = point.q, point.a
        for n in range(6):
            expected = pochhammer(-a, q, 2 * n) / pochhammer(q, q * q, n)
            assert value(expansion_coeffs(n, point)[2 * n]) == expected


# The reference point, a = 0, a = -q (where lambda_1 = 0), and the split
# shapes of q = u/v and a = s/t: integer q (v = 1), and u < 0 with t != 1.
SPLIT_POINTS = [
    QPoint(F(1, 2), 2),
    QPoint(F(2, 3), 0),
    QPoint(F(1, 2), F(-1, 2)),
    QPoint(F(2), F(3)),
    QPoint(F(2), F(0)),
    QPoint(F(-5, 2), F(-7, 4)),
    QPoint(F(-3, 4), F(5, 7)),
]


def test_hand_expansion_n1(ref_point):
    # pi_1 = s_2 + e_1 s_1 + e_2 s_0, with e_1 = (1+a)(1-q^2)/(1-q^3) and
    # e_2 = (1+a)(1+aq)/(1-q): 18/7 and 12 at the reference point.
    assert SPLIT_POINTS[0] == ref_point
    for point in SPLIT_POINTS:
        q, a = point.q, point.a
        e1 = (1 + a) * (1 - q * q) / (1 - q**3)
        e2 = (1 + a) * (1 + a * q) / (1 - q)
        if point == ref_point:
            assert (e1, e2) == (F(18, 7), 12)
        s = s_family(2, point)
        combo = s[2] + s[1] * poly([e1]) + s[0] * poly([e2])
        assert combo == split_poly(product_basis(1, point)), point


# The deep-moments point of perfbench's seed 301: operands of thousands of
# bits by n = 10.
DEEP_POINT = QPoint(F(-569, 678), F(-622, 531))


@pytest.mark.parametrize("point", [*SPLIT_POINTS, DEEP_POINT], ids=str)
def test_both_sides_match_polynomial_arithmetic(point):
    # pi_n from ``product_basis`` and sum_k e_k s_{2n-k} multiplied out in x
    # (``oracles.expansion_in_x``), against the product.
    for n in range(11 if point == DEEP_POINT else 5):
        want = pi_product(n, point)
        assert split_poly(product_basis(n, point)) == want, n
        assert poly(expansion_in_x(n, point)) == want, n


def _expansion_pairs(n, ctx):
    return list(IDENTITIES["expansion"].sides(n, ctx))


def test_check_expansion(ref_point, small_points):
    # Index 0 is pi_0 = s_0; index n >= 1 is the induction step from level
    # n - 1, one pair per s_j, e^{(n)} on the left.
    for point in (ref_point, *small_points[:3]):
        ctx = PointContext(point)
        ((label, lhs, rhs),) = _expansion_pairs(0, ctx)
        assert label == "n=0, coefficient of s_0"
        assert same(lhs, rhs) and value(rhs) == 1
        for n in range(1, 9 if point == ref_point else 6):
            pairs = _expansion_pairs(n, ctx)
            labels = [f"n={n}, coefficient of s_{j}" for j in range(2 * n, -1, -1)]
            assert [label for label, _, _ in pairs] == labels
            steps = induction_sides(n - 1, ctx)
            assert [(lhs, rhs) for _, lhs, rhs in pairs] == steps, n
            assert all(same(lhs, rhs) for lhs, rhs in steps), (point, n)


def test_expansion_sides_are_polynomials(ref_point):
    # The x-basis sides the s-basis pairs stand for: both of degree 6 at n = 3.
    lhs, rhs = pi_product(3, ref_point), poly(expansion_in_x(3, ref_point))
    assert lhs.degree() == rhs.degree() == 6
    assert lhs == rhs


def test_induction_trivial_base(ref_point):
    # e_0^{(1)} is the leading coefficient, 1.
    lhs, rhs = induction_sides(0, ref_point)[0]
    assert (value(lhs), value(rhs)) == (1, 1)


def test_induction_boundary_case(ref_point):
    # k = 2n+2 is the coefficient of s_0, where the five-term relation needs
    # lambda_0 = 0; two x-steps never read lambda_0, and at n = 0 give
    # e_2^{(1)} = -a^2 + lambda_1 + b_0^2.
    lhs, rhs = induction_sides(0, ref_point)[2]
    rhs = value(rhs)
    assert value(lhs) == rhs == 12
    lam_1, b_0 = value(coeff_lambda(1, ref_point)), value(coeff_b(0, ref_point))
    assert rhs == -F(4) + lam_1 + b_0**2


def test_induction_all_indices(ref_point, small_points):
    for point in (ref_point, *small_points[:3]):
        for n in range(6):
            for lhs, rhs in induction_sides(n, point):
                assert same(lhs, rhs)


# The reference point, and a = -q, where lambda_1 = 0.
@pytest.mark.parametrize(
    "point", [QPoint(F(1, 2), 2), QPoint(F(1, 2), F(-1, 2))], ids=str
)
def test_induction_sides_cover_every_k(point):
    for n in range(6):
        pairs = induction_sides(n, point)
        assert len(pairs) == 2 * n + 3, n
        assert tuple(lhs for lhs, _ in pairs) == expansion_coeffs(n + 1, point)


def _five_term_rhs(n, point):
    """The five-term relation's right sides at level n, k = 0..2n+2, in
    Fraction arithmetic: the oracle for the integer sums of induction_sides."""
    q, a = point.q, point.a
    lower = [value(e) for e in expansion_coeffs(n, point)]
    b = [value(coeff_b(i, point)) for i in range(2 * n + 2)]
    lam = [F(0), *(value(coeff_lambda(i, point)) for i in range(1, 2 * n + 2))]
    out = []
    for k in range(2 * n + 3):
        m = 2 * n - k

        def e(j):
            return lower[j] if 0 <= j <= 2 * n else F(0)

        rhs = e(k)
        if 0 <= k - 1 <= 2 * n:
            rhs += (b[m + 2] + b[m + 1]) * e(k - 1)
        if 0 <= k - 2 <= 2 * n:
            weight = -(a * a) * q ** (2 * n) + lam[m + 3] + b[m + 2] ** 2 + lam[m + 2]
            rhs += weight * e(k - 2)
        if 0 <= k - 3 <= 2 * n:
            rhs += (b[m + 3] * lam[m + 3] + lam[m + 3] * b[m + 2]) * e(k - 3)
        if 0 <= k - 4 <= 2 * n:
            rhs += lam[m + 4] * lam[m + 3] * e(k - 4)
        out.append(rhs)
    return out


# The reference point, a = 0, a = -q (where lambda_1 = 0), and the grid's
# split shapes: integer q and a, and u < 0, v != 1, s < 0, t != 1 together.
@pytest.mark.parametrize(
    "point",
    [
        QPoint(F(1, 2), 2),
        QPoint(F(2, 3), 0),
        QPoint(F(1, 2), F(-1, 2)),
        QPoint(F(-3, 4), F(3, 4)),
        QPoint(F(2), F(3)),
        QPoint(F(-5, 2), F(-7, 4)),
    ],
    ids=str,
)
def test_induction_sides_match_the_fraction_relation(point):
    for n in range(6):
        pairs = induction_sides(n, point)
        assert [value(rhs) for _, rhs in pairs] == _five_term_rhs(n, point), n
        assert all(type(value(rhs)) is F for _, rhs in pairs), n


def test_theorem_base_case(ref_point):
    assert all(same(lhs, rhs) for _, lhs, rhs in theorem_identities(0, ref_point))


def test_theorem_weighted_combination(ref_point):
    # e_2 b_0 + e_1 lambda_1 at n = 1: 12*6 + (18/7)(-20) = 144/7.
    identities = dict(
        (label, (value(lhs), value(rhs)))
        for label, lhs, rhs in theorem_identities(1, ref_point)
    )
    lhs, rhs = identities["x-weighted product constant term"]
    assert lhs == rhs == F(144, 7)


def test_theorem_range(ref_point, small_points):
    cases = [(ref_point, n) for n in range(7)]
    cases += [(point, n) for point in small_points[:2] for n in range(5)]
    for point, n in cases:
        for label, lhs, rhs in theorem_identities(n, point):
            assert same(lhs, rhs), (point, n, label)


def test_theorem_adds_each_moment_once(ref_point):
    # Indices 0..4 together cover mu_m = P_m for m <= 9, each m at one index.
    labels = Counter(
        label
        for n in range(5)
        for label, _, _ in theorem_identities(n, ref_point)
        if label.startswith("moment ")
    )
    assert labels == {f"moment m={m}": 1 for m in range(10)}


def test_negative_n_rejected(ref_point):
    with pytest.raises(InvalidInputError):
        expansion_coeffs(-1, ref_point)
    with pytest.raises(InvalidInputError):
        theorem_identities(-1, ref_point)

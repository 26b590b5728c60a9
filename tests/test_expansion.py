from fractions import Fraction

import pytest

from qmoments import (
    InvalidInputError,
    coeff_b,
    coeff_lambda,
    expansion_coeffs,
    expansion_sides,
    induction_sides,
    pochhammer,
    product_basis,
    s_polynomials,
    theorem_identities,
)

F = Fraction


def test_coeffs_pinned(ref_point):
    table = expansion_coeffs(1, ref_point)
    assert table.coeffs == (1, F(18, 7), 12)


def test_leading_coefficient_is_one(small_points):
    for point in small_points:
        for n in range(5):
            assert expansion_coeffs(n, point)[0] == 1


def test_out_of_range_coefficients_are_zero(ref_point):
    table = expansion_coeffs(2, ref_point)
    assert table[-1] == 0
    assert table[5] == 0
    assert len(table) == 5


def test_constant_coefficient_closed_form(small_points):
    # e_{2n} = (-a;q)_{2n} / (q;q^2)_n
    for point in small_points:
        q, a = point.q, point.a
        for n in range(6):
            expected = pochhammer(-a, q, 2 * n) / pochhammer(q, q * q, n)
            assert expansion_coeffs(n, point)[2 * n] == expected


def test_hand_expansion_n1(ref_point):
    s = s_polynomials(2, ref_point)
    combo = s[2] + s[1] * F(18, 7) + s[0] * 12
    assert combo == product_basis(1, ref_point)


def test_check_expansion(ref_point, small_points):
    for n in range(9):
        lhs, rhs = expansion_sides(n, ref_point)
        assert lhs == rhs
    for point in small_points[:3]:
        for n in range(6):
            lhs, rhs = expansion_sides(n, point)
            assert lhs == rhs


def test_expansion_sides_are_polynomials(ref_point):
    lhs, rhs = expansion_sides(3, ref_point)
    assert lhs.degree == 6
    assert lhs == rhs


def test_induction_trivial_base(ref_point):
    # e_0^{(1)} is the leading coefficient, 1.
    assert induction_sides(0, 0, ref_point) == (1, 1)


def test_induction_boundary_case(ref_point):
    # k = 2n+2 exercises the lambda_0 = 0 convention: the five-term relation
    # reduces to e_2^{(1)} = -a^2 + lambda_1 + b_0^2 at n = 0.
    lhs, rhs = induction_sides(0, 2, ref_point)
    assert lhs == rhs == 12
    assert rhs == -F(4) + coeff_lambda(1, ref_point) + coeff_b(0, ref_point) ** 2


def test_induction_all_indices(ref_point, small_points):
    for point in (ref_point, *small_points[:3]):
        for n in range(6):
            for k in range(2 * n + 3):
                lhs, rhs = induction_sides(n, k, point)
                assert lhs == rhs


def test_induction_k_out_of_range(ref_point):
    with pytest.raises(InvalidInputError):
        induction_sides(1, 5, ref_point)
    with pytest.raises(InvalidInputError):
        induction_sides(1, -1, ref_point)


def test_theorem_base_case(ref_point):
    assert all(lhs == rhs for _, lhs, rhs in theorem_identities(0, ref_point))


def test_theorem_weighted_combination(ref_point):
    # e_2 b_0 + e_1 lambda_1 at n = 1: 12*6 + (18/7)(-20) = 144/7.
    identities = dict(
        (label, (lhs, rhs)) for label, lhs, rhs in theorem_identities(1, ref_point)
    )
    lhs, rhs = identities["x-weighted product constant term"]
    assert lhs == rhs == F(144, 7)


def test_theorem_range(ref_point, small_points):
    cases = [(ref_point, n) for n in range(7)]
    cases += [(point, n) for point in small_points[:2] for n in range(5)]
    for point, n in cases:
        for label, lhs, rhs in theorem_identities(n, point):
            assert lhs == rhs, (point, n, label)


def test_theorem_covers_moment_prefix(ref_point):
    labels = [label for label, _, _ in theorem_identities(2, ref_point)]
    assert "moment m=0" in labels
    assert "moment m=5" in labels


def test_negative_n_rejected(ref_point):
    with pytest.raises(InvalidInputError):
        expansion_coeffs(-1, ref_point)
    with pytest.raises(InvalidInputError):
        theorem_identities(-1, ref_point)

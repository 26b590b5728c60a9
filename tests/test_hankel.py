from fractions import Fraction

import pytest

from qmoments import (
    InvalidInputError,
    QPoint,
    coeff_lambda,
    exact_determinant,
    hankel_check,
    moment_table,
)

F = Fraction


def test_determinant_small_matrices():
    assert exact_determinant([[F(2)]]) == 2
    assert exact_determinant([[F(1), F(2)], [F(3), F(4)]]) == -2
    assert exact_determinant([[F(1), F(2)], [F(2), F(4)]]) == 0


def test_determinant_needs_pivot_search():
    matrix = [[F(0), F(1)], [F(1), F(0)]]
    assert exact_determinant(matrix) == -1


def test_determinant_zero_column():
    matrix = [[F(0), F(1), F(2)], [F(0), F(3), F(4)], [F(0), F(5), F(6)]]
    assert exact_determinant(matrix) == 0


def test_determinant_input_validation():
    with pytest.raises(InvalidInputError):
        exact_determinant([])
    with pytest.raises(InvalidInputError):
        exact_determinant([[F(1), F(2)]])


def test_determinant_does_not_mutate_input():
    rows = [[F(1), F(2)], [F(3), F(4)]]
    exact_determinant(rows)
    assert rows == [[F(1), F(2)], [F(3), F(4)]]


def test_hankel_base(ref_point):
    result = hankel_check(0, ref_point)
    assert result == (1, 1, True)


def test_hankel_pinned(ref_point):
    result = hankel_check(1, ref_point)
    assert result.determinant == -20
    assert result.lambda_product == -20
    assert result.equal


def test_hankel_range(ref_point, small_points):
    for n in range(7):
        assert hankel_check(n, ref_point).equal
    for point in small_points[:3]:
        for n in range(5):
            assert hankel_check(n, point).equal


def test_hankel_table_entries_match(ref_point):
    # The closed-form entries P_{i+j} against mu_{i+j} from the moment engine.
    for n in range(5):
        mu = moment_table(2 * n, ref_point).mu
        det = exact_determinant([[mu[i + j] for j in range(n + 1)] for i in range(n + 1)])
        assert det == hankel_check(n, ref_point).determinant


def test_hankel_entries_validation(ref_point):
    with pytest.raises(InvalidInputError):
        hankel_check(-1, ref_point)


def test_hankel_degenerate_point():
    # a = -q makes lambda_1 = 0, so every determinant with n >= 1 vanishes.
    point = QPoint(F(3, 7), F(-3, 7))
    assert coeff_lambda(1, point) == 0
    for n in range(1, 5):
        result = hankel_check(n, point)
        assert result.determinant == 0
        assert result.lambda_product == 0
        assert result.equal

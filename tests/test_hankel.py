from fractions import Fraction

import pytest

from qmoments import (
    InvalidInputError,
    PointContext,
    QPoint,
    coeff_lambda,
    exact_determinant,
    hankel_sides,
    moment_closed_form,
    moment_table,
)
from qmoments import hankel, moments

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
    assert hankel_sides(0, ref_point) == (1, 1)


def test_hankel_pinned(ref_point):
    assert hankel_sides(1, ref_point) == (-20, -20)


def test_hankel_range(ref_point, small_points):
    cases = [(ref_point, n) for n in range(7)]
    cases += [(point, n) for point in small_points[:3] for n in range(5)]
    for point, n in cases:
        det, product = hankel_sides(n, point)
        assert det == product


def test_hankel_table_entries_match(ref_point):
    # The closed-form entries P_{i+j} against mu_{i+j} from the moment engine.
    for n in range(5):
        mu = moment_table(2 * n, ref_point).mu
        det = exact_determinant([[mu[i + j] for j in range(n + 1)] for i in range(n + 1)])
        assert det == hankel_sides(n, ref_point)[0]


def test_hankel_entries_validation(ref_point):
    with pytest.raises(InvalidInputError):
        hankel_sides(-1, ref_point)


def test_hankel_degenerate_point():
    # a = -q makes lambda_1 = 0, so every determinant with n >= 1 vanishes.
    point = QPoint(F(3, 7), F(-3, 7))
    assert coeff_lambda(1, point) == 0
    for n in range(1, 5):
        assert hankel_sides(n, point) == (0, 0)


def _full_matrix(n, entry):
    return [[entry(i + j) for j in range(n + 1)] for i in range(n + 1)]


def test_bordered_sides_match_fresh_oracles(ref_point, small_points):
    # One context borders its LDL^T factors up to n = 14; each index must
    # equal a fresh elimination of the freshly built (P_{i+j}) matrix, and
    # the grown lambda product the direct product of powers.
    for point in [ref_point, *small_points[:3]]:
        ctx = PointContext(point)
        entries = [moment_closed_form(m, point) for m in range(29)]
        for n in range(15):
            det, product = hankel_sides(n, ctx)
            assert det == exact_determinant(_full_matrix(n, entries.__getitem__))
            want = F(1)
            for i in range(1, n + 1):
                want *= coeff_lambda(i, point) ** (n + 1 - i)
            assert product == want


# H_0 = 0 and H_1 = -1: the first pivot is zero, the later minors are not.
ZERO_FIRST_PIVOT = [F(v) for v in (0, 1, 0, 1, 1, 3, 2, 5, 7, 4, 9, 11, 6)]


def test_bordering_stops_at_a_zero_pivot():
    rows, minors = [], []
    hankel.extend_ldl(rows, minors, 5, ZERO_FIRST_PIVOT.__getitem__)
    assert minors == [0]
    hankel.extend_ldl(rows, minors, 5, ZERO_FIRST_PIVOT.__getitem__)
    assert rows == [[0]] and minors == [0]


def test_zero_pivot_falls_back_to_the_full_matrix(monkeypatch, ref_point):
    entry = ZERO_FIRST_PIVOT.__getitem__
    oracle = [exact_determinant(_full_matrix(n, entry)) for n in range(7)]
    assert oracle[:2] == [0, -1] and all(det != 0 for det in oracle[1:])
    monkeypatch.setattr(moments, "moment_closed_form", lambda m, point: entry(m))
    ctx = PointContext(ref_point)
    assert [hankel_sides(n, ctx)[0] for n in range(7)] == oracle

from fractions import Fraction
from math import prod
from types import SimpleNamespace

import pytest
import sympy

from qmoments import (
    InvalidInputError,
    PointContext,
    QPoint,
    SuiteConfig,
    coeff_lambda,
    exact_determinant,
    hankel_sides,
    moment_closed_form,
    run_suite,
    value,
)
from qmoments import hankel, moments
from qmoments.context import split

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
        mu = PointContext(ref_point).moments(2 * n)
        det = exact_determinant(_full_matrix(n, lambda m: value(mu[m])))
        assert det == hankel_sides(n, ref_point)[0]


def test_hankel_entries_validation(ref_point):
    with pytest.raises(InvalidInputError):
        hankel_sides(-1, ref_point)


def test_hankel_degenerate_point():
    # a = -q makes lambda_1 = 0, so every determinant with n >= 1 vanishes.
    point = QPoint(F(3, 7), F(-3, 7))
    assert value(coeff_lambda(1, point)) == 0
    for n in range(1, 5):
        assert hankel_sides(n, point) == (0, 0)


def _full_matrix(n, entry):
    return [[entry(i + j) for j in range(n + 1)] for i in range(n + 1)]


def test_bordered_sides_match_fresh_oracles(ref_point, small_points):
    # One context borders its LDL^T factors up to n = 14; each index must
    # equal a fresh elimination of the freshly built (P_{i+j}) matrix, and
    # the grown lambda product the direct product of powers.  At the
    # reference point and at q = -3/4, a = 5/7 (u < 0, t != 1) some pivots
    # d_n = H_n / H_{n-1} are negative, so bordering divides by them.
    negative = QPoint(F(-3, 4), F(5, 7))
    for point in [ref_point, negative, *small_points[:3]]:
        ctx = PointContext(point)
        entries = [value(moment_closed_form(m, point)) for m in range(29)]
        minors = []
        for n in range(15):
            det, product = hankel_sides(n, ctx)
            minors.append(det)
            assert det == exact_determinant(_full_matrix(n, entries.__getitem__))
            want = F(1)
            for i in range(1, n + 1):
                want *= value(coeff_lambda(i, point)) ** (n + 1 - i)
            assert product == want
        if point in (ref_point, negative):
            assert any(minors[n] / minors[n - 1] < 0 for n in range(1, 15))


def test_pivots_of_a_free_monic_family_are_its_norms():
    # The premise of the pivot check, for any monic family (Chihara 1978,
    # ch. I): if x s_m = s_{m+1} + b_m s_m + lambda_m s_{m-1}, the moments
    # mu_j = L(x^j) give pivots d_n = lambda_1 ... lambda_n and
    # det(mu_{i+j})_{i,j<=n} = prod_i lambda_i^{n+1-i}.  Checked over free
    # b_0..b_3, lambda_1..lambda_4, which mu_0..mu_8 read.
    field = sympy.QQ.frac_field(*sympy.symbols("b0:4 lambda1:5"))
    one = field.one
    b, lam = field.gens[:4], (None, *field.gens[4:])
    rows = [[(one, one)]]
    moments.extend_moments(rows, 8, lambda k: (b[k], one), lambda k: (lam[k], one))
    mu = [value(row[0]) for row in rows]
    ldl = []
    hankel.extend_ldl(ldl, 4, lambda m: (mu[m], one))
    assert len(ldl) == 5
    for n, row in enumerate(ldl):
        assert value(row[-1]) == prod(lam[1 : n + 1], start=one)
        product = prod((lam[i] ** (n + 1 - i) for i in range(1, n + 1)), start=one)
        assert exact_determinant(_full_matrix(n, mu.__getitem__)) == product


# H_0 = 0 and H_1 = -1: the first pivot is zero, the later minors are not.
ZERO_FIRST_PIVOT = [F(v) for v in (0, 1, 0, 1, 1, 3, 2, 5, 7, 4, 9, 11, 6)]


def _zero_first_pivot_pair(m):
    """ZERO_FIRST_PIVOT[m] as the reduced pair a Hankel entry comes as."""
    return split(ZERO_FIRST_PIVOT[m])


def test_bordering_stops_at_a_zero_pivot():
    rows = []
    hankel.extend_ldl(rows, 5, _zero_first_pivot_pair)
    assert rows == [[(0, 1)]]
    hankel.extend_ldl(rows, 5, _zero_first_pivot_pair)
    assert rows == [[(0, 1)]]


def test_zero_pivot_falls_back_to_the_full_matrix(monkeypatch, ref_point):
    entry = ZERO_FIRST_PIVOT.__getitem__
    oracle = [exact_determinant(_full_matrix(n, entry)) for n in range(7)]
    assert oracle[:2] == [0, -1] and all(det != 0 for det in oracle[1:])
    monkeypatch.setattr(
        moments, "moment_closed_form", lambda m, point: _zero_first_pivot_pair(m)
    )
    ctx = PointContext(ref_point)
    assert [hankel_sides(n, ctx)[0] for n in range(7)] == oracle


def test_ldl_entries_over_a_field_stay_over_one():
    # Over sympy's rational functions each L[n][j] is divided by its pivot
    # d_j, so no entry of the factors carries a pivot as its denominator and
    # the bordering does not swell from index to index.
    q, a = sympy.symbols("q a")
    ctx = PointContext(SimpleNamespace(q=q, a=a))
    hankel_sides(2, ctx)
    dens = [den for row in ctx._ldl for _, den in row]
    assert len(dens) == 6 and all(den == 1 for den in dens)


@pytest.mark.parametrize("m, index, lhs", [(4, "n=3", "-1"), (7, "n=6", "-1")])
def test_registry_falls_back_past_a_zero_pivot(monkeypatch, m, index, lhs):
    # At a = -q the pivot d_1 = lambda_1 is zero, so the suite compares the
    # pivot with the norm at n <= 1 and H_n with the product past it.  With
    # P_m raised by one past that pivot, the suite fails at the index, and
    # with the sides, that the determinant check reported.
    point = QPoint(F(3, 7), F(-3, 7))
    config = SuiteConfig(suite="hankel", n_max=6, explicit_points=(point,))
    fallbacks = []
    real_det = hankel.exact_determinant

    def counted(rows):
        fallbacks.append(len(rows))
        return real_det(rows)

    monkeypatch.setattr(hankel, "exact_determinant", counted)
    assert run_suite(config).passed()
    assert fallbacks == [3, 4, 5, 6, 7]
    real = moments.moment_closed_form

    def corrupted(n, point):
        num, den = real(n, point)
        return (num + den, den) if n == m else (num, den)

    monkeypatch.setattr(moments, "moment_closed_form", corrupted)
    (record,) = run_suite(config).identities
    ce = record.counterexample
    assert (ce.index, ce.lhs, ce.rhs) == (index, lhs, "0")

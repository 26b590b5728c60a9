from fractions import Fraction

import pytest

from qmoments import (
    InvalidInputError,
    LaurentPolynomial,
    PointContext,
    QPoint,
    QTables,
    connection_sides,
    hermite_laurent,
    hermite_recurrence_sides,
    qbinom,
    same,
    value,
)

F = Fraction

SAMPLE_Q = [F(1, 2), F(-3, 5), F(7, 3), F(2)]


def at(q):
    """The point for a function that reads only q."""
    return QPoint(q, 0)


def _values(coeffs):
    """A map of split-pair coefficients read as values."""
    return LaurentPolynomial({e: value(c) for e, c in coeffs.items()})


def _hermite_values(n, point):
    return _values(hermite_laurent(n, point).coeffs)


def _recurrence_values(n, point):
    """``hermite_recurrence_sides`` with both split sides read as values."""
    lhs, rhs = hermite_recurrence_sides(n, point)
    return _values(lhs.coeffs), _values(rhs)


def test_hermite_small_cases():
    q = at(F(1, 2))
    assert _hermite_values(0, q) == LaurentPolynomial({0: 1})
    assert _hermite_values(1, q) == LaurentPolynomial({1: 1, -1: 1})
    assert _hermite_values(2, q) == LaurentPolynomial({2: 1, 0: F(3, 2), -2: 1})
    assert _hermite_values(3, q) == LaurentPolynomial(
        {3: 1, 1: F(7, 4), -1: F(7, 4), -3: 1}
    )


@pytest.mark.parametrize("q", [F(1, 2), F(-3, 4), F(5, 7), F(3), F(-736, 549)])
def test_coefficients_are_the_reduced_pairs_of_the_q_binomials(q):
    # [t^{2k-n}] H_n is read straight from the scaled row, with no gcd: it
    # must already be the reduced pair of [n k]_q, with a positive
    # denominator.
    for n in range(11):
        coeffs = hermite_laurent(n, at(q)).coeffs
        for k in range(n + 1):
            oracle = qbinom(n, k, q)
            assert coeffs[2 * k - n] == (oracle.numerator, oracle.denominator), (n, k)


@pytest.mark.parametrize("q", SAMPLE_Q)
def test_palindromic_with_full_support(q):
    for n in range(21):
        poly = hermite_laurent(n, at(q))
        assert all(same(c, poly.coefficient(-e)) for e, c in poly.coeffs.items())
        assert len(poly.coeffs) == n + 1
        assert [e for e, _ in poly.items()] == list(range(-n, n + 1, 2))


@pytest.mark.parametrize("q", SAMPLE_Q)
def test_value_at_one_is_binomial_sum(q):
    for n in range(13):
        poly = _hermite_values(n, at(q))
        expected = sum(qbinom(n, k, q) for k in range(n + 1))
        assert sum(c for _, c in poly.items()) == expected
        # Each [t^{2k-n}] against the Pochhammer q-binomial.
        for k in range(n + 1):
            assert poly.coefficient(2 * k - n) == qbinom(n, k, q), (n, k)


@pytest.mark.parametrize("q", SAMPLE_Q)
def test_hermite_made_once_per_store(q):
    # H_n depends on q alone: every point of one QTables store reads the
    # same object, and a fresh store makes an equal one.
    tables = QTables(q)
    first = PointContext(QPoint(q, F(3, 5)), tables)
    second = PointContext(QPoint(q, F(-7, 4)), tables)
    for n in (5, 0, 12, 3):
        h_n = hermite_laurent(n, first)
        assert hermite_laurent(n, second) is h_n, n
        assert hermite_laurent(n, at(q)) == h_n, n


def test_recurrence_hand_check():
    # (t + 1/t)^2 - (1 - q) = t^2 + (1 + q) + t^-2 = H_2.
    for q in SAMPLE_Q:
        lhs, rhs = _recurrence_values(1, at(q))
        assert lhs == rhs == LaurentPolynomial({2: 1, 0: 1 + q, -2: 1})


@pytest.mark.parametrize("q", SAMPLE_Q)
def test_recurrence_rhs_coefficients(q):
    # [t^{2k-n-1}] of (t + 1/t) H_n - (1 - q^n) H_{n-1}, from the Pochhammer
    # q-binomial.
    for n in range(1, 21):
        _, rhs = _recurrence_values(n, at(q))
        expected = {
            2 * k - n - 1: qbinom(n, k - 1, q)
            + qbinom(n, k, q)
            - (1 - q**n) * qbinom(n - 1, k - 1, q)
            for k in range(n + 2)
        }
        assert rhs == LaurentPolynomial(expected)


@pytest.mark.parametrize("q", SAMPLE_Q)
def test_recurrence_range(q):
    for n in range(1, 21):
        lhs, rhs = _recurrence_values(n, at(q))
        assert lhs == rhs


def test_recurrence_at_sampled_bases(sampled_points):
    for point in sampled_points:
        for n in range(1, 21):
            lhs, rhs = _recurrence_values(n, point)
            assert lhs == rhs


def test_connection_hand_example():
    lhs, rhs = connection_sides(2, F(2), at(F(1, 2)))
    assert value(lhs) == value(rhs) == 23


def test_connection_base_case():
    assert tuple(map(value, connection_sides(0, F(3), at(F(1, 2))))) == (1, 1)


def test_connection_range(small_points):
    for point in small_points:
        t0 = point.a if point.a != 0 else point.q
        for n in range(17):
            lhs, rhs = connection_sides(n, t0, point)
            assert value(lhs) == value(rhs)


@pytest.mark.parametrize("q", SAMPLE_Q)
def test_connection_coefficientwise(q):
    # t^n H_n(t) = sum_k [n k]_q t^{2k}, against the Pochhammer q-binomial.
    for n in range(21):
        expected = LaurentPolynomial({2 * k: qbinom(n, k, q) for k in range(n + 1)})
        shifted = {e + n: c for e, c in _hermite_values(n, at(q)).items()}
        assert LaurentPolynomial(shifted) == expected


def test_input_validation():
    with pytest.raises(InvalidInputError):
        hermite_laurent(-1, at(F(1, 2)))
    with pytest.raises(InvalidInputError):
        hermite_laurent(3, at(1))
    with pytest.raises(InvalidInputError):
        hermite_recurrence_sides(0, at(F(1, 2)))
    with pytest.raises(InvalidInputError):
        connection_sides(2, 0, at(F(1, 2)))
    with pytest.raises(InvalidInputError):
        connection_sides(2, 0.5, at(F(1, 2)))

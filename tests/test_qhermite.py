from fractions import Fraction

import pytest

from qmoments import (
    InvalidInputError,
    LaurentPolynomial,
    connection_laurent_sides,
    connection_sides,
    hermite_laurent,
    hermite_recurrence_sides,
)

F = Fraction

SAMPLE_Q = [F(1, 2), F(-3, 5), F(7, 3), F(2)]


def test_hermite_small_cases():
    q = F(1, 2)
    assert hermite_laurent(0, q) == LaurentPolynomial({0: 1})
    assert hermite_laurent(1, q) == LaurentPolynomial({1: 1, -1: 1})
    assert hermite_laurent(2, q) == LaurentPolynomial({2: 1, 0: F(3, 2), -2: 1})
    assert hermite_laurent(3, q) == LaurentPolynomial(
        {3: 1, 1: F(7, 4), -1: F(7, 4), -3: 1}
    )


@pytest.mark.parametrize("q", SAMPLE_Q)
def test_palindromic_with_full_support(q):
    for n in range(21):
        poly = hermite_laurent(n, q)
        assert all(c == poly.coefficient(-e) for e, c in poly.coeffs.items())
        assert len(poly.coeffs) == n + 1
        assert poly.exponents() == list(range(-n, n + 1, 2))


@pytest.mark.parametrize("q", SAMPLE_Q)
def test_value_at_one_is_binomial_sum(q):
    from qmoments import qbinom

    for n in range(13):
        expected = sum(qbinom(n, k, q) for k in range(n + 1))
        assert hermite_laurent(n, q)(1) == expected


def test_recurrence_hand_check():
    # (t + 1/t)^2 - (1 - q) = t^2 + (1 + q) + t^-2 = H_2.
    for q in SAMPLE_Q:
        lhs, rhs = hermite_recurrence_sides(1, q)
        assert lhs == rhs == LaurentPolynomial({2: 1, 0: 1 + q, -2: 1})


@pytest.mark.parametrize("q", SAMPLE_Q)
def test_recurrence_range(q):
    for n in range(1, 21):
        lhs, rhs = hermite_recurrence_sides(n, q)
        assert lhs == rhs


def test_recurrence_at_sampled_bases(sampled_points):
    for point in sampled_points:
        for n in range(1, 21):
            lhs, rhs = hermite_recurrence_sides(n, point.q)
            assert lhs == rhs


def test_connection_hand_example():
    lhs, rhs = connection_sides(2, F(2), F(1, 2))
    assert lhs == rhs == 23


def test_connection_base_case():
    assert connection_sides(0, F(3), F(1, 2)) == (1, 1)


def test_connection_range(small_points):
    for point in small_points:
        t0 = point.a if point.a != 0 else point.q
        for n in range(17):
            lhs, rhs = connection_sides(n, t0, point.q)
            assert lhs == rhs


@pytest.mark.parametrize("q", SAMPLE_Q)
def test_connection_coefficientwise(q):
    for n in range(21):
        lhs, rhs = connection_laurent_sides(n, q)
        assert lhs == rhs


def test_input_validation():
    with pytest.raises(InvalidInputError):
        hermite_laurent(-1, F(1, 2))
    with pytest.raises(InvalidInputError):
        hermite_laurent(3, 1)
    with pytest.raises(InvalidInputError):
        hermite_recurrence_sides(0, F(1, 2))
    with pytest.raises(InvalidInputError):
        connection_sides(2, 0, F(1, 2))

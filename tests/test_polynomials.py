from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from qmoments import LaurentPolynomial, Polynomial

F = Fraction

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=12)
polys = st.lists(fractions, max_size=6).map(Polynomial)


def test_trailing_zeros_trimmed():
    assert Polynomial([1, 2, 0, 0]).coeffs == (F(1), F(2))
    assert Polynomial([0, 0]).coeffs == ()
    assert Polynomial().coeffs == ()
    p = Polynomial([0, 0, 0, F(5, 2)])
    assert p.coeffs == (0, 0, 0, F(5, 2))
    assert p.coefficient(0) == 0
    assert p.coefficient(7) == 0


def test_repr_readable():
    assert str(Polynomial([-4, 0, 1])) == "x^2 - 4"
    assert str(Polynomial([F(-4, 7), F(-18, 7), 1])) == "x^2 - 18/7*x - 4/7"
    assert str(Polynomial()) == "0"
    assert str(Polynomial([0, -1])) == "-x"


@given(polys)
def test_normalization_idempotent(p):
    assert Polynomial(p.coeffs) == p


def test_laurent_zero_coefficients_dropped():
    p = LaurentPolynomial({3: 0, 1: 2})
    assert list(p.items()) == [(1, 2)]
    assert p.coefficient(3) == 0

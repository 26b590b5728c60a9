from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmoments import InvalidInputError, as_rational, parse_rational


def test_parse_integer():
    assert parse_rational("5") == Fraction(5)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational(" 7 ") == Fraction(7)


def test_parse_fraction_canonicalizes():
    assert parse_rational("-24/7") == Fraction(-24, 7)
    assert parse_rational("4/8") == Fraction(1, 2)
    value = parse_rational("1/-2")
    assert value == Fraction(-1, 2)
    assert value.denominator == 2


@pytest.mark.parametrize("bad", ["", "1.5", "a/b", "1/2/3", "2a", "/3", "--4"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(InvalidInputError):
        parse_rational(bad)


def test_parse_rejects_zero_denominator():
    with pytest.raises(InvalidInputError):
        parse_rational("3/0")


def test_format():
    # The p/r text format is str(Fraction): lowest terms, sign on the numerator.
    assert str(Fraction(6)) == "6"
    assert str(Fraction(-24, 7)) == "-24/7"
    assert str(Fraction(24, -7)) == "-24/7"
    assert str(Fraction(0)) == "0"


def test_as_rational_coercions():
    assert as_rational(3) == Fraction(3)
    assert as_rational("3/9") == Fraction(1, 3)
    assert as_rational(Fraction(5, 2)) == Fraction(5, 2)


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(InvalidInputError):
        as_rational(0.5)
    with pytest.raises(InvalidInputError):
        as_rational(True)


@given(st.fractions(max_denominator=10**6))
def test_format_parse_roundtrip(x):
    assert parse_rational(str(x)) == x

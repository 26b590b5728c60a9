"""Exact rational scalars at the boundary, and their text format.

Every number that enters the program from outside (the CLI, a ``QPoint``,
the raw-scalar oracles in ``qseries`` and ``moments``) is coerced and checked
here, once, into a ``fractions.Fraction``: arithmetic is exact, values are
always in lowest terms with a positive denominator, and equality is
decidable.  Floats are refused, so an equality check is a proof of the
identity at the evaluated point.  Past the boundary the library runs on
whatever scalar its point holds, and on a ``QPoint`` that is this Fraction.

The text format is ``p/r``, or just ``p`` for integers: decimal digits with
an optional leading minus, e.g. ``-24/7``.  It is exactly ``str(Fraction)``,
which writes lowest terms with the sign on the numerator, so the CLI and
report files print with ``format_rational`` and read back with
``parse_rational``.  Both work at any size.  CPython (3.11, and the
security releases before it) refuses to convert an int of more than 4,300
digits to or from text with ``str`` and ``int``; both go through
``decimal.Decimal`` instead, which converts exactly and has no such limit,
so the interpreter's limit is left as it is.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

from .errors import InvalidInputError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[+-]?\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``p/r`` or ``p`` into a Fraction.

    >>> parse_rational("-24/7")
    Fraction(-24, 7)
    """
    cleaned = text.strip()
    if not _RATIONAL_RE.match(cleaned):
        raise InvalidInputError(
            f"not a rational literal: {text!r} (expected 'p' or 'p/r')"
        )
    num_text, _, den_text = cleaned.partition("/")
    denominator = int(Decimal(den_text or "1"))
    if denominator == 0:
        raise InvalidInputError(f"zero denominator in rational literal: {text!r}")
    return Fraction(int(Decimal(num_text)), denominator)


def format_rational(x) -> str:
    """x in the ``p/r`` text format, ``str(x)``, at any size; a scalar other
    than an int or a Fraction is ``str(x)``.

    >>> format_rational(Fraction(-24, 7))
    '-24/7'
    """
    if not isinstance(x, (int, Fraction)):
        return str(x)
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def as_rational(value: Fraction | int | str) -> Fraction:
    """Coerce an int, ``p/r`` string, or Fraction to a Fraction.

    Floats are rejected on purpose: admitting one would silently break the
    exactness guarantee.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidInputError(f"cannot interpret {value!r} as an exact rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise InvalidInputError(f"cannot interpret {value!r} as an exact rational")

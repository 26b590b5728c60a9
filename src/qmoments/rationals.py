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
report files print with ``str`` and read back with ``parse_rational``.
"""

from __future__ import annotations

import re
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
    denominator = int(den_text) if den_text else 1
    if denominator == 0:
        raise InvalidInputError(f"zero denominator in rational literal: {text!r}")
    return Fraction(int(num_text), denominator)


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

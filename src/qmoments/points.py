"""Admissible parameter points (q, a).

Admissibility keeps every denominator of the recurrence and q-series
formulas nonzero: q must avoid {0, 1, -1}, so that 1 - q^m != 0 for every
m >= 1 and q^-1 exists, and a must avoid -1, since the odd-index recurrence
coefficients divide by (1 + a).  Over the rationals q^m = 1 forces q = 1 or
q = -1, so no further root-of-unity exclusions are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError
from .rationals import as_rational


def validate_q(q: Fraction | int | str) -> Fraction:
    """Coerce and check a base parameter q; raises InvalidInputError if q in {0, 1, -1}."""
    value = as_rational(q)
    if value == 0 or value == 1 or value == -1:
        raise InvalidInputError(
            f"q = {value} is not admissible: q must avoid 0, 1 and -1"
        )
    return value


@dataclass(frozen=True)
class QPoint:
    """An exact parameter pair (q, a) satisfying the admissibility rules."""

    q: Fraction
    a: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", validate_q(self.q))
        a = as_rational(self.a)
        if a == -1:
            raise InvalidInputError(
                "a = -1 is not admissible: recurrence denominators carry (1 + a)"
            )
        object.__setattr__(self, "a", a)

    # str(Fraction) is the p/r text format.
    def as_strings(self) -> dict[str, str]:
        return {"q": str(self.q), "a": str(self.a)}

    def __str__(self) -> str:
        return f"(q={self.q}, a={self.a})"

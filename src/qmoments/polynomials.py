"""Dense univariate polynomials and Laurent coefficient maps, for output.

``Polynomial`` stores coefficients by ascending degree with trailing zeros
trimmed, so structural equality is exact polynomial equality.  It holds
``coefficient``, ``==`` and the printed form of ``s_polynomials``
(``str``), and has no arithmetic: every identity is checked on split
pairs, and no identity builds a polynomial in x.
``LaurentPolynomial`` only maps integer exponents (negative allowed) to
coefficients, and has no arithmetic either.  A value coefficient equal to
0 is dropped.  H_n (``qhermite.hermite_laurent``) holds split pairs
(num, den), which are never dropped; none is zero, since [n k]_q != 0 at
an admissible q.

Coefficients are stored as given, not coerced: the classes run on whatever
scalar the caller's point holds (``Fraction``, a GF(p) element, a sympy
expression), which needs only comparison with 0.  The int 0 stands for a
missing coefficient, since it is the additive identity of every such
scalar.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping


class Polynomial:
    """Immutable dense polynomial in one variable x."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        items = list(coeffs)
        while items and items[-1] == 0:
            items.pop()
        object.__setattr__(self, "coeffs", tuple(items))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of x^k, zero outside the stored range."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self) -> str:
        return f"Polynomial({self!s})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = ("-" if c < 0 else "") if not parts else (" - " if c < 0 else " + ")
            mag = str(abs(c))
            if k == 0:
                term = mag
            else:
                var = "x" if k == 1 else f"x^{k}"
                term = var if abs(c) == 1 else f"{mag}*{var}"
            parts.append(sign + term)
        return "".join(parts)


class LaurentPolynomial:
    """Laurent polynomial in t, as a map from integer exponent to coefficient
    (a value or a split pair)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Fraction | int] = ()):
        cleaned = {int(e): c for e, c in dict(coeffs).items() if c != 0}
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentPolynomial is immutable")

    def coefficient(self, exponent: int) -> Fraction:
        return self.coeffs.get(exponent, 0)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self.coeffs.items()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LaurentPolynomial(0)"
        terms = " + ".join(
            f"({c})*t^{e}" for e, c in sorted(self.coeffs.items())
        )
        return f"LaurentPolynomial({terms})"

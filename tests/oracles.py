"""Polynomial oracles for the tests, in sympy's exact arithmetic over QQ.

The library keeps every polynomial as split integer coefficients and checks
its identities on those.  These rebuild the same polynomials by plain
polynomial arithmetic, from the parameters alone or from the printed s_n
(``s_polynomials``), so they share none of the library's tables.
"""

from fractions import Fraction

import sympy

from qmoments import s_polynomials

X = sympy.Symbol("x")


def poly(coeffs) -> sympy.Poly:
    """The polynomial in x with these coefficients (ints or Fractions) by
    ascending degree."""
    ascending = [sympy.Rational(c.numerator, c.denominator) for c in coeffs]
    return sympy.Poly.from_list(ascending[::-1], X, domain=sympy.QQ)


def split_poly(side) -> sympy.Poly:
    """A split side, integer coefficients by ascending degree over one
    denominator, as a polynomial."""
    coeffs, den = side
    return poly(Fraction(c, den) for c in coeffs)


def s_family(upto: int, point) -> list[sympy.Poly]:
    """s_0, ..., s_upto as polynomials."""
    return [poly(s.coeffs) for s in s_polynomials(upto, point)]


def pi_product(n: int, point) -> sympy.Poly:
    """prod_{i<n} (x^2 - a^2 q^{2i}), multiplied out."""
    q, a = point.q, point.a
    out = poly([1])
    for i in range(n):
        out *= poly([-(a * a) * q ** (2 * i), 0, 1])
    return out


def moments_via_basis(upto: int, point) -> tuple[Fraction, ...]:
    """mu_0, ..., mu_upto by back-substitution, with no use of the power
    table: x^n less c_k s_k, from k = n down to 1 with c_k its coefficient
    of x^k at that step, leaves mu_n = L(x^n) = c_0."""
    s = s_family(upto, point)
    out = []
    for n in range(upto + 1):
        rest = poly([0] * n + [1])
        for k in range(n, 0, -1):
            # deg rest <= k and s_k is monic, so this takes c_k s_k off.
            rest = rest.rem(s[k])
        mu = rest.nth(0)
        out.append(Fraction(int(mu.p), int(mu.q)))
    return tuple(out)

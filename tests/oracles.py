"""Polynomial oracles for the tests, in sympy's exact arithmetic over QQ.

The library keeps every polynomial as split integer coefficients and checks
its identities on those.  These rebuild the same polynomials by plain
polynomial arithmetic, from the parameters alone or from the printed s_n
(``s_polynomials``), so they share none of the library's tables.
"""

from fractions import Fraction

import sympy

from qmoments import expansion_coeffs, s_polynomials, value

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


def pi_coefficients(n: int, point) -> list:
    """prod_{i<n} (x^2 - a^2 q^{2i}) multiplied out, its coefficients by
    ascending degree, over the point's own scalars."""
    q, a = point.q, point.a
    out = [1]
    for i in range(n):
        root = a * a * q ** (2 * i)
        out = [below - root * c for below, c in zip((0, 0, *out), (*out, 0, 0))]
    return out


def pi_product(n: int, point) -> sympy.Poly:
    """prod_{i<n} (x^2 - a^2 q^{2i}) as a polynomial."""
    return poly(pi_coefficients(n, point))


def expansion_in_x(n: int, point) -> list:
    """sum_k e_k^{(n)} s_{2n-k} multiplied out, its coefficients by
    ascending degree, from the closed-form e_k and the printed s_j: the
    x-basis side of pi_n = sum_k e_k s_{2n-k}, over the point's own
    scalars."""
    s = s_polynomials(2 * n, point)
    out = [0] * (2 * n + 1)
    for k, e in enumerate(expansion_coeffs(n, point)):
        e = value(e)
        for i, c in enumerate(s[2 * n - k].coeffs):
            out[i] += e * c
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

"""Oracles for the tests.

The library keeps every polynomial as split integer coefficients and checks
its identities on those.  The polynomial oracles rebuild the same
polynomials in sympy's exact arithmetic over QQ, by plain polynomial
arithmetic, from the parameters alone or from the printed s_n
(``s_polynomials``), so they share none of the library's tables.
``docstring_coeffs`` is the ``expansion`` docstring formula as written, and
``is_reduced`` the form of every stored pair.
"""

import math
from fractions import Fraction

import sympy

from qmoments import expansion_coeffs, pochhammer, qbinom, s_polynomials, value

X = sympy.Symbol("x")


def is_reduced(pair) -> bool:
    """Whether a split pair is two ints in lowest terms, den > 0."""
    num, den = pair
    return type(num) is int and type(den) is int and den > 0 and math.gcd(num, den) == 1


def docstring_coeffs(n: int, q, a) -> tuple:
    """e_0 .. e_{2n} from the ``expansion`` module docstring, with
    reciprocal-base Pochhammer products and q^2-binomials taken from
    ``qseries`` as written."""
    coeffs = []
    for k in range(n + 1):
        shared = pochhammer(-a * q ** (2 * n - 1), 1 / q, 2 * k)
        top = q ** (4 * n - 2 * k - 1)
        coeffs.append(shared / pochhammer(top, 1 / q**2, k) * qbinom(n, k, q * q))
        if k < n:
            coeffs.append(
                (1 + a)
                * shared
                / pochhammer(top, 1 / q**2, k + 1)
                * qbinom(n, k + 1, q * q)
                * (1 - q ** (2 * (k + 1)))
            )
    return tuple(coeffs)


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

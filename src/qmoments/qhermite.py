"""Continuous q-Hermite polynomials in Laurent form.

With x = (t + 1/t)/2 the degree-n continuous q-Hermite polynomial becomes
the palindromic Laurent polynomial

    H_n(t) = sum_{k=0}^{n} [n k]_q t^{2k-n},

whose exponents run over {-n, -n+2, ..., n}.  The classical three-term
recurrence

    H_{n+1}(t) = (t + 1/t) H_n(t) - (1 - q^n) H_{n-1}(t)

is treated as a property to verify against the sum definition, not as a
definition; its right side is built coefficient by coefficient from H_n and
H_{n-1}, with no Laurent arithmetic.  ``connection_sides`` ties the
closed-form moments P_n to these polynomials through the substitution
a = t^2:

    (q; q^2)_{floor((n+1)/2)} * P_n(t^2) = t^n H_n(t),

evaluated at one t0; both sides are polynomials of degree 2n in t, so a
grid of t values proves it for fixed n and q.

Every function takes a point, like the other ``*_sides`` functions, and
reads only its q; a caller that has only q passes ``QPoint(q, 0)``.  Given a
``PointContext`` they share its q-binomial rows and run on its scalar.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

from . import context
from .errors import InvalidInputError
from .points import QPoint
from .polynomials import LaurentPolynomial


def hermite_laurent(n: int, point: QPoint) -> LaurentPolynomial:
    """H_n as a Laurent polynomial in t, at the point's q."""
    if n < 0:
        raise InvalidInputError("hermite_laurent requires n >= 0")
    ctx = context.as_context(point)
    row = ctx.tables.qbinom_row(n)
    return LaurentPolynomial({2 * k - n: row[k] for k in range(n + 1)})


def hermite_recurrence_sides(
    n: int, point: QPoint
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """(H_{n+1}, (t + 1/t) H_n - (1 - q^n) H_{n-1}) for n >= 1.

    The right side is built coefficientwise, [t^e] = H_n[e-1] + H_n[e+1]
    - (1 - q^n) H_{n-1}[e], at every e +- 1 with e an exponent of H_n and
    every exponent e of H_{n-1}, so wrong-parity exponents reach the pairs.
    """
    if n < 1:
        raise InvalidInputError("hermite_recurrence_sides requires n >= 1")
    ctx = context.as_context(point)
    lhs = hermite_laurent(n + 1, ctx)
    h_n, h_prev = hermite_laurent(n, ctx), hermite_laurent(n - 1, ctx)
    damping = 1 - ctx.q**n
    exponents = {e + s for e in h_n.coeffs for s in (-1, 1)} | h_prev.coeffs.keys()
    rhs = {
        e: h_n.coefficient(e - 1) + h_n.coefficient(e + 1)
        - damping * h_prev.coefficient(e)
        for e in exponents
    }
    return lhs, LaurentPolynomial(rhs)


def connection_sides(n: int, t0: Fraction, point: QPoint) -> tuple[Fraction, Fraction]:
    """((q;q^2)_{floor((n+1)/2)} P_n(t0^2), t0^n H_n(t0)) for nonzero t0.

    t0 joins the point's scalar type; a float or a zero t0 is refused.
    """
    if n < 0:
        raise InvalidInputError("connection_sides requires n >= 0")
    ctx = context.as_context(point)
    t0 = ctx.one * t0
    if isinstance(t0, float) or t0 == 0:
        raise InvalidInputError("connection_sides requires an exact t0 != 0")
    at_t0 = context.PointContext(SimpleNamespace(q=ctx.q, a=t0 * t0), ctx.tables)
    odd = context.quotient(*ctx.tables.qpochhammer(1, 2, (n + 1) // 2))
    lhs = odd * at_t0.closed_form(n)
    rhs = sum(c * t0 ** (e + n) for e, c in hermite_laurent(n, ctx).items())
    return lhs, rhs


"""Recurrence coefficients and the monic orthogonal family they generate.

The family s_n is defined by the three-term recurrence

    s_{n+1}(x) = (x - b_n) s_n(x) - lambda_n s_{n-1}(x),
    s_0 = 1,  s_{-1} = 0,

with coefficients that alternate between an even and an odd branch:

    b_n (n even, n >= 0):
        -(1-q) / ((1-q^{2n+1})(1-q^{2n-1})(1+a)) *
        ( a (1-q^{2n-1})(1-q^{n+1})(1-q^n)/(1-q)
          - q^n ((1-q^{n-1})/(1-q) + q^{n+1}(1-q^n)/(1-q)) (1+a)^2 )

    b_n (n odd, n >= 1):
        +(1-q) / ((1-q^{2n+1})(1-q^{2n-1})(1+a)) *
        ( a (1-q^{2n+1})(1-q^{n-1})(1-q^n)/(1-q)
          - q^{n+1} ((1-q^n)/(1-q) + q^{n-2}(1-q^{n+1})/(1-q)) (1+a)^2 )

    lambda_n (n even, n >= 2):
        q^n (1+a)^2 (1-q^{n-1})(1-q^n) / (1-q^{2n-1})^2

    lambda_n (n odd, n >= 1):
        -(a+q^n)(a+q^{n-1})(1+a q^{n-1})(1+a q^n) / ((1+a)^2 (1-q^{2n-1})^2)

The n = 0 even branch is evaluated literally: q^{2n-1} there is the exact
rational q^{-1} (q = 0 is excluded by admissibility), the (1 - q^n) factors
vanish, and the whole expression collapses to b_0 = (1+a)/(1-q).  Negative
exponents such as q^{n-2} at n = 1 are handled the same way.

lambda_0 is never defined: s_{-1} = 0 removes it from the recurrence, and
``coeff_lambda(0, ...)`` is an input error.

The formula bodies are written generically over any field-like scalar type
(`_b_formula` / `_lambda_formula`), so the degree-budget machinery can run
the identical expressions over degree-tracking values.
"""

from __future__ import annotations

from fractions import Fraction

from . import context
from .errors import InvalidInputError
from .points import QPoint
from .polynomials import Polynomial


def _b_formula(n, q, a):
    # Shared even/odd branch expression; scalars only need +, -, *, /, ** int.
    if n % 2 == 0:
        lead = -(1 - q) / ((1 - q ** (2 * n + 1)) * (1 - q ** (2 * n - 1)) * (1 + a))
        inner = a * (1 - q ** (2 * n - 1)) * (1 - q ** (n + 1)) * (1 - q**n) / (
            1 - q
        ) - q**n * (
            (1 - q ** (n - 1)) / (1 - q) + q ** (n + 1) * (1 - q**n) / (1 - q)
        ) * (1 + a) ** 2
    else:
        lead = (1 - q) / ((1 - q ** (2 * n + 1)) * (1 - q ** (2 * n - 1)) * (1 + a))
        inner = a * (1 - q ** (2 * n + 1)) * (1 - q ** (n - 1)) * (1 - q**n) / (
            1 - q
        ) - q ** (n + 1) * (
            (1 - q**n) / (1 - q) + q ** (n - 2) * (1 - q ** (n + 1)) / (1 - q)
        ) * (1 + a) ** 2
    return lead * inner


def _lambda_formula(n, q, a):
    if n % 2 == 0:
        return (
            q**n * (1 + a) ** 2 * (1 - q ** (n - 1)) * (1 - q**n)
            / (1 - q ** (2 * n - 1)) ** 2
        )
    return -(
        (a + q**n) * (a + q ** (n - 1)) * (1 + a * q ** (n - 1)) * (1 + a * q**n)
    ) / ((1 + a) ** 2 * (1 - q ** (2 * n - 1)) ** 2)


def coeff_b(n: int, point: QPoint) -> Fraction:
    """The diagonal recurrence coefficient b_n, n >= 0."""
    if n < 0:
        raise InvalidInputError("coeff_b requires n >= 0")
    return _b_formula(n, point.q, point.a)


def coeff_lambda(n: int, point: QPoint) -> Fraction:
    """The off-diagonal recurrence coefficient lambda_n, n >= 1."""
    if n < 1:
        raise InvalidInputError(
            "coeff_lambda requires n >= 1 (lambda_0 never enters the recurrence)"
        )
    return _lambda_formula(n, point.q, point.a)


def extend_s(s: list[Polynomial], upto: int, b, lam) -> None:
    """Grow ``s = [s_0, ..., s_m]`` in place until it reaches s_upto.

    ``b(n)`` and ``lam(n)`` supply the recurrence coefficients.
    """
    while len(s) <= upto:
        n = len(s) - 1
        nxt = s[n].times_x() - s[n] * b(n)
        if n >= 1:
            nxt = nxt - s[n - 1] * lam(n)
        s.append(nxt)


def s_polynomials(upto: int, point: QPoint) -> list[Polynomial]:
    """The monic polynomials s_0, ..., s_upto generated by the recurrence."""
    if upto < 0:
        raise InvalidInputError("s_polynomials requires upto >= 0")
    return context.as_context(point).s_polynomials(upto)[: upto + 1]


def s_polynomial(n: int, point: QPoint) -> Polynomial:
    """The single monic polynomial s_n."""
    return s_polynomials(n, point)[n]

"""q-series primitives: Pochhammer products and q-binomial coefficients.

Conventions used throughout the package:

    (c; base)_n  =  prod_{j=0}^{n-1} (1 - c * base^j),   empty product = 1,
    [n k]_base   =  (base;base)_n / ((base;base)_k (base;base)_{n-k}),

with the q-binomial defined as 0 whenever k falls outside [0, n].  Products
with reciprocal bases such as 1/q or 1/q^2 are computed literally; no
exponent rewriting is needed.

``pochhammer`` and ``qbinom`` take raw scalars from outside, so they coerce
and check them as exact Fractions; the tests use them as the independent
oracle for the context's tables.  The ``*_sides`` functions give
both sides of the two classical summation facts the moment identities rest
on, the finite q-binomial theorem and a limiting case of the q-Vandermonde
sum, at a point, over whatever scalar the point holds.  Both sides of the
q-binomial theorem are integer sums over one integer denominator for a
Fraction point, built from the context's scaled rows and its split prefix
(-a; q)_m (see ``context``); ``qbinomial_theorem_sides`` returns them as
split pairs, which the suite runner compares with no gcd (``context.same``)
and ``context.value`` makes values.  The q-Vandermonde sides read the
split prefixes (q; q)_m and (q^2; q^2)_m of the context's ``QTables``; the
left side is one sum over the lcm of its terms' denominators.
"""

from __future__ import annotations

from fractions import Fraction

from . import context
from .errors import InvalidInputError
from .points import QPoint
from .rationals import as_rational


def binom2(m: int) -> int:
    """The binomial coefficient C(m, 2) = m(m-1)/2, used in q-power exponents."""
    return m * (m - 1) // 2


def pochhammer(start: Fraction | int, base: Fraction | int, length: int) -> Fraction:
    """The finite product (start; base)_length = prod_{j<length} (1 - start * base^j)."""
    if length < 0:
        raise InvalidInputError("pochhammer requires length >= 0")
    base = as_rational(base)
    if base == 0:
        raise InvalidInputError("pochhammer requires base != 0")
    start = as_rational(start)
    result = Fraction(1)
    power = Fraction(1)
    for _ in range(length):
        result *= 1 - start * power
        power *= base
    return result


def qbinom(n: int, k: int, base: Fraction | int) -> Fraction:
    """The q-binomial coefficient [n k]_base; 0 when k is outside [0, n]."""
    if n < 0:
        raise InvalidInputError("qbinom requires n >= 0")
    base = as_rational(base)
    if base == 0 or base == 1 or base == -1:
        raise InvalidInputError("qbinom requires base outside {0, 1, -1}")
    if k < 0 or k > n:
        return Fraction(0)
    return pochhammer(base, base, n) / (
        pochhammer(base, base, k) * pochhammer(base, base, n - k)
    )


def qbinomial_theorem_sides(m: int, point: QPoint) -> tuple[tuple, tuple]:
    """Both sides of the finite q-binomial theorem at (q, a), split.

    LHS: sum_{p=0}^{m} [m p]_q q^{C(p,2)} a^p.  RHS: (-a; q)_m, i.e. the
    product prod_{j<m} (1 + a q^j).  With q = u/v, a = s/t (see
    ``context.split``) and E = C(m, 2), both sit over t^m v^E, with the
    numerators sum_p B[m][p] u^{C(p,2)} v^{C(m-p,2)} s^p t^{m-p} (the scaled
    rows B of ``QTables.scaled_row``; E - p(m-p) - C(p,2) = C(m-p,2)) and
    prod_{j<m} (t v^j + s u^j), the split prefix ``PointContext.a_pochhammer``.
    """
    if m < 0:
        raise InvalidInputError("qbinomial_theorem_sides requires m >= 0")
    ctx = context.as_context(point)
    (u, v), (s, t) = ctx.q_split, ctx.a_split
    row = ctx.tables.scaled_row(m)
    lhs = sum(
        row[p] * u ** binom2(p) * v ** binom2(m - p) * s**p * t ** (m - p)
        for p in range(m + 1)
    )
    rhs, den = ctx.a_pochhammer(m)
    return (lhs, den), (rhs, den)


def qvandermonde_limit_sides(p: int, point: QPoint) -> tuple[Fraction, Fraction]:
    """Both sides of the limiting q-Vandermonde evaluation used by the moment proof.

    LHS: sum_{k=0}^{floor(p/2)} (-1)^k q^{2 C(k,2)} / ((q^2;q^2)_k (q;q)_{p-2k}).
    RHS: q^{C(p,2)} / (q;q)_p.  The closed form follows from matching the
    coefficient of a^p across the two series expansions of the even-product
    moments, using (q;q)_{2m} = (q;q^2)_m (q^2;q^2)_m; it is re-derived by
    brute force in the test suite before being relied on.  Only q enters:
    with q = u/v, each term is a pair of the split prefixes, and the terms
    are one ``context.split_sum`` made a value by one quotient.
    """
    if p < 0:
        raise InvalidInputError("qvandermonde_limit_sides requires p >= 0")
    ctx = context.as_context(point)
    (u, v), qpochhammer = ctx.q_split, ctx.tables.qpochhammer
    terms = []
    for k in range(p // 2 + 1):
        even_num, even_den = qpochhammer(2, 2, k)
        num, den = qpochhammer(1, 1, p - 2 * k)
        e = 2 * binom2(k)
        term = u**e * even_den * den
        terms.append((-term if k % 2 else term, v**e * even_num * num))
    lhs = context.quotient(*context.split_sum(*terms, reduce=False))
    num, den = qpochhammer(1, 1, p)
    e = binom2(p)
    return lhs, context.quotient(u**e * den, v**e * num)

"""q-series primitives: q-integers, Pochhammer products, q-binomial coefficients.

Conventions used throughout the package:

    (c; base)_n  =  prod_{j=0}^{n-1} (1 - c * base^j),   empty product = 1,
    [n k]_base   =  (base;base)_n / ((base;base)_k (base;base)_{n-k}),

with the q-binomial defined as 0 whenever k falls outside [0, n].  Products
with reciprocal bases such as 1/q or 1/q^2 are computed literally, with the
base an exact Fraction; no exponent rewriting is needed.

The module also gives both sides of the two classical summation facts the
moment identities rest on: the finite q-binomial theorem and a limiting case
of the q-Vandermonde sum.
"""

from __future__ import annotations

from fractions import Fraction

from . import context
from .errors import InvalidInputError
from .points import QPoint, validate_q
from .rationals import as_rational


def binom2(m: int) -> int:
    """The binomial coefficient C(m, 2) = m(m-1)/2, used in q-power exponents."""
    return m * (m - 1) // 2


def qint(n: int, q: Fraction | int) -> Fraction:
    """The q-integer [n]_q = (1 - q^n) / (1 - q)."""
    if n < 0:
        raise InvalidInputError("qint requires n >= 0")
    q = as_rational(q)
    if q == 1:
        raise InvalidInputError("qint is undefined at q = 1")
    return (1 - q**n) / (1 - q)


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


def qbinomial_theorem_sides(m: int, point: QPoint) -> tuple[Fraction, Fraction]:
    """Both sides of the finite q-binomial theorem at (q, a).

    LHS: sum_{p=0}^{m} [m p]_q q^{C(p,2)} a^p.  RHS: (-a; q)_m, i.e. the
    product prod_{j<m} (1 + a q^j).
    """
    if m < 0:
        raise InvalidInputError("qbinomial_theorem_sides requires m >= 0")
    q, a = point.q, point.a
    tables = context.as_context(point).tables
    row = tables.qbinom_row(m, q)
    lhs = sum((row[p] * q ** binom2(p) * a**p for p in range(m + 1)), Fraction(0))
    rhs = tables.pochhammer(-a, q, m)
    return lhs, rhs


def qvandermonde_limit_sides(
    p: int, q: Fraction | int, tables: context.QTables | None = None
) -> tuple[Fraction, Fraction]:
    """Both sides of the limiting q-Vandermonde evaluation used by the moment proof.

    LHS: sum_{k=0}^{floor(p/2)} (-1)^k q^{2 C(k,2)} / ((q^2;q^2)_k (q;q)_{p-2k}).
    RHS: q^{C(p,2)} / (q;q)_p.  The closed form follows from matching the
    coefficient of a^p across the two series expansions of the even-product
    moments, using (q;q)_{2m} = (q;q^2)_m (q^2;q^2)_m; it is re-derived by
    brute force in the test suite before being relied on.

    ``tables`` may supply a shared q-series store (see ``context.QTables``).
    """
    if p < 0:
        raise InvalidInputError("qvandermonde_limit_sides requires p >= 0")
    q = validate_q(q)
    tables = context.QTables() if tables is None else tables
    q2 = q * q
    lhs = Fraction(0)
    for k in range(p // 2 + 1):
        term = q ** (2 * binom2(k)) / (
            tables.pochhammer(q2, q2, k) * tables.pochhammer(q, q, p - 2 * k)
        )
        lhs += -term if k % 2 else term
    rhs = q ** binom2(p) / tables.pochhammer(q, q, p)
    return lhs, rhs

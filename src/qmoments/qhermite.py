"""Continuous q-Hermite polynomials in Laurent form.

With x = (t + 1/t)/2 the degree-n continuous q-Hermite polynomial becomes
the palindromic Laurent polynomial

    H_n(t) = sum_{k=0}^{n} [n k]_q t^{2k-n},

whose exponents run over {-n, -n+2, ..., n}.  The classical three-term
recurrence

    H_{n+1}(t) = (t + 1/t) H_n(t) - (1 - q^n) H_{n-1}(t)

is treated as a property to verify against the sum definition, not as a
definition.  ``connection_sides`` ties the closed-form moments P_n to these
polynomials through the substitution a = t^2:

    (q; q^2)_{floor((n+1)/2)} * P_n(t^2) = t^n H_n(t),

which is the coefficientwise identity sum_k [n k]_q t^{2k} = t^n H_n(t).

The functions that read q-binomial rows take an optional ``tables`` store
(``context.QTables``), so a caller can share the rows across indices; by
default each call builds its own.
"""

from __future__ import annotations

from fractions import Fraction

from . import context
from .errors import InvalidInputError
from .points import QPoint, validate_q
from .polynomials import LaurentPolynomial
from .rationals import as_rational


def _tables(tables: context.QTables | None) -> context.QTables:
    return context.QTables() if tables is None else tables


def hermite_laurent(
    n: int, q: Fraction | int, tables: context.QTables | None = None
) -> LaurentPolynomial:
    """H_n as a Laurent polynomial in t."""
    if n < 0:
        raise InvalidInputError("hermite_laurent requires n >= 0")
    q = validate_q(q)
    row = _tables(tables).qbinom_row(n, q)
    return LaurentPolynomial({2 * k - n: row[k] for k in range(n + 1)})


def hermite_recurrence_sides(
    n: int, q: Fraction | int, tables: context.QTables | None = None
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """(H_{n+1}, (t + 1/t) H_n - (1 - q^n) H_{n-1}) for n >= 1."""
    if n < 1:
        raise InvalidInputError("hermite_recurrence_sides requires n >= 1")
    q = validate_q(q)
    tables = _tables(tables)
    lhs = hermite_laurent(n + 1, q, tables)
    t_plus_inv = LaurentPolynomial({1: 1, -1: 1})
    rhs = t_plus_inv * hermite_laurent(n, q, tables) - hermite_laurent(
        n - 1, q, tables
    ) * (1 - q**n)
    return lhs, rhs


def connection_sides(
    n: int,
    t0: Fraction | int,
    q: Fraction | int,
    tables: context.QTables | None = None,
) -> tuple[Fraction, Fraction]:
    """((q;q^2)_{floor((n+1)/2)} P_n(t0^2), t0^n H_n(t0)) for nonzero t0."""
    if n < 0:
        raise InvalidInputError("connection_sides requires n >= 0")
    q = validate_q(q)
    t0 = as_rational(t0)
    if t0 == 0:
        raise InvalidInputError("connection_sides requires t0 != 0")
    tables = _tables(tables)
    point = context.PointContext(QPoint(q, t0 * t0), tables)
    lhs = tables.pochhammer(q, q * q, (n + 1) // 2) * point.closed_form(n)
    rhs = t0**n * hermite_laurent(n, q, tables)(t0)
    return lhs, rhs


def connection_laurent_sides(
    n: int, q: Fraction | int, tables: context.QTables | None = None
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """(sum_k [n k]_q t^{2k}, t^n H_n(t)), the coefficientwise connection.

    Both sides place the same q-binomial row, so they agree by construction:
    a mismatch can only come from ``LaurentPolynomial`` arithmetic or from
    ``hermite_laurent`` itself.  ``connection_sides``, which evaluates P_n at
    t0^2, is the check that ties the closed-form moments in.
    """
    if n < 0:
        raise InvalidInputError("connection_laurent_sides requires n >= 0")
    q = validate_q(q)
    tables = _tables(tables)
    row = tables.qbinom_row(n, q)
    lhs = LaurentPolynomial({2 * k: row[k] for k in range(n + 1)})
    rhs = LaurentPolynomial.t_power(n) * hermite_laurent(n, q, tables)
    return lhs, rhs

"""Continuous q-Hermite polynomials in Laurent form.

With x = (t + 1/t)/2 the degree-n continuous q-Hermite polynomial becomes
the palindromic Laurent polynomial

    H_n(t) = sum_{k=0}^{n} [n k]_q t^{2k-n},

whose exponents run over {-n, -n+2, ..., n}.  Each coefficient is a split
pair read straight from the store's scaled q-binomial row: with q = u/v and
B[n][k] = v^{k(n-k)} [n k]_q (``QTables.scaled_row``),

    [t^{2k-n}] H_n = (B[n][k], v^{k(n-k)}),

already reduced, since B[n][k] = u^{k(n-k)} (mod v) makes it prime to v,
and v > 0.  The classical three-term recurrence

    H_{n+1}(t) = (t + 1/t) H_n(t) - (1 - q^n) H_{n-1}(t)

is treated as a property to verify against the sum definition, not as a
definition; its right side is built coefficient by coefficient from H_n and
H_{n-1}, with no Laurent arithmetic: each coefficient is one sum of split
pairs (``hermite_recurrence_sides``), which the suite runner compares with
no gcd (``context.same``).  ``connection_sides`` ties the closed-form
moments P_n to these polynomials through the substitution a = t^2:

    (q; q^2)_{floor((n+1)/2)} * P_n(t^2) = t^n H_n(t),

evaluated at one t0; both sides are polynomials of degree 2n in t, so a
grid of t values proves it for fixed n and q.  The two sides come by two
routes: P_n from the Rogers-Szegő recurrence
h_{n+1} = (1 + a) h_n - a (1 - q^n) h_{n-1} (see ``moments``), and H_n
from the scaled q-binomial row.  So the pair checks that recurrence
against the defining sum h_n(t^2|q) = t^n H_n(t) = sum_k [n k]_q t^{2k}:
the premise that the P_n the conjecture, theorem and hankel suites read
is the paper's closed form.  Both sides are split pairs: the left the
unreduced product of two pairs, the right one sum of pairs.

Every function takes a point, like the other ``*_sides`` functions, and
reads only its q; a caller that has only q passes ``QPoint(q, 0)``.  Given a
``PointContext`` they run on its scalar, and each H_n is made once per
``QTables`` store (``PointContext.q_parts``) and shared with every point of
that q.  ``context.value`` makes a coefficient a value, for output.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

from . import context
from .errors import InvalidInputError
from .points import QPoint
from .polynomials import LaurentPolynomial


def hermite_laurent(n: int, point: QPoint) -> LaurentPolynomial:
    """H_n as a Laurent polynomial in t with split-pair coefficients, at the
    point's q; kept in the point's store, so do not mutate it."""
    if n < 0:
        raise InvalidInputError("hermite_laurent requires n >= 0")
    ctx = context.as_context(point)

    def build() -> LaurentPolynomial:
        v, row = ctx.q_split[1], ctx.tables.scaled_row(n)
        return LaurentPolynomial(
            {2 * k - n: (b, v ** (k * (n - k))) for k, b in enumerate(row)}
        )

    return ctx.q_parts(("H", n), build)


def hermite_recurrence_sides(
    n: int, point: QPoint
) -> tuple[LaurentPolynomial, dict[int, tuple]]:
    """(H_{n+1}, {e: [t^e] of (t + 1/t) H_n - (1 - q^n) H_{n-1}}) for n >= 1,
    the right side split.

    Each [t^e] = H_n[e-1] + H_n[e+1] - (1 - q^n) H_{n-1}[e] is one
    ``context.split_sum`` of the coefficients of H_n and H_{n-1},
    with 1 - q^n as (v^n - u^n, v^n) for q = u/v, at every e +- 1 with e an
    exponent of H_n and every exponent e of H_{n-1}, so wrong-parity
    exponents reach the pairs.  A zero coefficient is left out, as a
    ``LaurentPolynomial`` leaves it out.
    """
    if n < 1:
        raise InvalidInputError("hermite_recurrence_sides requires n >= 1")
    ctx = context.as_context(point)
    lhs = hermite_laurent(n + 1, ctx)
    h_n = hermite_laurent(n, ctx).coeffs
    h_prev = hermite_laurent(n - 1, ctx).coeffs
    u, v = ctx.q_split
    v_n = v**n
    damping = (u**n - v_n, v_n)  # -(1 - q^n)
    rhs = {}
    for e in {e + s for e in h_n for s in (-1, 1)} | h_prev.keys():
        terms = [h_n[f] for f in (e - 1, e + 1) if f in h_n]
        if e in h_prev:
            terms.append(context.split_mul(damping, h_prev[e]))
        pair = context.split_sum(*terms)
        if pair[0] != 0:
            rhs[e] = pair
    return lhs, rhs


def connection_sides(n: int, t0: Fraction, point: QPoint) -> tuple[tuple, tuple]:
    """((q;q^2)_{floor((n+1)/2)} P_n(t0^2), t0^n H_n(t0)) for nonzero t0,
    each a split pair.

    t0 joins the point's scalar type (a no-op when it has it already); a
    float or a zero t0 is refused.  The left side is the split prefix
    (q; q^2)_m times the reduced pair of P_n(t0^2), unreduced.  With
    t0 = x/y, the right side sum_e H_n[e] x^{e+n} / y^{e+n} is one
    ``context.split_sum`` of the coefficient pairs, with no gcd.
    """
    if n < 0:
        raise InvalidInputError("connection_sides requires n >= 0")
    ctx = context.as_context(point)
    if type(t0) is not type(ctx.q):
        t0 = ctx.q**0 * t0
    if isinstance(t0, float) or t0 == 0:
        raise InvalidInputError("connection_sides requires an exact t0 != 0")
    at_t0 = context.PointContext(SimpleNamespace(q=ctx.q, a=t0 * t0), ctx.tables)
    odd = ctx.tables.odd_pochhammer((n + 1) // 2)
    lhs = context.split_mul(odd, at_t0.closed_form(n))
    x, y = context.split(t0)
    terms = []
    for e, (c_num, c_den) in hermite_laurent(n, ctx).items():
        k = e + n  # negative only for an H_n with exponents below -n
        x_k, y_k = (x**k, y**k) if k >= 0 else (y**-k, x**-k)
        terms.append((c_num * x_k, c_den * y_k))
    return lhs, context.split_sum(*terms)

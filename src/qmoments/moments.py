"""The moment functional of the recurrence family and its closed forms.

L is the unique linear functional on polynomials with L(1) = 1 and
L(s_k) = 0 for k >= 1.  Writing nu[n][k] = L(x^n s_k), the recurrence
x s_k = s_{k+1} + b_k s_k + lambda_k s_{k-1} turns into the table recursion

    nu[n+1][k] = nu[n][k+1] + b_k nu[n][k] + lambda_k nu[n][k-1],

with nu[0] = (1, 0, 0, ...), and the power moments are mu_n = nu[n][0].
By induction on n, nu[n][k] = 0 for k > n, and mu_N reads nu[n][k] only
for k <= N - n (a Motzkin path of length N, the combinatorial reading of
mu_N, never climbs above N/2; Flajolet, *Combinatorial aspects of
continued fractions*, Discrete Math. 32, 1980).  So the table for mu_N
keeps row n as nu[n][0..min(n, N-n)] only, a triangle of about N^2/4
entries instead of the N^2/2 of the rectangle k <= N - n, and it reads
b_k only for k <= (N-1)//2 and lambda_k only for k <= N//2.
``extend_nu`` grows that table in place; ``PointContext.moments`` keeps one
table per point and is the route every caller takes to mu_n.

``moments_via_basis`` recomputes the same moments by a different route,
expanding x^n in the s-basis by triangular back-substitution; the two must
agree entrywise, which the test suite uses as a cross-oracle.

``moment_closed_form`` evaluates the conjectured (and proved) closed form

    P_n(a) = (1 / (q;q^2)_{floor((n+1)/2)}) * sum_{k=0}^n [n k]_q a^k,

a normalized q-binomial sum that is also a rescaled continuous q-Hermite
value (see the qhermite module).  With q = u/v and a = s/t (see
``context.split``), m = ceil(n/2), M = floor(n/2) ceil(n/2) and the scaled
rows B[n][k] = v^{k(n-k)} [n k]_q (``QTables.scaled_row``), it is

    P_n = v^{m^2} sum_k B[n][k] v^{M-k(n-k)} s^k t^{n-k}
          / (v^M t^n prod_{j<m} (v^{2j+1} - u^{2j+1})),

an integer sum over an integer product for a Fraction point, so the only
gcd is the one of the final quotient.  The product is the numerator of
(q; q^2)_m = prod / v^{m^2} (``QTables.qpochhammer(1, 2, m)``).

``product_basis`` builds the even product pi_n(x) = prod_{i<n} (x^2 - a^2 q^{2i})
as an integer polynomial in x^2 over one integer,

    pi_n = prod_{i<n} (t^2 v^{2i} x^2 - s^2 u^{2i}) / (t^{2n} v^{n(n-1)}),

with one quotient per coefficient.

``product_moment_sides`` gives both sides of L(x^eps pi_n) =
(-a; q)_{2n+eps} / (q; q^2)_{n+eps}, for eps = 0 and 1 from one call; the
closed side is ``PointContext.product_moment``.
"""

from __future__ import annotations

from fractions import Fraction

from . import context, qseries, recurrence
from .errors import InvalidInputError
from .points import QPoint
from .polynomials import Polynomial


def extend_nu(rows: list[list[Fraction]], upto: int, b, lam) -> None:
    """Grow the nu-table ``rows`` in place until it covers index ``upto``.

    For the index m covered so far, ``rows[n]`` holds nu[n][0..min(n, m-n)]:
    the entries past n are 0, and mu_m reads none past m-n.  A fresh table
    is ``[[one]]``, the one of the point's scalar.  ``b(k)`` and ``lam(k)``
    supply the recurrence coefficients; the table reads b_k only for
    k <= (m-1)//2 and lambda_k only for k <= m//2.  Growing in steps gives
    the same table as building it at once.
    """
    for n in range(upto):
        if len(rows) == n + 1:
            rows.append([])
        prev, row = rows[n], rows[n + 1]
        for k in range(len(row), min(n + 1, upto - n - 1) + 1):
            if k > n:  # nu[n][k] = nu[n][k+1] = 0
                row.append(lam(k) * prev[n])
                continue
            value = b(k) * prev[k]
            if k < n:
                value += prev[k + 1]
            if k >= 1:
                value += lam(k) * prev[k - 1]
            row.append(value)


def moments_via_basis(upto: int, point: QPoint) -> tuple[Fraction, ...]:
    """Independent oracle for the moments.

    Expands x^n = sum_k c_k s_k by eliminating the leading coefficient
    against the monic s_k, top down; then mu_n = c_0.  No use of the
    nu-recursion.
    """
    if upto < 0:
        raise InvalidInputError("moments_via_basis requires upto >= 0")
    s = recurrence.s_polynomials(upto, point)
    out = []
    for n in range(upto + 1):
        coeffs = [Fraction(0)] * n + [Fraction(1)]
        for k in range(n, 0, -1):
            c = coeffs[k]
            if c == 0:
                continue
            for j, sc in enumerate(s[k].coeffs):
                coeffs[j] -= c * sc
        out.append(coeffs[0])
    return tuple(out)


def moment_closed_form(n: int, point: QPoint) -> Fraction:
    """The closed-form moment P_n(a) (normalized q-binomial sum).

    One quotient of integer sums (see the module docstring).
    """
    if n < 0:
        raise InvalidInputError("moment_closed_form requires n >= 0")
    ctx = context.as_context(point)
    v, (s, t) = ctx.q_split[1], ctx.a_split
    row = ctx.tables.scaled_row(n)
    m = (n + 1) // 2
    peak = (n // 2) * m  # M = max_k k(n-k)
    total = sum(
        row[k] * v ** (peak - k * (n - k)) * s**k * t ** (n - k) for k in range(n + 1)
    )
    odd, _ = ctx.tables.qpochhammer(1, 2, m)
    # v^{m^2 - M} = v^m for odd n, 1 for even n.
    return context.quotient(total * v ** (m * (n % 2)), t**n * odd)


def product_basis(n: int, point: QPoint) -> Polynomial:
    """The even product pi_n(x) = prod_{i=0}^{n-1} (x^2 - a^2 q^{2i}), one
    quotient per coefficient of its integer form (see the module docstring)."""
    if n < 0:
        raise InvalidInputError("product_basis requires n >= 0")
    (u, v), (s, t) = context.split(point.q), context.split(point.a)
    top = [v**0]  # by ascending power of x^2
    lead, root = t * t, s * s  # t^2 v^{2i} and s^2 u^{2i} at i = 0
    for _ in range(n):
        top = [lead * below - root * c for below, c in zip((0, *top), (*top, 0))]
        lead, root = lead * v * v, root * u * u
    den = t ** (2 * n) * v ** (n * (n - 1))
    coeffs = []
    for c in top:
        coeffs += (context.quotient(c, den), 0)
    return Polynomial(coeffs)


def product_moment_sides(n: int, point: QPoint) -> list[tuple[Fraction, Fraction]]:
    """[(direct, closed)] for eps = 0, 1: L(x^eps pi_n) by two routes.

    direct:  expand pi_n by the q-binomial theorem in the variable x^2 and
             apply the moment table termwise:
             sum_k [n k]_{q^2} (-1)^k a^{2k} q^{2 C(k,2)} mu_{2(n-k)+eps}.
    closed:  (-a; q)_{2n+eps} / (q; q^2)_{n+eps} (``PointContext.product_moment``).

    Both pairs share the row [n k]_{q^2} and the weights
    (-1)^k a^{2k} q^{2 C(k,2)}.
    """
    if n < 0:
        raise InvalidInputError("product_moment_sides requires n >= 0")
    ctx = context.as_context(point)
    mu = ctx.moments(2 * n + 1)
    q2, minus_a2 = ctx.q * ctx.q, -(ctx.a * ctx.a)
    row = ctx.tables.qbinom_row(n, 2)
    weights = [row[k] * minus_a2**k * q2 ** qseries.binom2(k) for k in range(n + 1)]
    return [
        (
            sum((w * mu[2 * (n - k) + eps] for k, w in enumerate(weights)), ctx.zero),
            ctx.product_moment(n, eps),
        )
        for eps in (0, 1)
    ]

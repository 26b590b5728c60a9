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

The table is fraction-free entry by entry.  Each nu[n][k] is a reduced
``context.split`` pair, and b_k, lambda_k enter as theirs
(``PointContext.b``, ``lam``).  An entry forms its (up to)
three products unreduced, sums them pairwise over the lcm of their
denominators and divides out one gcd at the end (``context.split_sum``).
Column 0 is left unreduced until the one ``context.quotient`` that makes
mu_n, whose reduced pair is then stored, so each mu_n costs one gcd.  A
denominator common to a whole row is not used: the denominators differ
from entry to entry, and a row's common one grows far past the reduced
size.

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

``product_basis`` builds the even product
pi_n(x) = prod_{i<n} (x^2 - a^2 q^{2i}) as an integer polynomial in x^2
over one integer,

    pi_n = prod_{i<n} (t^2 v^{2i} x^2 - s^2 u^{2i}) / (t^{2n} v^{n(n-1)}).

``product_moment_sides`` gives both sides of L(x^eps pi_n) =
(-a; q)_{2n+eps} / (q; q^2)_{n+eps}, for eps = 0 and 1 from one call; the
closed side is ``PointContext.product_moment``.  The direct side is
sum_k [n k]_{q^2} (-a^2)^k q^{2 C(k,2)} mu_{2(n-k)+eps}, with the weights
split as

    (-1)^k B2[n][k] s^{2k} u^{k(k-1)} / (t^{2k} v^{k(2n-k-1)}),

B2[n][k] = v^{2k(n-k)} [n k]_{q^2} the scaled row of base q^2
(``QTables.scaled_row(n, 2)``).  Each term is that weight times the reduced
pair of mu_{2(n-k)+eps}, formed unreduced, and the terms are summed over
the lcm of their denominators (``context.split_sum``).  Both sides stay
split pairs, which the suite runner compares with no gcd
(``context.same``); ``context.value`` makes one a value.
"""

from __future__ import annotations

from fractions import Fraction

from . import context, recurrence
from .errors import InvalidInputError
from .points import QPoint


def extend_nu(rows: list[list[tuple]], mu: list, upto: int, b, lam) -> None:
    """Grow the nu-table ``rows`` and the moments ``mu`` in place until they
    cover index ``upto``.

    Each entry is a reduced ``context.split`` pair (see the module
    docstring).  For the index m covered so far, ``rows[n]`` holds
    nu[n][0..min(n, m-n)]: the entries past n are 0, and mu_m reads none
    past m-n.  ``mu[n]`` is mu_n, made by the one ``context.quotient`` that
    also reduces nu[n][0].  A fresh table is ``[[(one, one)]]`` and fresh
    moments ``[one]``, with the ones of the pairs and of the point's scalar.
    ``b(k)`` and ``lam(k)`` supply the split recurrence coefficients; the
    table reads b_k only for k <= (m-1)//2 and lambda_k only for k <= m//2.
    Growing in steps gives the same table as building it at once.
    """
    total, split = context.split_sum, context.split
    b = list(map(b, range((upto + 1) // 2)))
    lam = [None, *map(lam, range(1, upto // 2 + 1))]
    for n in range(upto):
        if len(rows) == n + 1:
            rows.append([])
        prev, row = rows[n], rows[n + 1]
        for k in range(len(row), min(n + 1, upto - n - 1) + 1):
            if k > n:  # nu[n][k] = nu[n][k+1] = 0
                (c, d), (x, y) = lam[k], prev[n]
                row.append(total((c * x, d * y)))
                continue
            (c, d), (x, y) = b[k], prev[k]
            term = (c * x, d * y)  # b_k nu[n][k]
            if k:
                (c, d), (x, y) = lam[k], prev[k - 1]
                lower = (c * x, d * y)  # lambda_k nu[n][k-1]
                if k < n:
                    row.append(total(prev[k + 1], term, lower))
                else:
                    row.append(total(term, lower))
                continue
            if n:
                term = total(prev[1], term, reduce=False)
            value = context.quotient(*term)
            mu.append(value)
            row.append(split(value))


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


def product_basis(n: int, point: QPoint) -> tuple[list, object]:
    """The even product pi_n(x) = prod_{i=0}^{n-1} (x^2 - a^2 q^{2i}) split,
    as its integer coefficients by ascending power of x over one integer
    (see the module docstring)."""
    if n < 0:
        raise InvalidInputError("product_basis requires n >= 0")
    (u, v), (s, t) = context.split(point.q), context.split(point.a)
    top = [v**0]  # by ascending power of x^2
    lead, root = t * t, s * s  # t^2 v^{2i} and s^2 u^{2i} at i = 0
    for _ in range(n):
        top = [lead * below - root * c for below, c in zip((0, *top), (*top, 0))]
        lead, root = lead * v * v, root * u * u
    coeffs = [0] * (2 * n + 1)
    coeffs[::2] = top
    return coeffs, t ** (2 * n) * v ** (n * (n - 1))


def product_moment_sides(n: int, point: QPoint) -> list[tuple[tuple, tuple]]:
    """[(direct, closed)] for eps = 0, 1: L(x^eps pi_n) by two routes, split.

    direct:  expand pi_n by the q-binomial theorem in the variable x^2 and
             apply the moment table termwise:
             sum_k [n k]_{q^2} (-1)^k a^{2k} q^{2 C(k,2)} mu_{2(n-k)+eps}.
    closed:  (-a; q)_{2n+eps} / (q; q^2)_{n+eps} (``PointContext.product_moment``).

    Both sums share the split weights (see the module docstring).
    """
    if n < 0:
        raise InvalidInputError("product_moment_sides requires n >= 0")
    ctx = context.as_context(point)
    mu = [context.split(m) for m in ctx.moments(2 * n + 1)[: 2 * n + 2]]
    (u, v), (s, t) = ctx.q_split, ctx.a_split
    row = ctx.tables.scaled_row(n, 2)
    s2, t2 = s * s, t * t
    weights = [
        (
            (-1) ** k * row[k] * s2**k * u ** (k * (k - 1)),
            t2**k * v ** (k * (2 * n - k - 1)),
        )
        for k in range(n + 1)
    ]
    pairs = []
    for eps in (0, 1):
        terms = [
            (w_num * m_num, w_den * m_den)
            for (w_num, w_den), (m_num, m_den) in zip(weights, mu[2 * n + eps :: -2])
        ]
        direct = context.split_sum(*terms, reduce=False)
        pairs.append((direct, ctx.product_moment(n, eps)))
    return pairs

"""The moment functional of the recurrence family and its closed forms.

L is the unique linear functional on polynomials with L(1) = 1 and
L(s_k) = 0 for k >= 1.  Writing c[n][k] for the coefficient of s_k in
x^n = sum_k c[n][k] s_k, the recurrence
x s_k = s_{k+1} + b_k s_k + lambda_k s_{k-1} turns into the table recursion

    c[n+1][k] = c[n][k-1] + b_k c[n][k] + lambda_{k+1} c[n][k+1],

with c[0] = (1, 0, 0, ...), and the power moments are
mu_n = L(x^n) = c[n][0].  By induction on n, c[n][k] = 0 for k > n and
c[n][n] = 1.

Read as paths, c[n][k] sums the Motzkin paths of n steps from height 0 to
height k, a level step at height j weighted b_j and a step down from j
weighted lambda_j.  nu[n][k] = L(x^n s_k) = h_k c[n][k], with
h_k = L(s_k^2) = lambda_1 ... lambda_k, sums the same paths read from the
other end, with lambda_j on each step up to j instead: a path from 0 to k
climbs to each height j <= k once more than it steps down from it.  So
mu_n = nu[n][0] = c[n][0] by either table, as polynomials in the b_j and
lambda_j (Flajolet, *Combinatorial aspects of continued fractions*,
Discrete Math. 32, 1980; Viennot, *Une théorie combinatoire des polynômes
orthogonaux généraux*, 1983).  The entries of c lack the factor h_k of
nu[n][k], so at a full-height point they take about half its bits.

mu_N reads c[n][k] only for k <= N - n: a path of length N that is at
height k after n steps needs k more to come back to 0, so it never climbs
above N/2.  The table for mu_N keeps row n as c[n][0..min(n, N-n)] only,
a triangle of about N^2/4 entries instead of the N^2/2 of the rectangle
k <= N - n, and it reads b_k only for k <= (N-1)//2 and lambda_k only for
k <= N//2.  ``extend_moments`` grows that table in place;
``PointContext.moments`` keeps one table per point and is the route every
caller takes to mu_n.

The table is fraction-free entry by entry.  Each c[n][k] is a reduced
pair, and b_k, lambda_k enter as theirs (``PointContext.b``, ``lam``).  An
entry forms its (up to) two products unreduced and sums its (up to) three
terms in one ``context.split_sum``, pairwise over the lcm of their
denominators, and ``context.reduced`` divides out one gcd.  So each
mu_n = c[n][0] costs one gcd and no ``Fraction``.

``moment_closed_form`` evaluates the conjectured (and proved) closed form

    P_n(a) = (1 / (q;q^2)_{floor((n+1)/2)}) * sum_{k=0}^n [n k]_q a^k,

a normalized q-binomial sum that is also a rescaled continuous q-Hermite
value (see the qhermite module).  With q = u/v and a = s/t (see
``context.split``), m = ceil(n/2), M = floor(n/2) ceil(n/2) and the scaled
rows B[n][k] = v^{k(n-k)} [n k]_q (``QTables.scaled_row``), it is

    P_n = v^{m^2} sum_k B[n][k] v^{M-k(n-k)} s^k t^{n-k}
          / (v^M t^n prod_{j<m} (v^{2j+1} - u^{2j+1})),

an integer sum over an integer product for a Fraction point, reduced once
(``context.reduced``), so the only gcd is that one.  The product is the
numerator of
(q; q^2)_m = prod / v^{m^2} (``QTables.odd_pochhammer(m)``).

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

from . import context
from .errors import InvalidInputError
from .points import QPoint


def extend_moments(rows: list[list[tuple]], upto: int, b, lam) -> None:
    """Grow the power table ``rows`` in place until it covers index
    ``upto``.

    Each entry is a reduced pair (see the module docstring).  For the
    index m covered so far, ``rows[n]`` holds c[n][0..min(n, m-n)] of
    x^n = sum_k c[n][k] s_k: the entries past n are 0, and mu_m reads none
    past m-n.  mu_n is ``rows[n][0]``.  A fresh table is ``[[(one, one)]]``,
    with the ones of the pairs.  ``b(k)`` and ``lam(k)`` supply the recurrence
    coefficients as reduced pairs; the table reads b_k only for
    k <= (m-1)//2 and lambda_k only for k <= m//2.  Growing in steps gives
    the same table as building it at once.
    """
    total, reduced = context.split_sum, context.reduced
    b = list(map(b, range((upto + 1) // 2)))
    lam = [None, *map(lam, range(1, upto // 2 + 1))]
    for n in range(upto):
        if len(rows) == n + 1:
            rows.append([])
        prev, row = rows[n], rows[n + 1]
        for k in range(len(row), min(n + 1, upto - n - 1) + 1):
            # c[n+1][k] = c[n][k-1] + b_k c[n][k] + lambda_{k+1} c[n][k+1],
            # with c[n][j] = 0 for j > n (x^n and s_n are monic).
            terms = [prev[k - 1]] if k else []
            if k <= n:
                (c, d), (x, y) = b[k], prev[k]
                terms.append((c * x, d * y))
            if k < n:
                (c, d), (x, y) = lam[k + 1], prev[k + 1]
                terms.append((c * x, d * y))
            row.append(reduced(*total(*terms)))


def moment_closed_form(n: int, point: QPoint) -> tuple:
    """The closed-form moment P_n(a) (normalized q-binomial sum), a reduced
    pair.

    One reduced quotient of integer sums (see the module docstring).
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
    odd, _ = ctx.tables.odd_pochhammer(m)
    # v^{m^2 - M} = v^m for odd n, 1 for even n.
    return context.reduced(total * v ** (m * (n % 2)), t**n * odd)


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
    mu = ctx.moments(2 * n + 1)[: 2 * n + 2]
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
        direct = context.split_sum(*terms)
        pairs.append((direct, ctx.product_moment(n, eps)))
    return pairs

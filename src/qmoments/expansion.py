"""Expansion of the even product basis in the orthogonal family.

pi_n(x) = prod_{i=0}^{n-1} (x^2 - a^2 q^{2i}) expands as

    pi_n = sum_{k=0}^{2n} e_k^{(n)} s_{2n-k}(x)

with closed-form coefficients built from reciprocal-base Pochhammer products:

    e_{2k}   = (-a q^{2n-1}; 1/q)_{2k} / (q^{4n-2k-1}; 1/q^2)_k * [n k]_{q^2}
    e_{2k+1} = (1+a) (-a q^{2n-1}; 1/q)_{2k} / (q^{4n-2k-1}; 1/q^2)_{k+1}
               * [n k+1]_{q^2} * (1 - q^{2(k+1)})

Consecutive coefficients differ by short products.  With e_0 = 1, for
k = 0..n-1,

    e_{2k+1}/e_{2k}   = (1+a) (1 - q^{2n-2k}) / (1 - q^{4n-4k-1})
    e_{2k+2}/e_{2k+1} = (1 + a q^{2n-2k-1}) (1 + a q^{2n-2k-2}) (1 - q^{4n-2k-1})
                        / ((1+a) (1 - q^{2k+2}) (1 - q^{4n-4k-3}))

and ``expansion_coeffs`` grows the row by them, one ``context.reduced``
pair per coefficient, so a ``Fraction`` point pays one gcd per
coefficient.  With q = u/v, a = s/t, w = s + t, C = 4n-4k-3, i = 2n-2k-1
and j = i - 1, the ratios split as

    odd:  w (v^{i+1} - u^{i+1}) v^i / (t (v^{C+2} - u^{C+2}))
    even: (t v^i + s u^i) (t v^j + s u^j) (v^{4n-2k-1} - u^{4n-2k-1})
          / (t w v^C (v^{2k+2} - u^{2k+2}) (v^C - u^C))

Their q-only ints are shared down a fixed-q grid column
(``PointContext.q_parts``, see ``_expansion_parts``); each point adds the
parts in s and t.

Coefficients outside k = 0..2n are 0.  A row holds only e_0 .. e_{2n}; the
rule lives in ``moments.x_step``, which reads an s-basis row as 0 past its
end, and in the CLI's ``eval --what acoeff --k``.

``induction_sides`` gives the paper's induction step,
pi_{n+1} = (x^2 - a^2 q^{2n}) pi_n, in the s-basis: e^{(n+1)} against
(x^2 - a^2 q^{2n}) sum_k e_k^{(n)} s_{2n-k}, one pair per s_j.  It serves
two suites.  The induction suite checks it at index n; the expansion suite
checks it at index n + 1, on top of pi_0 = s_0 (e_0^{(0)} = 1) at index 0,
so a run that passes the indices up to n has checked
pi_n = sum_k e_k s_{2n-k} without building s_j as a polynomial in x
(see ``suites``).  ``theorem_identities`` gives the pairs that tie the two
lowest expansion coefficients to the closed-form moments.  The suite
runner compares the sides as they are (``context.same``), and
``context.value`` makes one a value.
"""

from __future__ import annotations

from . import context, moments
from .errors import InvalidInputError
from .points import QPoint


def _expansion_parts(n: int, tables) -> tuple[tuple, ...]:
    """The q-only ints of the steps of the row at level n, split with
    q = u/v: for k = 0..n-1, the odd ratio's (num, den), then
    (v^i, u^i, v^j, u^j) and the even ratio's (num, den), with the a-parts
    left out (see the module docstring)."""
    u, v = tables.q_split
    steps = []
    for k in range(n):
        i, c = 2 * n - 2 * k - 1, 4 * n - 4 * k - 3
        f, e = 4 * n - 2 * k - 1, 2 * k + 2
        odd = ((v ** (i + 1) - u ** (i + 1)) * v**i, v ** (c + 2) - u ** (c + 2))
        even = (v**f - u**f, v**c * (v**e - u**e) * (v**c - u**c))
        steps.append((odd, (v**i, u**i, v ** (i - 1), u ** (i - 1)), even))
    return tuple(steps)


def expansion_coeffs(n: int, point: QPoint) -> tuple[tuple, ...]:
    """(e_0^{(n)}, ..., e_{2n}^{(n)}), the closed-form coefficients at one
    point, each a reduced pair.

    Each coefficient is the one before it times its step ratio.  The q-only
    parts of the ratios come from ``PointContext.q_parts``, once per
    fixed-q grid column; each point adds the parts in a = s/t.
    """
    if n < 0:
        raise InvalidInputError("expansion_coeffs requires n >= 0")
    ctx = context.as_context(point)
    steps = ctx.q_parts(("expansion", n), lambda: _expansion_parts(n, ctx.tables))
    s, t = ctx.a_split
    w = s + t
    num = den = t**0
    coeffs = [(num, den)]
    for (o_num, o_den), (vi, ui, vj, uj), (e_num, e_den) in steps:
        num, den = context.reduced(w * o_num * num, t * o_den * den)
        coeffs.append((num, den))
        e_num *= (t * vi + s * ui) * (t * vj + s * uj)
        num, den = context.reduced(e_num * num, t * w * e_den * den)
        coeffs.append((num, den))
    return tuple(coeffs)


def induction_sides(n: int, point: QPoint) -> list[tuple[tuple, tuple]]:
    """[(e_k^{(n+1)}, the coefficient of s_{2n+2-k} in
    (x^2 - a^2 q^{2n}) pi_n)] for k = 0..2n+2: every pair index n adds, the
    left side a reduced pair and the right side a split pair.

    x^2 pi_n is pi_n = sum_k e_k^{(n)} s_{2n-k} stepped twice by
    ``moments.x_step``, multiplication by x through the recurrence
    x s_m = s_{m+1} + b_m s_m + lambda_m s_{m-1}; the two steps read
    b_0 .. b_{2n+1} and lambda_1 .. lambda_{2n+1}.  -a^2 q^{2n} pi_n adds
    (-s^2 u^{2n}, t^2 v^{2n}) e_{k-2}^{(n)} for k >= 2, with q = u/v and
    a = s/t.  Written out, this is the paper's five-term relation.  No sum
    is reduced (``context.split_sum``).
    """
    if n < 0:
        raise InvalidInputError("induction_sides requires n >= 0")
    ctx = context.as_context(point)
    c = ctx.expansion(n)[::-1]  # pi_n by s-degree: c[m] = e_{2n-m}
    (u, v), (s, t) = ctx.q_split, ctx.a_split
    shift = (-(s * s) * u ** (2 * n), t * t * v ** (2 * n))  # -a^2 q^{2n}
    b = list(map(ctx.b, range(2 * n + 2)))
    lam = [None, *map(ctx.lam, range(1, 2 * n + 2))]
    xc = [moments.x_step(c, k, b, lam) for k in range(2 * n + 2)]
    xxc = [moments.x_step(xc, k, b, lam) for k in range(2 * n + 3)]
    pairs = []
    for m, lhs in zip(range(2 * n + 2, -1, -1), ctx.expansion(n + 1)):
        rhs = xxc[m]
        if m <= 2 * n:
            rhs = context.split_sum(rhs, context.split_mul(shift, c[m]))
        pairs.append((lhs, rhs))
    return pairs


def theorem_identities(n: int, point: QPoint) -> list[tuple[str, object, object]]:
    """The labelled (lhs, rhs) pairs that index n adds to the main theorem,
    each side a split pair.

    (i)  e_{2n}^{(n)} = (-a;q)_{2n} / (q;q^2)_n   (the even-product moment),
    (ii) e_{2n}^{(n)} b_0 + e_{2n-1}^{(n)} lambda_1
             = (-a;q)_{2n+1} / (q;q^2)_{n+1}      (n >= 1 only),
    (iii) mu_m = P_m(a) for m = 2n and m = 2n+1.

    Indices 0..n together cover mu_m = P_m for every m <= 2n+1; the pairs
    for m < 2n belong to the earlier indices.  The product moments are the
    split ``PointContext.product_moment``, the left side of (ii) is
    L(x pi_n), entry 0 of x pi_n (``moments.x_step``), and mu_m and P_m are
    the context's reduced pairs.
    """
    if n < 0:
        raise InvalidInputError("theorem_identities requires n >= 0")
    ctx = context.as_context(point)
    table = ctx.expansion(n)
    items = [("even product constant term", table[2 * n], ctx.product_moment(n, 0))]
    if n >= 1:
        combo = moments.x_step(table[::-1], 0, [ctx.b(0)], [None, ctx.lam(1)])
        odd = ctx.product_moment(n, 1)
        items.append(("x-weighted product constant term", combo, odd))
    mu = ctx.moments(2 * n + 1)
    for m in (2 * n, 2 * n + 1):
        items.append((f"moment m={m}", mu[m], ctx.closed_form(m)))
    return items

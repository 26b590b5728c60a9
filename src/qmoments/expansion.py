"""Expansion of the even product basis in the orthogonal family.

pi_n(x) = prod_{i=0}^{n-1} (x^2 - a^2 q^{2i}) expands as

    pi_n = sum_{k=0}^{2n} e_k^{(n)} s_{2n-k}(x)

with closed-form coefficients built from reciprocal-base Pochhammer products:

    e_{2k}   = (-a q^{2n-1}; 1/q)_{2k} / (q^{4n-2k-1}; 1/q^2)_k * [n k]_{q^2}
    e_{2k+1} = (1+a) (-a q^{2n-1}; 1/q)_{2k} / (q^{4n-2k-1}; 1/q^2)_{k+1}
               * [n k+1]_{q^2} * (1 - q^{2(k+1)})

The q-only factors of a row are shared down a fixed-q grid column
(``PointContext.q_parts``), stored split into integer numerators and
denominators and built from the store's split prefixes (q; q^2)_m (see
``_expansion_parts``).  Each point grows the prefix
(-a q^{2n-1}; 1/q)_{2k} as an integer pair: with q = u/v and a = s/t, each
step multiplies its numerator by (t v^i + s u^i)(t v^j + s u^j) and its
denominator by t^2 v^i v^j (i = 2n-2k+1, j = 2n-2k), and each e_k is one
``context.reduced`` pair against its split q-only factor, so a ``Fraction``
point pays one gcd per coefficient and makes no ``Fraction``.

Coefficients outside k = 0..2n are 0 by convention.  A row holds only
e_0 .. e_{2n}, so the convention lives with the two readers that index past
it: ``induction_sides``, whose five-term relation takes e_{2n+1} and
e_{2n+2} as 0 at its top boundary, and the CLI's ``eval --what acoeff --k``.

``expansion_sides`` gives both sides of the polynomial identity, each one
integer polynomial over one denominator: pi_n from ``moments.product_basis``,
and sum_k e_k s_{2n-k} over C = lcm_k(den(e_k) L_{2n-k}), with
s_j = S_j / L_j the split family (``recurrence.extend_s``), so no term and
no compared coefficient is reduced; ``induction_sides`` both sides of the
relation that propagates the coefficients from level n to n+1 (the step
that proves the expansion by induction, one pair per k, its right side a
split pair), and ``theorem_identities`` the pairs that tie the two lowest
expansion coefficients to the closed-form moments.  The suite runner
compares the sides as they are (``context.same``), and ``context.value``
makes one a value.
"""

from __future__ import annotations

from . import context, moments
from .errors import InvalidInputError
from .points import QPoint


def _expansion_parts(n: int, tables) -> tuple[tuple, tuple, tuple]:
    """The q-only factors of the row at level n, split with q = u/v:
    ``steps[k - 1] = (v^i, u^i, v^j, u^j)`` (see the module docstring), and
    e_{2k} and e_{2k+1} / (1+a), k = 0..n, without (-a q^{2n-1}; 1/q)_{2k}
    but with its power of v, each reduced once.

    (q^{4n-2k-1}; 1/q^2)_k runs over the odd powers q^{4n-2k-1} down to
    q^{4n-4k+1}, so it is (q; q^2)_{2n-k} / (q; q^2)_{2n-2k}.  With
    (q; q^2)_m = N_m / v^{m^2}, [n k]_{q^2} = B[k] / v^{2k(n-k)} and the
    v^{4n-4l+1} of each step l <= k, the powers of v collect into

        e_{2k}         = N_{2n-2k} B[k] / (N_{2n-k} v^{k(2n-k-1)}),
        e_{2k+1}/(1+a) = N_{2n-2k-1} B[k+1] (v^{2k+2} - u^{2k+2}) v^{2n-2k-1}
                         / (N_{2n-k} v^{k(2n-k-1)}).
    """
    u, v = tables.q_split
    row = tables.scaled_row(n, 2)
    numerators = [tables.odd_pochhammer(m)[0] for m in range(2 * n + 1)]
    steps, even, odd = [], [], []
    for k in range(n + 1):
        if k:
            i, j = 2 * n - 2 * k + 1, 2 * n - 2 * k
            steps.append((v**i, u**i, v**j, u**j))
        den = numerators[2 * n - k] * v ** (k * (2 * n - k - 1))
        num = numerators[2 * n - 2 * k] * row[k]
        even.append(context.reduced(num, den))
        if k < n:
            e = 2 * k + 2
            num = numerators[2 * n - 2 * k - 1] * row[k + 1] * (v**e - u**e)
            num *= v ** (2 * n - 2 * k - 1)
            odd.append(context.reduced(num, den))
    return tuple(steps), tuple(even), tuple(odd)


def expansion_coeffs(n: int, point: QPoint) -> tuple[tuple, ...]:
    """(e_0^{(n)}, ..., e_{2n}^{(n)}), the closed-form coefficients at one
    point, each a reduced pair.

    The q-only factors come from ``PointContext.q_parts``, once per fixed-q
    grid column; each point adds (-a q^{2n-1}; 1/q)_{2k} and the 1+a.
    """
    if n < 0:
        raise InvalidInputError("expansion_coeffs requires n >= 0")
    ctx = context.as_context(point)
    steps, even, odd = ctx.q_parts(
        ("expansion", n), lambda: _expansion_parts(n, ctx.tables)
    )
    s, t = ctx.a_split
    w = s + t
    coeffs = []
    # (-a q^{2n-1}; 1/q)_{2k} = num / (t_power v^...), with t_power = t^{2k}
    # and the power of v kept in the q-only factors.
    num = t_power = t**0
    for k in range(n + 1):
        if k:
            vi, ui, vj, uj = steps[k - 1]
            num *= (t * vi + s * ui) * (t * vj + s * uj)
            t_power *= t * t
        e_num, e_den = even[k]
        coeffs.append(context.reduced(num * e_num, t_power * e_den))
        if k < n:
            o_num, o_den = odd[k]
            coeffs.append(context.reduced(w * num * o_num, t * t_power * o_den))
    return tuple(coeffs)


def expansion_sides(n: int, point: QPoint) -> tuple[tuple, tuple]:
    """(pi_n, sum_k e_k s_{2n-k}), each split as its 2n + 1 integer
    coefficients by ascending power of x over one denominator (see the
    module docstring).  pi_n is monic of degree 2n, so these are all the
    coefficients either side has."""
    if n < 0:
        raise InvalidInputError("expansion_sides requires n >= 0")
    ctx = context.as_context(point)
    row = ctx.expansion(n)
    family = ctx.s_family(2 * n)
    den, scales = context.common_denominator(
        [e_den * family[2 * n - k][1] for k, (_, e_den) in enumerate(row)]
    )
    num = [0] * (2 * n + 1)
    for k, ((e_num, _), scale) in enumerate(zip(row, scales)):
        weight = e_num * scale
        for i, c in enumerate(family[2 * n - k][0]):
            num[i] += weight * c
    return moments.product_basis(n, ctx), (num, den)


def induction_sides(n: int, point: QPoint) -> list[tuple[tuple, tuple]]:
    """[(e_k^{(n+1)}, the five-term relation's right side from level n)] for
    k = 0..2n+2: every pair index n adds, the left side a reduced pair and
    the right side a split pair.

    With e_j = e_j^{(n)} and m = 2n - k, the relation reads

        e_k^{(n+1)} = e_k + (b_{m+2} + b_{m+1}) e_{k-1}
                      + (-a^2 q^{2n} + lambda_{m+3} + b_{m+2}^2 + lambda_{m+2}) e_{k-2}
                      + (b_{m+3} + b_{m+2}) lambda_{m+3} e_{k-3}
                      + lambda_{m+4} lambda_{m+3} e_{k-4}.

    A weight enters only when its coefficient's index lies in 0..2n
    (outside it the coefficient is 0), so b_0 .. b_{2n+1} and
    lambda_1 .. lambda_{2n+1} are all it reads: b_{-1}, beside
    e_{2n+1}^{(n)} = 0 at k = 2n+2, never enters.
    lambda_0 multiplies s_{-1} = 0 inside the recurrence, so the relation is
    exact at its k = 2n+2 boundary only with lambda_0 = 0.

    Both sides are fraction-free: e_j, b_i and lambda_i enter as their
    reduced pairs, -a^2 q^{2n} as (-s^2 u^{2n}, t^2 v^{2n}) with
    q = u/v and a = s/t.  Each term's weight and the (up to five) terms of
    one k are summed over the lcm of their denominators
    (``context.split_sum``, with no gcd), one pair per k.
    """
    if n < 0:
        raise InvalidInputError("induction_sides requires n >= 0")
    ctx = context.as_context(point)
    add, mul = context.split_sum, context.split_mul
    lower = ctx.expansion(n)
    (u, v), (s, t) = ctx.q_split, ctx.a_split
    unit = v**0  # the int 1 at a Fraction point, so the sums stay integer
    zero = (unit * 0, unit)
    shift = (-(s * s) * u ** (2 * n), t * t * v ** (2 * n))  # -a^2 q^{2n}
    b = list(map(ctx.b, range(2 * n + 2)))
    lam = [zero, *map(ctx.lam, range(1, 2 * n + 2))]
    pairs = []
    for k, lhs in enumerate(ctx.expansion(n + 1)):
        m = 2 * n - k
        terms = [lower[k]] if k <= 2 * n else []
        if 1 <= k <= 2 * n + 1:
            terms.append(mul(add(b[m + 2], b[m + 1]), lower[k - 1]))
        if k >= 2:
            weight = add(shift, lam[m + 3])
            weight = add(weight, add(mul(b[m + 2], b[m + 2]), lam[m + 2]))
            terms.append(mul(weight, lower[k - 2]))
        if k >= 3:
            terms.append(mul(add(b[m + 3], b[m + 2]), lam[m + 3], lower[k - 3]))
        if k >= 4:
            terms.append(mul(lam[m + 4], lam[m + 3], lower[k - 4]))
        pairs.append((lhs, context.split_sum(*terms)))
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
    split ``PointContext.product_moment``, the left side of (ii) is one
    ``context.split_sum`` of the reduced coefficient pairs, and mu_m and
    P_m are the context's reduced pairs.
    """
    if n < 0:
        raise InvalidInputError("theorem_identities requires n >= 0")
    ctx = context.as_context(point)
    table = ctx.expansion(n)
    items = [("even product constant term", table[2 * n], ctx.product_moment(n, 0))]
    if n >= 1:
        mul = context.split_mul
        combo = context.split_sum(
            mul(table[2 * n], ctx.b(0)), mul(table[2 * n - 1], ctx.lam(1))
        )
        odd = ctx.product_moment(n, 1)
        items.append(("x-weighted product constant term", combo, odd))
    mu = ctx.moments(2 * n + 1)
    for m in (2 * n, 2 * n + 1):
        items.append((f"moment m={m}", mu[m], ctx.closed_form(m)))
    return items

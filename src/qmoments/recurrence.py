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

The n = 0 even branch is evaluated literally: q^{2n-1} there is q^{-1}
(q = 0 is excluded by admissibility), the (1 - q^n) factors vanish, and the
whole expression collapses to b_0 = (1+a)/(1-q).  Negative exponents also
occur in q^{n-1} at n = 0 and in q^{n-2} at n = 1; the integer parts below
handle every exponent the same way.

lambda_0 is never defined: s_{-1} = 0 removes it from the recurrence, and
``coeff_lambda(0, ...)`` is an input error.

Each coefficient is split into its q-only factors (``_b_parts``,
``_lambda_parts``) and a short expression in the split a = s/t over them
(``_b_from``, ``_lambda_from``, given the context's ``a_split``):

    b_n      = lead / (1+a) * (a p - r (1+a)^2),
    lambda_n = (1+a)^2 c                                   (n even),
    lambda_n = -(a+q^n)(a+q^{n-1})(1+a q^{n-1})(1+a q^n)
               / ((1+a)^2 (1-q^{2n-1})^2)                  (n odd),

where lead is the (1-q)/((1-q^{2n+1})(1-q^{2n-1})) prefactor with its sign,
p and r the two inner q-polynomials (r with its power of q), and c the
even lambda_n without its (1+a)^2.  ``coeff_b`` and ``coeff_lambda`` take
the parts from ``PointContext.q_parts``, which keeps them in the context's
``QTables``, the store of its q, so a fixed-q grid column computes them
once and each of its points pays only the a-part.

The parts are integer formulas in the split q = u/v (``context.split``),
built with no ``Fraction`` operation, one factor at a time:

    e >= 0:  q^e = u^e / v^e,         1 - q^e = (v^e - u^e) / v^e,
    e < 0:   q^e = v^{-e} / u^{-e},   1 - q^e = (u^{-e} - v^{-e}) / u^{-e},

and the products, quotients and the one sum inside r are taken over these
(numerator, denominator) pairs as the formulas group them
(``context.split_mul``, ``split_div``, ``split_sum``): a quotient is the
cross pair, the sum goes over the lcm of its two int denominators, and
nothing else is cancelled.  With lead = L/D', p = p_num/p_den,
r = r_num/r_den, a = s/t and w = s + t (so 1 + a = w/t):

    b_n      = L (s t P - R w^2) / (D t w),
               P = p_num r_den,  R = r_num p_den,  D = D' p_den r_den,
    lambda_n = w^2 c_num / (t^2 c_den)                     (n even),
    lambda_n = -(s v^n + t u^n)(s v^{n-1} + t u^{n-1})
               (t v^{n-1} + s u^{n-1})(t v^n + s u^n)
               / (t^2 w^2 d)                                (n odd),
               d = (v^{2n-1} - u^{2n-1})^2 = v^{4n-2} (1-q^{2n-1})^2.

For a ``Fraction`` point every part is an integer, and ``context.reduced``
makes the coefficient one reduced integer pair at the end: one gcd per
coefficient, none in the parts, and no ``Fraction``.

``s_polynomials`` runs the recurrence itself on coefficient values, for
``eval --what s`` and the tests' oracles.  No identity reads it: the
suites multiply by x in the s-basis instead (``moments.x_step``).

The degree budgets (``degrees.budget_b``, ``degrees.budget_lambda``) run
this same code over degree-tracking values.  There ``split`` gives
(x, x**0), so v has degree 0, a pair sum goes over the product of the
denominators and cross-multiplies exactly as a ``Budget`` sum does, and
``reduced`` divides, so the pair's quotient has the degrees of the
unsplit formula and no budget moves.  The parts cancel
no common factor for the same reason: a cancelled factor of q would lower
a budget and with it the grid.
Every part runs over any field-like scalar type: it needs only +, -, *,
/ and integer powers.
"""

from __future__ import annotations

from . import context
from .errors import InvalidInputError
from .points import QPoint
from .polynomials import Polynomial


def _q_power(e, u, v):
    """q^e split, with q = u/v: (u^e, v^e), or (v^-e, u^-e) for e < 0."""
    return (u**e, v**e) if e >= 0 else (v**-e, u**-e)


def _one_minus(e, u, v):
    """1 - q^e split, with q = u/v: (v^e - u^e, v^e), or (u^-e - v^-e, u^-e)
    for e < 0."""
    if e >= 0:
        return v**e - u**e, v**e
    return u**-e - v**-e, u**-e


def _b_parts(n, q):
    """(L, P, R, D): b_n's q-only factors, split so that with a = s/t and
    w = s + t, b_n = L (s t P - R w^2) / (D t w).  lead, p and r are the
    formulas of the module docstring, grouped as written there."""
    u, v = context.split(q)
    add, mul, div = context.split_sum, context.split_mul, context.split_div

    def om(e):  # 1 - q^e
        return _one_minus(e, u, v)

    def qp(e):  # q^e
        return _q_power(e, u, v)

    lead = div(om(1), mul(om(2 * n + 1), om(2 * n - 1)))
    if n % 2 == 0:
        lead = (-lead[0], lead[1])
        p = div(mul(om(2 * n - 1), om(n + 1), om(n)), om(1))
        inner = add(div(om(n - 1), om(1)), div(mul(qp(n + 1), om(n)), om(1)))
        r = mul(qp(n), inner)
    else:
        p = div(mul(om(2 * n + 1), om(n - 1), om(n)), om(1))
        inner = add(div(om(n), om(1)), div(mul(qp(n - 2), om(n + 1)), om(1)))
        r = mul(qp(n + 1), inner)
    return lead[0], p[0] * r[1], r[0] * p[1], lead[1] * p[1] * r[1]


def _b_from(parts, a_split):
    lead, p, r, den = parts
    s, t = a_split
    w = s + t
    return context.reduced(lead * (s * t * p - r * w * w), den * t * w)


def _lambda_parts(n, q):
    """The q-only factors of lambda_n, split (q = u/v): (c_num, c_den) for
    even n; (u^n, v^n, u^{n-1}, v^{n-1}, d) for odd n, with
    d = (v^{2n-1} - u^{2n-1})^2 = v^{4n-2} (1-q^{2n-1})^2."""
    u, v = context.split(q)
    if n % 2:
        d = v ** (2 * n - 1) - u ** (2 * n - 1)
        return u**n, v**n, u ** (n - 1), v ** (n - 1), d * d
    odd = _one_minus(2 * n - 1, u, v)
    c = context.split_mul(
        _q_power(n, u, v), _one_minus(n - 1, u, v), _one_minus(n, u, v)
    )
    return context.split_div(c, context.split_mul(odd, odd))


def _lambda_from(parts, a_split):
    s, t = a_split
    w = s + t
    if len(parts) == 2:
        c_num, c_den = parts
        return context.reduced(w * w * c_num, t * t * c_den)
    un, vn, un1, vn1, d = parts
    top = (s * vn + t * un) * (s * vn1 + t * un1)
    top *= (t * vn1 + s * un1) * (t * vn + s * un)
    return context.reduced(-top, t * t * w * w * d)


def coeff_b(n: int, point: QPoint) -> tuple:
    """The diagonal recurrence coefficient b_n, n >= 0, as a reduced pair."""
    if n < 0:
        raise InvalidInputError("coeff_b requires n >= 0")
    ctx = context.as_context(point)
    return _b_from(ctx.q_parts(("b", n), lambda: _b_parts(n, ctx.q)), ctx.a_split)


def coeff_lambda(n: int, point: QPoint) -> tuple:
    """The off-diagonal recurrence coefficient lambda_n, n >= 1, as a
    reduced pair."""
    if n < 1:
        raise InvalidInputError(
            "coeff_lambda requires n >= 1 (lambda_0 never enters the recurrence)"
        )
    ctx = context.as_context(point)
    parts = ctx.q_parts(("lambda", n), lambda: _lambda_parts(n, ctx.q))
    return _lambda_from(parts, ctx.a_split)


def s_polynomials(upto: int, point: QPoint) -> list[Polynomial]:
    """The monic polynomials s_0, ..., s_upto generated by the recurrence
    s_{j+1} = (x - b_j) s_j - lambda_j s_{j-1}, on coefficient values."""
    if upto < 0:
        raise InvalidInputError("s_polynomials requires upto >= 0")
    ctx = context.as_context(point)
    one = ctx.q_split[1] ** 0
    family = [[context.value((one, one))]]
    for j in range(upto):
        b = context.value(ctx.b(j))
        nxt = [0, *family[j]]  # x s_j
        for i, c in enumerate(family[j]):
            nxt[i] -= b * c
        if j:
            lam = context.value(ctx.lam(j))
            for i, c in enumerate(family[j - 1]):
                nxt[i] -= lam * c
        family.append(nxt)
    return [Polynomial(coeffs) for coeffs in family]

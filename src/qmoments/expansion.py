"""Expansion of the even product basis in the orthogonal family.

pi_n(x) = prod_{i=0}^{n-1} (x^2 - a^2 q^{2i}) expands as

    pi_n = sum_{k=0}^{2n} e_k^{(n)} s_{2n-k}(x)

with closed-form coefficients built from reciprocal-base Pochhammer products:

    e_{2k}   = (-a q^{2n-1}; 1/q)_{2k} / (q^{4n-2k-1}; 1/q^2)_k * [n k]_{q^2}
    e_{2k+1} = (1+a) (-a q^{2n-1}; 1/q)_{2k} / (q^{4n-2k-1}; 1/q^2)_{k+1}
               * [n k+1]_{q^2} * (1 - q^{2(k+1)})

Out-of-range coefficients are 0 by convention; the five-term induction
relation below needs that convention at its boundaries.

``expansion_sides`` gives both sides of the polynomial identity,
``induction_sides`` both sides of the relation that propagates the
coefficients from level n to n+1 (the step that proves the expansion by
induction), and ``theorem_identities`` the pairs that tie the two lowest
expansion coefficients to the closed-form moments.  Whether the sides agree
is decided by the suite runner (``suites``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import context, moments
from .errors import InvalidInputError
from .points import QPoint
from .polynomials import Polynomial

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class ExpansionTable:
    """Coefficients e_0^{(n)} .. e_{2n}^{(n)}; indexing outside the range yields 0."""

    n: int
    coeffs: tuple[Fraction, ...]

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k <= 2 * self.n:
            return self.coeffs[k]
        return _ZERO

    def __len__(self) -> int:
        return len(self.coeffs)


def expansion_coeffs(n: int, point: QPoint) -> ExpansionTable:
    """Evaluate the closed-form expansion coefficients at one point."""
    if n < 0:
        raise InvalidInputError("expansion_coeffs requires n >= 0")
    q, a = point.q, point.a
    tables = context.as_context(point).tables
    q2 = q * q
    row = tables.qbinom_row(n, q2)
    q_powers = tables.powers(q, 2 * n)
    coeffs = [_ZERO] * (2 * n + 1)
    shared = _ONE  # (-a q^{2n-1}; 1/q)_{2k}, grown with k
    for k in range(n + 1):
        if k:
            shared *= (1 + a * q_powers[2 * n - 2 * k + 1]) * (
                1 + a * q_powers[2 * n - 2 * k]
            )
        # (q^{4n-2k-1}; 1/q^2)_j runs over the odd powers q^{4n-2k-1} down to
        # q^{4n-2k-2j+1}, so it equals (q; q^2)_{2n-k} / (q; q^2)_{2n-k-j}.
        top = tables.pochhammer(q, q2, 2 * n - k)
        coeffs[2 * k] = shared * tables.pochhammer(q, q2, 2 * n - 2 * k) / top * row[k]
        if k < n:
            coeffs[2 * k + 1] = (
                (1 + a)
                * shared
                * tables.pochhammer(q, q2, 2 * n - 2 * k - 1)
                / top
                * row[k + 1]
                * (1 - q_powers[2 * (k + 1)])
            )
    return ExpansionTable(n=n, coeffs=tuple(coeffs))


def expansion_sides(n: int, point: QPoint) -> tuple[Polynomial, Polynomial]:
    """(pi_n, sum_k e_k s_{2n-k}) as polynomials, for coefficientwise comparison."""
    if n < 0:
        raise InvalidInputError("expansion_sides requires n >= 0")
    ctx = context.as_context(point)
    table = ctx.expansion(n)
    s = ctx.s_polynomials(2 * n)
    rhs = Polynomial.zero()
    for k in range(2 * n + 1):
        rhs = rhs + s[2 * n - k] * table[k]
    return moments.product_basis(n, point), rhs


def induction_sides(n: int, k: int, point: QPoint) -> tuple[Fraction, Fraction]:
    """(e_k^{(n+1)}, the five-term relation's right side from level n).

    The relation expresses e_k^{(n+1)} through e_{k-4}^{(n)} .. e_k^{(n)}
    with weights built from b and lambda at subscripts 2n-k+1 .. 2n-k+4.
    Terms whose expansion coefficient vanishes are skipped before their
    weights are evaluated.  The one subscript below the domain, b_{-1} at
    k = 2n+2, multiplies e_{2n+1}^{(n)} = 0 and so is never evaluated.
    lambda_0 multiplies s_{-1} = 0 inside the recurrence, so the relation is
    exact at its k = 2n+2 boundary only with lambda_0 = 0.
    """
    if n < 0:
        raise InvalidInputError("induction_sides requires n >= 0")
    if not 0 <= k <= 2 * n + 2:
        raise InvalidInputError(f"k = {k} is outside 0..{2 * n + 2}")
    ctx = context.as_context(point)
    lower = ctx.expansion(n)
    q, a = point.q, point.a
    m = 2 * n - k
    lhs = ctx.expansion(n + 1)[k]
    rhs = -(a * a) * q ** (2 * n) * lower[k - 2] + lower[k]
    b = ctx.b

    def lam(i: int) -> Fraction:
        return ctx.lam(i) if i else _ZERO

    weighted = (
        (lower[k - 1], lambda: b(m + 2) + b(m + 1)),
        (lower[k - 2], lambda: lam(m + 3) + b(m + 2) ** 2 + lam(m + 2)),
        (lower[k - 3], lambda: b(m + 3) * lam(m + 3) + lam(m + 3) * b(m + 2)),
        (lower[k - 4], lambda: lam(m + 4) * lam(m + 3)),
    )
    for multiplier, weight in weighted:
        if multiplier != 0:
            rhs += weight() * multiplier
    return lhs, rhs


def theorem_identities(
    n: int, point: QPoint
) -> list[tuple[str, Fraction, Fraction]]:
    """The labelled (lhs, rhs) pairs whose equality constitutes the main theorem.

    (i)  e_{2n}^{(n)} = (-a;q)_{2n} / (q;q^2)_n   (the even-product moment),
    (ii) e_{2n}^{(n)} b_0 + e_{2n-1}^{(n)} lambda_1
             = (-a;q)_{2n+1} / (q;q^2)_{n+1}      (n >= 1 only),
    (iii) mu_m = P_m(a) for every m <= 2n+1.
    """
    if n < 0:
        raise InvalidInputError("theorem_identities requires n >= 0")
    q, a = point.q, point.a
    ctx = context.as_context(point)
    tables = ctx.tables
    table = ctx.expansion(n)
    q2 = q * q
    items = [
        (
            "even product constant term",
            table[2 * n],
            tables.pochhammer(-a, q, 2 * n) / tables.pochhammer(q, q2, n),
        )
    ]
    if n >= 1:
        combo = table[2 * n] * ctx.b(0) + table[2 * n - 1] * ctx.lam(1)
        items.append(
            (
                "x-weighted product constant term",
                combo,
                tables.pochhammer(-a, q, 2 * n + 1) / tables.pochhammer(q, q2, n + 1),
            )
        )
    mu = ctx.moments(2 * n + 1)
    for m in range(2 * n + 2):
        items.append((f"moment m={m}", mu[m], ctx.closed_form(m)))
    return items

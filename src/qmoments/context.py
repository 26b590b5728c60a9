"""Per-point evaluation context: the shared tables, each built once per point.

Every identity rests on the same few quantities at one point (q, a):
q-binomial rows, the Pochhammer prefixes (q^c; q^d)_m and (-a; q)_m, b_n and
lambda_n, the monic family s_0..s_N, the moments mu_0..mu_N, the closed
forms P_m, the expansion coefficients and the LDL^T factors of the Hankel
matrix (P_{i+j}).  A ``PointContext`` grows each table lazily and exactly,
so a suite computes every value once per point instead of once per use.

Scalars.  A context takes q and a as they are, from any object holding
them: ``Fraction`` for a ``QPoint`` (validated once, when it was built), or
anything else with +, -, *, / and integer powers, such as a GF(p) element
or a sympy expression.  No scalar literal enters a table and no scalar is a
dict key, so a scalar need not even be hashable.

Split pairs.  The tables keep a value x as a pair (num, den) with
x = num / den (``split``); the zeros and ones of pairs are made from v**0,
never from a context's ``one``, which is a Fraction at a ``Fraction``
point.

* At a ``Fraction`` point a pair is two ints, den != 0, reduced or plainly
  unreduced, den of either sign.  Sums go over the lcm of the denominators
  (``split_sum``, ``common_denominator``), a stored entry is reduced by one
  gcd (``reduce_content``, ``split_sum``), and products and quotients pay
  none: fraction-free evaluation (Bareiss, Math. Comp. 22, 1968).
* For any other scalar, ``split`` gives (x, one) and ``split_div`` divides,
  so every pair a table grows stays over one and does not swell over a
  field of rational functions.

Each quantity has one form.  b_n and lambda_n are read as pairs only
(``PointContext.b``, ``lam``), and each identity side has one function,
which returns it as a value or a pair.  A pair becomes a value only
through ``value`` (one ``Fraction``, one gcd, by ``quotient``).  Two
sides, each a value or a pair, are compared with ``same``: it
cross-multiplies and reduces nothing, and a zero denominator raises
``ZeroDivisionError``, as ``Fraction(n, 0)`` does, so a pole never passes.

Scope.  A ``PointContext`` is a plain object: q, a and the tables there.
Every function that takes a point reuses a context's tables; given a
``QPoint`` it builds a throwaway one (``as_context``), with the same
results.  The context keeps what reads a; its ``QTables``, the store of one
q, keeps what depends on q alone: the scalar one, the scaled q-binomial
rows of each base q^d, the prefixes (q^c; q^d)_m, and the q-only parts,
the H_n and the identity pairs (``QTables.parts``, read through
``PointContext.q_parts``).  Every key is made of ints, so one store serves
every point of its q, and a context refuses a store of another q.  A random
point owns its store; a grid column shares one.  Nothing is cached at
module level.

Each value is filled through a module attribute (``recurrence.coeff_b``,
``recurrence.coeff_lambda``, ``moments.moment_closed_form``,
``expansion.expansion_coeffs``, ``hankel.extend_ldl``,
``hankel.exact_determinant``), and the q-only pairs through
``qhermite.hermite_laurent`` and ``qseries.qvandermonde_limit_sides``, so
replacing one of those attributes reaches every check made through a
context.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from . import expansion, hankel, moments, recurrence
from .errors import InvalidInputError
from .points import QPoint


def split(x) -> tuple:
    """x as (numerator, denominator): the integers of a Fraction, else
    ``(x, one)`` (so ``(x, 1)`` for an int).  With ``quotient``,
    ``common_denominator``, ``reduce_content``, ``split_sum`` and
    ``split_div``, the one place where the scalar types part ways."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return x, x**0


def quotient(num, den):
    """num / den for values made from ``split`` parts: one Fraction (one gcd)
    when they are integers."""
    return Fraction(num, den) if isinstance(den, int) else num / den


def value(side):
    """A side as a value: a split pair's ``quotient``, anything else as it
    is."""
    return quotient(*side) if type(side) is tuple else side


def same(x, y) -> bool:
    """Whether two sides, each a value or a split pair, are equal.

    A pair is compared by cross-multiplication, with no gcd, against the
    other side's pair (a value is ``split``); a zero denominator raises
    ``ZeroDivisionError``, as ``Fraction(n, 0)`` does, so a pole never
    passes.  Two values are compared as they are.
    """
    if type(x) is not tuple:
        if type(y) is not tuple:
            return x == y
        x = split(x)
    elif type(y) is not tuple:
        y = split(y)
    (x0, x1), (y0, y1) = x, y
    if x1 == 0 or y1 == 0:
        raise ZeroDivisionError("a compared side has a zero denominator")
    return x0 * y1 == y0 * x1


def common_denominator(dens: list) -> tuple:
    """(M, [M / d for d in dens]): the lcm of int denominators and each
    one's cofactor.  Any other scalar's denominators are ``one``, so M is
    their product and nothing is reduced."""
    if all(isinstance(d, int) for d in dens):
        m = math.lcm(*dens)
        return m, [m // d for d in dens]
    m = math.prod(dens)
    return m, [m / d for d in dens]


def reduce_content(coeffs: list, den) -> tuple:
    """(coeffs, den) with g = gcd(den, *coeffs) divided out of int parts;
    any other scalar's are returned as they are."""
    if isinstance(den, int):
        g = math.gcd(den, *coeffs)
        if g != 1:
            return [c // g for c in coeffs], den // g
    return coeffs, den


def split_sum(*pairs: tuple, reduce: bool = True) -> tuple:
    """The sum of split pairs.  For int denominators it is taken pairwise
    over the lcm of the denominators, then the sign is put on the numerator
    and, with ``reduce``, one gcd is divided out, so the pair is reduced.
    Any other scalar's pairs are summed over the product of their
    denominators, with no reduction."""
    num, den = pairs[0]
    if isinstance(den, int):
        for x, y in pairs[1:]:
            g = math.gcd(den, y)
            if g == 1:
                num, den = num * y + x * den, den * y
            else:
                y //= g
                num, den = num * y + x * (den // g), den * y
        if den < 0:
            num, den = -num, -den
        if reduce:
            g = math.gcd(num, den)
            if g != 1:
                num, den = num // g, den // g
        return num, den
    for x, y in pairs[1:]:
        num, den = num * y + x * den, den * y
    return num, den


def split_add(x: tuple, y: tuple) -> tuple:
    """x + y for split pairs, over the product of their denominators."""
    return x[0] * y[1] + y[0] * x[1], x[1] * y[1]


def split_mul(*pairs: tuple) -> tuple:
    """The product of split pairs."""
    num, den = pairs[0]
    for x, y in pairs[1:]:
        num, den = num * x, den * y
    return num, den


def split_div(x: tuple, y: tuple) -> tuple:
    """x / y for split pairs: over the product of the cross terms for int
    pairs, else divided out, as (value, one)."""
    num, den = x[0] * y[1], x[1] * y[0]
    if isinstance(den, int):
        return num, den
    return num / den, den**0


class _ScaledRows:
    """The rows B[n][k] = v^{k(n-k)} [n k]_base of one base u/v, each kept
    once built, and the powers of u and v that the scaled q-Pascal rule
    reads."""

    __slots__ = ("u_powers", "v_powers", "rows")

    def __init__(self, u, v) -> None:
        one = v**0
        self.u_powers = [one, u]
        self.v_powers = [one, v]
        self.rows = [[one]]

    def row(self, n: int) -> list:
        u_powers, v_powers, rows = self.u_powers, self.v_powers, self.rows
        while len(rows) <= n:
            top, prev = len(rows), rows[-1]
            row = [
                v_powers[top - k] * prev[k - 1] + u_powers[k] * prev[k]
                for k in range(1, top)
            ]
            rows.append([prev[0], *row, prev[0]])
            u_powers.append(u_powers[-1] * u_powers[1])
            v_powers.append(v_powers[-1] * v_powers[1])
        return rows[n]


class QTables:
    """The values that depend on q alone: the scalar ``one``, and, grown on
    demand, scaled q-binomial rows of each base q^d, split prefixes
    (q^c; q^d)_m and the q-only parts and pairs, each keyed by integers
    only.
    """

    def __init__(self, q) -> None:
        self.q = q
        self.one = q**0
        self.q_split = split(q)
        self._rows: dict[int, _ScaledRows] = {}
        self._prefixes: dict[tuple[int, int], list[tuple]] = {}
        self.parts: dict[tuple, object] = {}

    def scaled_row(self, n: int, d: int = 1) -> list:
        """B[n][0], ..., B[n][n] with B[n][k] = v^{dk(n-k)} [n k]_{q^d} and
        (u, v) = ``split(q)``: integers for a Fraction q.

        Built row by row with the scaled q-Pascal rule
        B[n][k] = v^{d(n-k)} B[n-1][k-1] + u^{dk} B[n-1][k]; every row is
        kept.
        """
        rows = self._rows.get(d)
        if rows is None:
            u, v = self.q_split
            rows = self._rows[d] = _ScaledRows(u**d, v**d)
        return rows.row(n)

    def qpochhammer(self, c: int, d: int, m: int) -> tuple:
        """(q^c; q^d)_m split, as (prod_{j<m} (v^e - u^e), v^{cm + d C(m,2)})
        with e = c + dj >= 0; the prefix of each (c, d) is kept."""
        prefix = self._prefixes.get((c, d))
        if prefix is None:
            unit = self.q_split[1] ** 0
            prefix = self._prefixes[c, d] = [(unit, unit)]
        u, v = self.q_split
        while len(prefix) <= m:
            num, den = prefix[-1]
            e = c + d * (len(prefix) - 1)
            v_power = v**e
            prefix.append((num * (v_power - u**e), den * v_power))
        return prefix[m]


class PointContext:
    """A point (q, a) together with the tables the identities share there.

    ``point`` is any object with fields q and a; they are not validated
    again (see the module docstring).  ``tables`` may be a ``QTables`` of
    the same q shared with other points (a fixed-q grid column); by default
    the context owns a fresh one.
    """

    def __init__(self, point: QPoint, tables: QTables | None = None) -> None:
        if tables is None:
            tables = QTables(point.q)
        elif tables.q is not point.q and tables.q != point.q:
            raise InvalidInputError(
                f"the tables of q = {tables.q} cannot serve a point with q = {point.q}"
            )
        self.q = point.q
        self.a = point.a
        self.one = tables.one
        self.tables = tables
        self.q_split = tables.q_split
        self.a_split = split(point.a)
        unit = self.q_split[1] ** 0  # 1 for a Fraction q, else one
        self._a_prefix = [(unit, unit)]  # (-a; q)_m split, m < len
        # n -> split(b_n), and the same for lambda_n; made on first read.
        self._b: dict[int, tuple] = {}
        self._lam: dict[int, tuple] = {}
        self._s: list[tuple] = [([unit], unit)]  # s_j split, as (S_j, L_j)
        self._nu: list[list[tuple]] = [[(unit, unit)]]  # nu[n][k] split
        self._mu: tuple[Fraction, ...] = (self.one,)
        self._closed: dict[int, Fraction] = {}
        self._expansion: dict[int, tuple[Fraction, ...]] = {}
        self._ldl: list[list[tuple]] = []
        self._minors: list[Fraction] = []
        self._lam_prefix = self.one  # lambda_1 ... lambda_k, k = len - 1 below
        self._lam_powers: list[Fraction] = [self.one]

    def q_parts(self, key: tuple, build: Callable[[], object]) -> object:
        """``build()``, made once per key, such as ``("b", n)``, in this q's
        ``QTables`` and shared with every point of that store."""
        parts = self.tables.parts.get(key)
        if parts is None:
            parts = self.tables.parts[key] = build()
        return parts

    def a_pochhammer(self, m: int) -> tuple:
        """(-a; q)_m split, as (prod_{j<m} (t v^j + s u^j), t^m v^{C(m,2)})
        with q = u/v and a = s/t; the prefix is kept."""
        prefix = self._a_prefix
        if len(prefix) <= m:
            (u, v), (s, t) = self.q_split, self.a_split
            num, den = prefix[-1]
            for j in range(len(prefix) - 1, m):
                t_v = t * v**j
                num *= t_v + s * u**j
                den *= t_v
                prefix.append((num, den))
        return prefix[m]

    def product_moment(self, n: int, eps: int) -> tuple:
        """(-a; q)_{2n+eps} / (q; q^2)_{n+eps}, the closed form of
        L(x^eps pi_n), split."""
        return split_div(
            self.a_pochhammer(2 * n + eps), self.tables.qpochhammer(1, 2, n + eps)
        )

    def _coefficient(self, table: dict, fill: Callable, n: int) -> tuple:
        """``split(fill(n, self))``, kept after the first read; ``fill`` is
        the ``recurrence`` attribute read at that call."""
        pair = table.get(n)
        if pair is None:
            pair = table[n] = split(fill(n, self))
        return pair

    def b(self, n: int) -> tuple:
        """b_n, n >= 0, split."""
        return self._coefficient(self._b, recurrence.coeff_b, n)

    def lam(self, n: int) -> tuple:
        """lambda_n, n >= 1, split."""
        return self._coefficient(self._lam, recurrence.coeff_lambda, n)

    def s_family(self, upto: int) -> list[tuple]:
        """(S_0, L_0), ..., (S_upto, L_upto), with s_j = S_j / L_j (see
        ``recurrence.extend_s``; the list may run longer; do not mutate it)."""
        recurrence.extend_s(self._s, upto, self.b, self.lam)
        return self._s

    def moments(self, upto: int) -> tuple[Fraction, ...]:
        """mu_0, ..., mu_m for some m >= upto."""
        if upto < 0:
            raise InvalidInputError("moments requires upto >= 0")
        if len(self._mu) <= upto:
            mu = list(self._mu)
            moments.extend_nu(self._nu, mu, upto, self.b, self.lam)
            self._mu = tuple(mu)
        return self._mu

    def closed_form(self, m: int) -> Fraction:
        """The closed-form moment P_m(a)."""
        if m not in self._closed:
            self._closed[m] = moments.moment_closed_form(m, self)
        return self._closed[m]

    def expansion(self, n: int) -> tuple[Fraction, ...]:
        """The expansion coefficients (e_0^{(n)}, ..., e_{2n}^{(n)})."""
        if n not in self._expansion:
            self._expansion[n] = expansion.expansion_coeffs(n, self)
        return self._expansion[n]

    def hankel_det(self, n: int) -> Fraction:
        """det(P_{i+j}(a)) for 0 <= i, j <= n, the leading minor H_n."""
        hankel.extend_ldl(self._ldl, self._minors, n, self.closed_form)
        if n < len(self._minors):
            return self._minors[n]
        # Past a zero pivot: the full matrix, eliminated with row pivoting.
        return hankel.exact_determinant(
            [[self.closed_form(i + j) for j in range(n + 1)] for i in range(n + 1)]
        )

    def lambda_power_product(self, n: int) -> Fraction:
        """prod_{i=1}^{n} lambda_i^{n+1-i}, n >= 0."""
        powers = self._lam_powers
        while len(powers) <= n:
            self._lam_prefix *= value(self.lam(len(powers)))
            powers.append(powers[-1] * self._lam_prefix)
        return powers[n]


def as_context(point: QPoint) -> PointContext:
    """``point`` itself if it is a context, else a fresh one for one call."""
    return point if isinstance(point, PointContext) else PointContext(point)

"""Per-point evaluation context: the shared tables, each built once per point.

Every identity rests on the same few quantities at one point (q, a):
q-binomial rows, the Pochhammer prefixes (q; q^2)_m and (-a; q)_m, b_n and
lambda_n, the moments mu_0..mu_N with the coefficients c[n][k] of
x^n = sum_k c[n][k] s_k that make them, the closed forms P_m with the
Rogers-Szegő prefix G_m that makes them, the expansion coefficients and
the pairs of the induction step, the LDL^T factors of the Hankel matrix
(P_{i+j}) and the norms lambda_1 ... lambda_j.  A ``PointContext``
grows each table lazily and exactly, so a suite computes every value once
per point instead of once per use.

Scalars.  A context takes q and a as they are, from any object holding
them: ``Fraction`` for a ``QPoint`` (validated once, when it was built), or
anything else with +, -, *, / and integer powers, such as a GF(p) element
or a sympy expression.  No scalar literal enters a table and no scalar is a
dict key, so a scalar need not even be hashable.

Split pairs.  The tables keep a value x as a pair (num, den) with
x = num / den (``split``).  The ones of pairs are made as x**0 from the
point's own scalars (``_one`` where x may be zero), so a one is the int 1
at a ``Fraction`` point and the field's one elsewhere.  At a ``Fraction``
point a pair is two ints, den != 0 and of either sign.  Each pair
operation has one meaning, fraction-free (Bareiss, Math. Comp. 22, 1968):

* ``split_sum`` adds and never reduces: int denominators pairwise over
  their lcm, any other scalar's over their product.
* ``split_mul`` multiplies and ``split_div`` gives the cross pair
  (x0 y1, x1 y0), for every scalar.
* ``reduced`` is the one divide: one gcd and the sign on the numerator
  for int parts, (num / den, one) for any other scalar.  Every stored
  entry is made by it, so a pair a table grows over a field stays over
  one and does not swell.

Each quantity has one form, a reduced pair made at its source: b_n,
lambda_n, e_k, mu_n, P_m, each c[n][k], the entries of the Hankel factors,
the pivots d_n and the norms lambda_1 ... lambda_j; the coefficients of
H_n are the reduced pairs of the scaled q-binomial rows.  Each identity
side has one function, which returns it as a value or a pair.  A pair
becomes a value only through ``value`` (one ``Fraction``), for
counterexample text and output.  Two sides, each a value or a pair, are
compared with ``same``: equal denominators compare their numerators,
others cross-multiply, nothing is reduced, and a zero denominator raises
``ZeroDivisionError``, as ``Fraction(n, 0)`` does, so a pole never passes.

Scope.  A ``PointContext`` is a plain object: q, a and the tables there.
Every function that takes a point reuses a context's tables; given a
``QPoint`` it builds a throwaway one (``as_context``), with the same
results.  The context keeps what reads a, among it two integer prefixes:
(-a; q)_m (``a_pochhammer``) and G_m = v^{floor(m^2/4)} t^m h_m(a|q), the
Rogers-Szegő polynomial cleared of denominators, grown by its three-term
recurrence (``rogers_szego``; see ``moments``), from which each P_m is one
reduced pair.  It also keeps the pairs of the induction step from each
level (``induction``), which the induction suite reads at index n and the
expansion suite at index n + 1, so a run of both makes each step once.
Its ``QTables``, the store of one q, keeps what depends on q alone: the
scaled q-binomial rows of each base q^d, the prefix (q; q^2)_m, and the
q-only parts, the H_n and a token per q-only identity key that marks the
first point to reach it (``QTables.parts``, read through
``PointContext.q_parts``; no entry holds a context).  Every key is made of
ints, so one store serves every point of its q, and a context refuses a
store of another q.  A random point owns its store; a grid column shares
one.  Nothing is cached at module level.

Each value is filled through a module attribute (``recurrence.coeff_b``,
``recurrence.coeff_lambda``, ``moments.moment_closed_form``,
``expansion.expansion_coeffs``, ``expansion.induction_sides``,
``hankel.extend_ldl``, ``hankel.exact_determinant``), and the q-only
pairs through ``qhermite.hermite_laurent`` and
``qseries.qvandermonde_limit_sides``, so replacing one of those attributes
reaches every check made through a context.  A P_m filled wrong reaches
no other index, since each is read off the prefix G, not off another P.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from . import expansion, hankel, moments, recurrence
from .errors import InvalidInputError
from .points import QPoint


def _one(x):
    """The one of x's scalar type, as x**0.  A zero x is moved to 1 + x
    first, since sympy's fields raise on 0**0 (and their 1 + x keeps the
    field's type); a degree ``Budget`` never equals 0, so its one stays
    ``Budget()``."""
    return (x if x != 0 else 1 + x) ** 0


def split(x) -> tuple:
    """x as (numerator, denominator): the integers of a Fraction, else
    ``(x, one)`` (so ``(x, 1)`` for an int).  With ``reduced``, ``value``
    and ``split_sum``, the one place where the scalar types part ways."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return x, _one(x)


def reduced(num, den) -> tuple:
    """num / den as a reduced pair: for int parts, one gcd divided out and
    the sign on the numerator (a zero den raises ``ZeroDivisionError``, as
    ``Fraction(n, 0)`` does); for any other scalar, ``(num / den, one)``."""
    if isinstance(den, int):
        if den <= 0:
            if not den:
                raise ZeroDivisionError("a reduced pair needs a nonzero denominator")
            num, den = -num, -den
        g = math.gcd(num, den)
        if g != 1:
            return num // g, den // g
        return num, den
    x = num / den
    return x, _one(x)


def value(side):
    """A side as a value: a split pair (num, den) as num / den, one
    ``Fraction`` (one gcd) for int parts; anything else as it is."""
    if type(side) is not tuple:
        return side
    num, den = side
    return Fraction(num, den) if isinstance(den, int) else num / den


def same(x, y) -> bool:
    """Whether two sides, each a value or a split pair, are equal.

    A pair is compared against the other side's pair (a value is
    ``split``) by its numerator when the denominators are equal, as two
    reduced pairs of one value are, else by cross-multiplication, with no
    gcd either way; a zero denominator raises ``ZeroDivisionError``, as
    ``Fraction(n, 0)`` does, so a pole never passes.  Two values are
    compared as they are.
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
    if x1 == y1:
        return x0 == y0
    return x0 * y1 == y0 * x1


def split_sum(*pairs: tuple) -> tuple:
    """The sum of split pairs, never reduced: pairwise over the lcm of int
    denominators, else over the product of the denominators.  A stored
    entry is ``reduced(*split_sum(...))``."""
    num, den = pairs[0]
    if isinstance(den, int):
        for x, y in pairs[1:]:
            g = math.gcd(den, y)
            if g == 1:
                num, den = num * y + x * den, den * y
            else:
                y //= g
                num, den = num * y + x * (den // g), den * y
        return num, den
    for x, y in pairs[1:]:
        num, den = num * y + x * den, den * y
    return num, den


def split_mul(*pairs: tuple) -> tuple:
    """The product of split pairs."""
    num, den = pairs[0]
    for x, y in pairs[1:]:
        num, den = num * x, den * y
    return num, den


def split_div(x: tuple, y: tuple) -> tuple:
    """x / y for split pairs, as the cross pair (x0 y1, x1 y0)."""
    return x[0] * y[1], x[1] * y[0]


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
    """The values that depend on q alone, grown on demand: scaled
    q-binomial rows of each base q^d, the split prefix (q; q^2)_m and the
    q-only parts and pairs, each keyed by integers only.
    """

    def __init__(self, q) -> None:
        self.q = q
        self.q_split = split(q)
        self._rows: dict[int, _ScaledRows] = {}
        unit = self.q_split[1] ** 0
        self._odd_prefix = [(unit, unit)]  # (q; q^2)_m split, m < len
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

    def odd_pochhammer(self, m: int) -> tuple:
        """(q; q^2)_m split, as (prod_{j<m} (v^{2j+1} - u^{2j+1}), v^{m^2});
        the prefix is kept."""
        prefix = self._odd_prefix
        u, v = self.q_split
        while len(prefix) <= m:
            num, den = prefix[-1]
            e = 2 * len(prefix) - 1
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
        self.tables = tables
        self.q_split = tables.q_split
        self.a_split = split(point.a)
        unit = self.q_split[1] ** 0  # 1 for a Fraction q, else one
        self._a_prefix = [(unit, unit)]  # (-a; q)_m split, m < len
        s, t = self.a_split
        self._rogers_szego = [unit, s + t]  # G_m, m < len (``rogers_szego``)
        # n -> b_n as a reduced pair, and the same for lambda_n; made on first read.
        self._b: dict[int, tuple] = {}
        self._lam: dict[int, tuple] = {}
        # x^n = sum_k c[n][k] s_k, row n as c[n][k] split, mu_n = c[n][0]
        # (moments.extend_moments)
        self._powers: list[list[tuple]] = [[(unit, unit)]]
        self._closed: dict[int, tuple] = {}
        self._expansion: dict[int, tuple[tuple, ...]] = {}
        self._steps: dict[int, list[tuple[tuple, tuple]]] = {}
        self._ldl: list[list[tuple]] = []  # row n: L[n][0..n-1], then d_n
        self._norms: list[tuple] = [(unit, unit)]  # lambda_1 ... lambda_j

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

    def rogers_szego(self, m: int):
        """G_m = v^{floor(m^2/4)} t^m h_m(a|q), the Rogers-Szegő polynomial
        h_m(a|q) = sum_k [m k]_q a^k cleared of denominators, with q = u/v and
        a = s/t: G_0 = 1, G_1 = s + t and

            G_{j+1} = v^{floor((j+1)/2)} (s + t) G_j - s t (v^j - u^j) G_{j-1}

        (see ``moments``); the prefix is kept."""
        prefix = self._rogers_szego
        if len(prefix) <= m:
            (u, v), (s, t) = self.q_split, self.a_split
            w, st = s + t, s * t
            for j in range(len(prefix) - 1, m):
                step = v ** ((j + 1) // 2) * w * prefix[j]
                prefix.append(step - st * (v**j - u**j) * prefix[j - 1])
        return prefix[m]

    def product_moment(self, n: int, eps: int) -> tuple:
        """(-a; q)_{2n+eps} / (q; q^2)_{n+eps}, the closed form of
        L(x^eps pi_n), split."""
        return split_div(
            self.a_pochhammer(2 * n + eps), self.tables.odd_pochhammer(n + eps)
        )

    def _coefficient(self, table: dict, fill: Callable, n: int) -> tuple:
        """``fill(n, self)``, kept after the first read; ``fill`` is the
        module attribute read at that call."""
        pair = table.get(n)
        if pair is None:
            pair = table[n] = fill(n, self)
        return pair

    def b(self, n: int) -> tuple:
        """b_n, n >= 0, as a reduced pair."""
        return self._coefficient(self._b, recurrence.coeff_b, n)

    def lam(self, n: int) -> tuple:
        """lambda_n, n >= 1, as a reduced pair."""
        return self._coefficient(self._lam, recurrence.coeff_lambda, n)

    def moments(self, upto: int) -> tuple[tuple, ...]:
        """mu_0, ..., mu_upto as reduced pairs, mu_n = c[n][0] of the power
        table (``moments.extend_moments``)."""
        if upto < 0:
            raise InvalidInputError("moments requires upto >= 0")
        rows = self._powers
        if len(rows) <= upto:
            moments.extend_moments(rows, upto, self.b, self.lam)
        return tuple(row[0] for row in rows[: upto + 1])

    def closed_form(self, m: int) -> tuple:
        """The closed-form moment P_m(a), a reduced pair."""
        return self._coefficient(self._closed, moments.moment_closed_form, m)

    def expansion(self, n: int) -> tuple[tuple, ...]:
        """The expansion coefficients (e_0^{(n)}, ..., e_{2n}^{(n)}), reduced
        pairs."""
        return self._coefficient(self._expansion, expansion.expansion_coeffs, n)

    def induction(self, n: int) -> list[tuple[tuple, tuple]]:
        """The pairs of the induction step from level n
        (``expansion.induction_sides``), kept: the induction suite reads them
        at index n and the expansion suite at index n + 1."""
        return self._coefficient(self._steps, expansion.induction_sides, n)

    def ldl(self, n: int) -> list[list[tuple]]:
        """The bordered LDL^T rows of the Hankel matrix (P_{i+j}), row j
        ending in the pivot d_j (``hankel.extend_ldl``), grown to cover index
        n or to a zero pivot below it; the list may run longer (do not mutate
        it)."""
        hankel.extend_ldl(self._ldl, n, self.closed_form)
        return self._ldl

    def norm(self, n: int) -> tuple:
        """lambda_1 ... lambda_n = L(s_n^2), n >= 0, a reduced pair."""
        norms = self._norms
        while len(norms) <= n:
            norms.append(reduced(*split_mul(norms[-1], self.lam(len(norms)))))
        return norms[n]


def as_context(point: QPoint) -> PointContext:
    """``point`` itself if it is a context, else a fresh one for one call."""
    return point if isinstance(point, PointContext) else PointContext(point)

"""Per-point evaluation context: the shared tables, each built once per point.

Every identity rests on the same few quantities at one point (q, a):
q-binomial rows, the Pochhammer prefixes (q^c; q^d)_m and (-a; q)_m, the
recurrence coefficients b_n / lambda_n, the monic family s_0..s_N, the
moments mu_0..mu_N, the closed-form moments P_m, the expansion
coefficients, and both sides of the Hankel identity: the LDL^T factors of
(P_{i+j}), bordered by one row per index (``hankel.extend_ldl``), with the
leading minors H_n = d_0 ... d_n (past a zero pivot H_n comes from
``hankel.exact_determinant`` of the full matrix), and the products
prod_{i<=n} lambda_i^{n+1-i}, each the one before times
lambda_1 ... lambda_n.  A ``PointContext`` grows each table lazily and
exactly, so a suite computes every value once per point instead of once
per use.

Scalars.  A context takes q and a as they are, from any object holding
them, and every table runs on that scalar type: ``Fraction`` for a
``QPoint`` (validated once, when it was built), or anything else with
+, -, *, / and integer powers, such as a GF(p) element or a sympy symbol.
Its zero and one are ``q * 0`` and ``q ** 0``, computed once per store
(``QTables``) and read by every context of that store; no ``Fraction``
literal enters a table, and no scalar is ever a dict key, so a scalar need
not even be hashable.

Fraction-free evaluation.  ``split`` writes a scalar x as (numerator,
denominator): the two integers of a ``Fraction``, or ``(x, one)`` for any
other scalar.  A ``QTables`` splits its q = u/v once, and a context splits
a = s/t once, when it is built.  For a base u/v (q^d = u^d / v^d) the
rows are scaled,

    B[n][k] = v^{k(n-k)} [n k]_base,

and grown by the q-Pascal rule (Gasper-Rahman, *Basic Hypergeometric
Series*) with the same scaling,

    B[n][k] = v^{n-k} B[n-1][k-1] + u^k B[n-1][k],

so for a ``Fraction`` base every entry is an integer and no step pays a gcd
(the idea of fraction-free elimination; Bareiss, Math. Comp. 22, 1968).
The same holds beyond the rows: the closed forms and the q-binomial
theorem sides are integer sums over an integer denominator, the Pochhammer
prefixes are integer pairs, and b_n, lambda_n (``recurrence``) and the
expansion rows (``expansion``) are integer expressions in s, t over split
q-only parts, with a = s/t.  The q-only parts of b_n and lambda_n are
themselves integer formulas in u and v, and the five-term relation of
``expansion.induction_sides`` sums its split terms over the lcm of their
integer denominators.  Each s_j of the family is an integer coefficient
list over one integer (``recurrence``), and both sides of the expansion
are integer polynomials over one denominator each (``expansion``).  The
nu-table of the moments, the direct side of the product moments
(``moments``) and the bordered LDL^T factors (``hankel``) keep each entry
as its own reduced pair: the entry's products are formed unreduced and
summed by ``split_sum``, pairwise over the lcm of their denominators, with
one gcd divided out at the end.  A denominator common to a whole row would
grow far past the reduced size, since the denominators differ from entry
to entry.  The context keeps the split pair of each b_n and lambda_n in
one entry with its value, made on first read (``b``/``b_split``,
``lam``/``lam_split``), for the nu-table, the s_j family and the induction
relation.  Pairs are combined by ``split_add``, ``split_mul`` and
``split_div``, with no gcd, by ``split_sum``, or over an lcm
(``common_denominator``) with the content gcd divided out
(``reduce_content``); their zeros and ones are made from v**0 (1 for a
``Fraction`` q), never from a context's ``zero``/``one``, which are
Fractions and would turn an integer sum back into ``Fraction`` arithmetic.
``quotient`` makes each value one ``Fraction`` at the end; over any other
scalar the same code runs with v = t = one (every denominator one, an lcm
their product, nothing reduced) and ends in ``num / den``.
``qseries.qbinom`` and ``qseries.pochhammer`` are left as they were: the
tests use them as the independent oracle for these tables.

Scope.  A ``PointContext`` is a plain object: q, a and the tables there.
Every function that takes a point reuses a context's tables; given a
``QPoint`` (or any object with q and a) it builds a throwaway one
(``as_context``), with the same results.  The suites build one context per
point and share it among every suite and index.  The context keeps the
prefix (-a; q)_m of its a; its ``QTables`` holds what depends on q alone:

* the scalars zero and one;
* the scaled q-binomial rows of each base q^d, keyed by d;
* the prefixes (q^c; q^d)_m, keyed by (c, d);
* the q-only parts (``QTables.parts``, read through
  ``PointContext.q_parts``): the factors of b_n and lambda_n
  (``recurrence._b_parts``, ``recurrence._lambda_parts``) and of the
  expansion coefficients at level n (``expansion._expansion_parts``),
  each stored split into integers, keyed by their name and n;
* the q-only identity pairs (also ``QTables.parts``): the labelled
  palindromicity, coefficient-count and three-term-recurrence pairs of
  the hermite suite at index n, and the q-Vandermonde pair of the lemmas
  suite (``suites``), keyed by ("hermite", n) and ("q-Vandermonde", n).

Every key is made of ints, so one store serves every point of its q (a
fixed-q grid column), and a context refuses a store of another q.  The
rule is the same in both modes: a random point owns its store and pays for
its q-only work once, and a grid column pays for it once for all of its
points.  Nothing is cached at module level, so memory is bounded by what
one point (or one column) needs.

Each value is filled through a module attribute (``recurrence.coeff_b``,
``recurrence.coeff_lambda``, ``moments.moment_closed_form``,
``expansion.expansion_coeffs``, ``hankel.extend_ldl``,
``hankel.exact_determinant``), so replacing one of those attributes reaches
every check made through a context.  The q-only parts sit beneath those
attributes, so a replaced one still reaches every point of a column.  The
q-only pairs are built through ``qhermite.hermite_laurent``,
``qhermite.hermite_recurrence_sides`` and
``qseries.qvandermonde_limit_sides`` once per store, so a replaced one
reaches every column, and the runner still compares every pair at every
point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from . import expansion, hankel, moments, recurrence
from .errors import InvalidInputError
from .points import QPoint
from .polynomials import Polynomial

def split(x) -> tuple:
    """x as (numerator, denominator): the integers of a Fraction, else
    ``(x, one)`` (so ``(x, 1)`` for an int).  With ``quotient``,
    ``common_denominator``, ``reduce_content`` and ``split_sum``, the one
    place where the scalar types part ways."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return x, x**0


def quotient(num, den):
    """num / den for values made from ``split`` parts: one Fraction (one gcd)
    when they are integers."""
    return Fraction(num, den) if isinstance(den, int) else num / den


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
    """x / y for split pairs."""
    return x[0] * y[1], x[1] * y[0]


class _ScaledRows:
    """The rows B[n][k] = v^{k(n-k)} [n k]_base of one base u/v, each kept
    once built, and the powers of u and v that the scaled q-Pascal rule
    reads.

    Each row is a slot ``[B[n], [n .]_base or None]``: the quotient row is
    made on first read and kept with its row, since the q-Hermite sides
    read one row up to five times.
    """

    __slots__ = ("v", "u_powers", "v_powers", "rows")

    def __init__(self, u, v) -> None:
        one = v**0
        self.v = v
        self.u_powers = [one, u]
        self.v_powers = [one, v]
        self.rows = [[[one], None]]

    def slot(self, n: int) -> list:
        u_powers, v_powers, rows = self.u_powers, self.v_powers, self.rows
        while len(rows) <= n:
            top, prev = len(rows), rows[-1][0]
            row = [
                v_powers[top - k] * prev[k - 1] + u_powers[k] * prev[k]
                for k in range(1, top)
            ]
            rows.append([[prev[0], *row, prev[0]], None])
            u_powers.append(u_powers[-1] * u_powers[1])
            v_powers.append(v_powers[-1] * v_powers[1])
        return rows[n]


class QTables:
    """The values that depend on q alone: the scalars ``zero`` and ``one``,
    and, grown on demand, scaled q-binomial rows of each base q^d, split
    prefixes (q^c; q^d)_m and the q-only parts and pairs, each keyed by
    integers only.
    """

    def __init__(self, q) -> None:
        self.q = q
        self.zero = q * 0
        self.one = q**0
        self.q_split = split(q)
        self._rows: dict[int, _ScaledRows] = {}
        self._prefixes: dict[tuple[int, int], list[tuple]] = {}
        self.parts: dict[tuple, object] = {}

    def _row_slot(self, n: int, d: int) -> tuple[_ScaledRows, list]:
        rows = self._rows.get(d)
        if rows is None:
            u, v = self.q_split
            rows = self._rows[d] = _ScaledRows(u**d, v**d)
        return rows, rows.slot(n)

    def scaled_row(self, n: int, d: int = 1) -> list:
        """B[n][0], ..., B[n][n] with B[n][k] = v^{dk(n-k)} [n k]_{q^d} and
        (u, v) = ``split(q)``: integers for a Fraction q.

        Built row by row with the scaled q-Pascal rule
        B[n][k] = v^{d(n-k)} B[n-1][k-1] + u^{dk} B[n-1][k]; every row is
        kept.
        """
        return self._row_slot(n, d)[1][0]

    def qbinom_row(self, n: int, d: int = 1) -> list[Fraction]:
        """[n 0]_{q^d}, ..., [n n]_{q^d}, each B[n][k] / v^{dk(n-k)} (see
        ``scaled_row``)."""
        rows, slot = self._row_slot(n, d)
        if slot[1] is None:
            v = rows.v
            slot[1] = [quotient(b, v ** (k * (n - k))) for k, b in enumerate(slot[0])]
        return slot[1]

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
        self.zero = tables.zero
        self.one = tables.one
        self.tables = tables
        self.q_split = tables.q_split
        self.a_split = split(point.a)
        unit = self.q_split[1] ** 0  # 1 for a Fraction q, else one
        self._a_prefix = [(unit, unit)]  # (-a; q)_m split, m < len
        # n -> (b_n, split(b_n)), and the same for lambda_n; made on first read.
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

    def product_moment(self, n: int, eps: int) -> Fraction:
        """(-a; q)_{2n+eps} / (q; q^2)_{n+eps}, the closed form of L(x^eps pi_n)."""
        a_num, a_den = self.a_pochhammer(2 * n + eps)
        q_num, q_den = self.tables.qpochhammer(1, 2, n + eps)
        return quotient(a_num * q_den, a_den * q_num)

    def b(self, n: int) -> Fraction:
        """b_n, n >= 0."""
        entry = self._b.get(n)
        if entry is None:
            value = recurrence.coeff_b(n, self)
            entry = self._b[n] = value, split(value)
        return entry[0]

    def lam(self, n: int) -> Fraction:
        """lambda_n, n >= 1."""
        entry = self._lam.get(n)
        if entry is None:
            value = recurrence.coeff_lambda(n, self)
            entry = self._lam[n] = value, split(value)
        return entry[0]

    def b_split(self, n: int) -> tuple:
        """``split(b_n)``, kept beside the value."""
        entry = self._b.get(n)
        if entry is None:
            value = recurrence.coeff_b(n, self)
            entry = self._b[n] = value, split(value)
        return entry[1]

    def lam_split(self, n: int) -> tuple:
        """``split(lambda_n)``, kept beside the value."""
        entry = self._lam.get(n)
        if entry is None:
            value = recurrence.coeff_lambda(n, self)
            entry = self._lam[n] = value, split(value)
        return entry[1]

    def s_family(self, upto: int) -> list[tuple]:
        """(S_0, L_0), ..., (S_upto, L_upto), with s_j = S_j / L_j (see
        ``recurrence.extend_s``; the list may run longer; do not mutate it)."""
        recurrence.extend_s(self._s, upto, self.b_split, self.lam_split)
        return self._s

    def s_polynomials(self, upto: int) -> list[Polynomial]:
        """s_0, ..., s_upto as ``Polynomial``s, one quotient per coefficient."""
        return [
            Polynomial(quotient(c, den) for c in coeffs)
            for coeffs, den in self.s_family(upto)[: upto + 1]
        ]

    def moments(self, upto: int) -> tuple[Fraction, ...]:
        """mu_0, ..., mu_m for some m >= upto."""
        if upto < 0:
            raise InvalidInputError("moments requires upto >= 0")
        if len(self._mu) <= upto:
            mu = list(self._mu)
            moments.extend_nu(self._nu, mu, upto, self.b_split, self.lam_split)
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
            self._lam_prefix *= self.lam(len(powers))
            powers.append(powers[-1] * self._lam_prefix)
        return powers[n]


def as_context(point: QPoint) -> PointContext:
    """``point`` itself if it is a context, else a fresh one for one call."""
    return point if isinstance(point, PointContext) else PointContext(point)

"""Per-point evaluation context: the shared tables, each built once per point.

Every identity rests on the same few quantities at one point (q, a):
q-binomial rows, Pochhammer prefixes, the recurrence coefficients
b_n / lambda_n, the monic family s_0..s_N, the moments mu_0..mu_N, the
closed-form moments P_m, the expansion coefficients, and both sides of the
Hankel identity: the LDL^T factors of (P_{i+j}), bordered by one row per
index (``hankel.extend_ldl``), with the leading minors H_n = d_0 ... d_n
(past a zero pivot H_n comes from ``hankel.exact_determinant`` of the
full matrix), and the products prod_{i<=n} lambda_i^{n+1-i}, each the
one before times lambda_1 ... lambda_n.  A ``PointContext`` grows each
table lazily and exactly, so a suite computes every value once per point
instead of once per use.

Scalars.  A context takes q and a as they are, from any object holding
them, and every table runs on that scalar type: ``Fraction`` for a
``QPoint`` (validated once, when it was built), or anything else with
+, -, *, / and integer powers, such as a GF(p) element or a sympy symbol.
Its zero and one are ``q * 0`` and ``q ** 0``, computed once per context
(and once per ``QTables`` entry); no ``Fraction`` literal enters a table.

Fraction-free evaluation.  ``split`` writes a scalar x as (numerator,
denominator): the two integers of a ``Fraction``, or ``(x, one)`` for any
other scalar.  A context splits q and a once, when it is built, and
``QTables`` splits each base once.  For base = u/v the rows are scaled,

    B[n][k] = v^{k(n-k)} [n k]_base,

and grown by the q-Pascal rule (Gasper-Rahman, *Basic Hypergeometric
Series*) with the same scaling,

    B[n][k] = v^{n-k} B[n-1][k-1] + u^k B[n-1][k],

so for a ``Fraction`` base every entry is an integer and no step pays a gcd
(the idea of fraction-free elimination; Bareiss, Math. Comp. 22, 1968).
The same holds beyond the rows: the closed forms and the q-binomial
theorem sides are integer sums over an integer denominator, and b_n,
lambda_n (``recurrence``) and the expansion rows (``expansion``) are
integer expressions in s, t over split q-only parts, with a = s/t.
``quotient`` makes each one ``Fraction`` at the end; over any other scalar
the same code runs with v = t = one and ends in ``num / den``.
``QTables.qbinom_row`` reads [n k] = B[n][k] / v^{k(n-k)}, one exact
division per entry.  ``qseries.qbinom`` and
``qseries.pochhammer`` are left as they were: the tests use them as the
independent oracle for these tables.

Scope.  A ``PointContext`` is a plain object: q, a and the tables there.
Every function that takes a point reuses a context's tables; given a
``QPoint`` (or any object with q and a) it builds a throwaway one
(``as_context``), with the same results.  The suites build one context per
point and share it among every suite and index.
A ``QTables`` store holds what several points may share:

* the powers of each base;
* every scaled q-binomial row of each base, each kept once built;
* the Pochhammer prefixes of each (start, base);
* the q-only parts (``QTables.parts_at``, read through
  ``PointContext.q_parts``): the factors of b_n and lambda_n
  (``recurrence._b_parts``, ``recurrence._lambda_parts``) and of the
  expansion coefficients at level n (``expansion._expansion_parts``),
  each stored split into integers, keyed by q, then by their name and n.
  The integer powers of u and v they hold are taken from ``split(q)``
  directly, never from ``powers``: an int there shares its key with an
  equal Fraction base (at q = 2, ``powers(2, .)`` is the Fraction list).

A value in the store depends only on its key, so one store may serve
every point of a fixed-q grid column, each adding only its short part in a.
The prefixes (-a; q)_m of ``theorem_identities`` and
``product_moment_sides`` are keyed by their start -a, so a column's store
also gains one per point.  Nothing is cached at module level: all functions
stay pure, and memory is bounded by what one point (or one column) needs.

Each value is filled through a module attribute (``recurrence.coeff_b``,
``recurrence.coeff_lambda``, ``moments.moment_closed_form``,
``expansion.expansion_coeffs``, ``hankel.extend_ldl``,
``hankel.exact_determinant``), so replacing one of those attributes reaches
every check made through a context.  The q-only parts sit beneath those
attributes, so a replaced one still reaches every point of a column.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from . import expansion, hankel, moments, recurrence
from .errors import InvalidInputError
from .points import QPoint
from .polynomials import Polynomial

def split(x) -> tuple:
    """x as (numerator, denominator): the integers of a Fraction, else
    ``(x, one)`` (so ``(x, 1)`` for an int).  With ``quotient``, the one
    place where the scalar types part ways."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return x, x**0


def quotient(num, den):
    """num / den for values made from ``split`` parts: one Fraction (one gcd)
    when they are integers."""
    return Fraction(num, den) if isinstance(den, int) else num / den


class _ScaledRows:
    """The rows B[n][k] = v^{k(n-k)} [n k]_base of one base u/v, each kept
    once built, and the powers of u and v that the scaled q-Pascal rule
    reads.  Those are kept here, not in ``QTables.powers``: an int u or v
    would share its key with an equal Fraction base there.

    Each row is a slot ``[B[n], [n .]_base or None]``: the quotient row is
    made on first read and kept with its row, since the q-Hermite sides
    read one row up to five times.
    """

    __slots__ = ("v", "u_powers", "v_powers", "rows")

    def __init__(self, base) -> None:
        u, v = split(base)
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
    """Powers, scaled q-binomial rows, Pochhammer prefixes and q-only parts,
    grown on demand.

    Rows are keyed by their base, prefixes by ``(start, base)`` and parts by
    q; nothing else enters a value, so the store is valid for any point.
    """

    def __init__(self) -> None:
        self._powers: dict[Fraction, list[Fraction]] = {}
        self._rows: dict[Fraction, _ScaledRows] = {}
        self._prefixes: dict[tuple[Fraction, Fraction], list[Fraction]] = {}
        self._parts: dict[Fraction, dict[tuple, object]] = {}

    def parts_at(self, q: Fraction) -> dict[tuple, object]:
        """The q-only parts at q, keyed by name and index (see
        ``PointContext.q_parts``); every point with this q shares them."""
        return self._parts.setdefault(q, {})

    def powers(self, base: Fraction, upto: int) -> list[Fraction]:
        """base^0, base^1, ... covering at least base^upto."""
        powers = self._powers.get(base)
        if powers is None:
            powers = self._powers[base] = [base**0]
        while len(powers) <= upto:
            powers.append(powers[-1] * base)
        return powers

    def _row_slot(self, n: int, base: Fraction) -> tuple[_ScaledRows, list]:
        rows = self._rows.get(base)
        if rows is None:
            rows = self._rows[base] = _ScaledRows(base)
        return rows, rows.slot(n)

    def scaled_row(self, n: int, base: Fraction) -> list:
        """B[n][0], ..., B[n][n] with B[n][k] = v^{k(n-k)} [n k]_base and
        (u, v) = ``split(base)``: integers for a Fraction base.

        Built row by row with the scaled q-Pascal rule
        B[n][k] = v^{n-k} B[n-1][k-1] + u^k B[n-1][k]; every row is kept.
        """
        return self._row_slot(n, base)[1][0]

    def qbinom_row(self, n: int, base: Fraction) -> list[Fraction]:
        """[n 0]_base, ..., [n n]_base, each B[n][k] / v^{k(n-k)} (see
        ``scaled_row``)."""
        rows, slot = self._row_slot(n, base)
        if slot[1] is None:
            v = rows.v
            slot[1] = [quotient(b, v ** (k * (n - k))) for k, b in enumerate(slot[0])]
        return slot[1]

    def pochhammer(self, start: Fraction, base: Fraction, length: int) -> Fraction:
        """(start; base)_length from the prefix (start; base)_0, (start; base)_1, ..."""
        prefix = self._prefixes.get((start, base))
        if prefix is None:
            prefix = self._prefixes[start, base] = [self.powers(base, 0)[0]]
        if len(prefix) <= length:
            powers = self.powers(base, length)
            for j in range(len(prefix) - 1, length):
                prefix.append(prefix[j] * (1 - start * powers[j]))
        return prefix[length]


class PointContext:
    """A point (q, a) together with the tables the identities share there.

    ``point`` is any object with fields q and a; they are not validated
    again (see the module docstring).  ``tables`` may be a ``QTables``
    shared with other points (a fixed-q grid column); by default the
    context owns a fresh one.
    """

    def __init__(self, point: QPoint, tables: QTables | None = None) -> None:
        self.q = point.q
        self.a = point.a
        self.zero = point.q * 0
        self.one = point.q**0
        self.q_split = split(point.q)
        self.a_split = split(point.a)
        self.tables = QTables() if tables is None else tables
        # This q's parts in ``tables``, looked up on first use only, so a
        # context never hashes q twice and one that needs none never does.
        self._q_parts: dict[tuple, object] | None = None
        self._b: dict[int, Fraction] = {}
        self._lam: dict[int, Fraction] = {}
        self._s: list[Polynomial] = [Polynomial((self.one,))]
        self._nu: list[list[Fraction]] = [[self.one]]
        self._mu: tuple[Fraction, ...] = (self.one,)
        self._closed: dict[int, Fraction] = {}
        self._expansion: dict[int, tuple[Fraction, ...]] = {}
        self._ldl: list[list[Fraction]] = []
        self._minors: list[Fraction] = []
        self._lam_prefix = self.one  # lambda_1 ... lambda_k, k = len - 1 below
        self._lam_powers: list[Fraction] = [self.one]

    def q_parts(self, key: tuple, build: Callable[[], object]) -> object:
        """``build()``, made once per key for this q and shared with every
        point of the same ``QTables`` and q (a fixed-q grid column).

        The key names a q-only value and its index, such as ``("b", n)``;
        q itself is implied.
        """
        store = self._q_parts
        if store is None:
            store = self._q_parts = self.tables.parts_at(self.q)
        parts = store.get(key)
        if parts is None:
            parts = store[key] = build()
        return parts

    def b(self, n: int) -> Fraction:
        """b_n, n >= 0."""
        if n not in self._b:
            self._b[n] = recurrence.coeff_b(n, self)
        return self._b[n]

    def lam(self, n: int) -> Fraction:
        """lambda_n, n >= 1."""
        if n not in self._lam:
            self._lam[n] = recurrence.coeff_lambda(n, self)
        return self._lam[n]

    def s_polynomials(self, upto: int) -> list[Polynomial]:
        """s_0, ..., s_upto (the list may run longer; do not mutate it)."""
        recurrence.extend_s(self._s, upto, self.b, self.lam)
        return self._s

    def moments(self, upto: int) -> tuple[Fraction, ...]:
        """mu_0, ..., mu_m for some m >= upto."""
        if upto < 0:
            raise InvalidInputError("moments requires upto >= 0")
        if len(self._mu) <= upto:
            moments.extend_nu(self._nu, upto, self.b, self.lam)
            self._mu = tuple(row[0] for row in self._nu)
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

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

q-binomial rows come from the q-Pascal rule (Gasper-Rahman, *Basic
Hypergeometric Series*)

    [n k]_base = [n-1 k-1]_base + base^k [n-1 k]_base,

instead of three Pochhammer products per entry.  ``qseries.qbinom`` and
``qseries.pochhammer`` are left as they were: the tests use them as the
independent oracle for these tables.

Scope.  A ``PointContext`` is a ``QPoint``, so every function that takes a
point accepts one and reuses its tables; given a plain ``QPoint`` a function
builds a throwaway context (``as_context``), so direct callers see the same
signatures and results as before.  A context lives as long as its point.
The q-binomial and Pochhammer store (``QTables``) is keyed by base and start
alone, so one store may serve every point of a fixed-q grid column.  Nothing
is cached at module level: all functions stay pure, and memory is bounded
by what one point (or one column) needs.

Each value is filled through a module attribute (``recurrence.coeff_b``,
``recurrence.coeff_lambda``, ``moments.moment_closed_form``,
``expansion.expansion_coeffs``, ``hankel.extend_ldl``,
``hankel.exact_determinant``), so replacing one of those attributes reaches
every check made through a context.
"""

from __future__ import annotations

from fractions import Fraction

from . import expansion, hankel, moments, recurrence
from .points import QPoint
from .polynomials import Polynomial

# q-binomial rows kept per base.  Callers walk the rows upward and look back
# at most two (the q-Hermite recurrence reads rows n-1, n and n+1); keeping
# the whole triangle would hold O(n^4) bits at index n.
_ROW_WINDOW = 3


class QTables:
    """q-binomial rows and Pochhammer prefixes, grown on demand.

    Rows are keyed by their base and prefixes by ``(start, base)``; nothing
    else enters a value, so the store is valid for any point.
    """

    def __init__(self) -> None:
        self._powers: dict[Fraction, list[Fraction]] = {}
        # base -> (index of the newest row, the newest _ROW_WINDOW rows)
        self._rows: dict[Fraction, tuple[int, list[list[Fraction]]]] = {}
        self._prefixes: dict[tuple[Fraction, Fraction], list[Fraction]] = {}

    def powers(self, base: Fraction, upto: int) -> list[Fraction]:
        """base^0, base^1, ... covering at least base^upto."""
        powers = self._powers.get(base)
        if powers is None:
            powers = self._powers[base] = [base**0]
        while len(powers) <= upto:
            powers.append(powers[-1] * base)
        return powers

    def qbinom_row(self, n: int, base: Fraction) -> list[Fraction]:
        """[n 0]_base, ..., [n n]_base, built row by row with the q-Pascal rule.

        Only the newest rows are kept; a row older than those is rebuilt
        from row 0.
        """
        powers = self.powers(base, n)
        one = powers[0]
        top, window = self._rows.get(base, (0, [[one]]))
        if n <= top - len(window):
            top, window = 0, [[one]]
        while top < n:
            prev = window[-1]
            row = [prev[k - 1] + powers[k] * prev[k] for k in range(1, len(prev))]
            window = window[1 - _ROW_WINDOW :] + [[one, *row, one]]
            top += 1
        self._rows[base] = (top, window)
        return window[n - top - 1]

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


class PointContext(QPoint):
    """A point (q, a) together with the tables the identities share there.

    ``point`` is any object with fields q and a; they are not validated
    again (see the module docstring).  ``tables`` may be a ``QTables``
    shared with other points (a fixed-q grid column); by default the
    context owns a fresh one.
    """

    def __init__(self, point: QPoint, tables: QTables | None = None) -> None:
        # Only the fields q and a are frozen; the tables below grow in place.
        object.__setattr__(self, "q", point.q)
        object.__setattr__(self, "a", point.a)
        self.zero = point.q * 0
        self.one = point.q**0
        self.tables = QTables() if tables is None else tables
        self._b: dict[int, Fraction] = {}
        self._lam: dict[int, Fraction] = {}
        self._s: list[Polynomial] = [Polynomial((self.one,))]
        self._nu: list[list[Fraction]] = [[self.one]]
        self._mu: tuple[Fraction, ...] = (self.one,)
        self._closed: dict[int, Fraction] = {}
        self._expansion: dict[int, expansion.ExpansionTable] = {}
        self._ldl: list[list[Fraction]] = []
        self._minors: list[Fraction] = []
        self._lam_prefix = self.one  # lambda_1 ... lambda_k, k = len - 1 below
        self._lam_powers: list[Fraction] = [self.one]

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
        if len(self._mu) <= upto:
            moments.extend_nu(self._nu, upto, self.b, self.lam)
            self._mu = tuple(row[0] for row in self._nu)
        return self._mu

    def closed_form(self, m: int) -> Fraction:
        """The closed-form moment P_m(a)."""
        if m not in self._closed:
            self._closed[m] = moments.moment_closed_form(m, self)
        return self._closed[m]

    def expansion(self, n: int) -> expansion.ExpansionTable:
        """The expansion coefficients e_0^{(n)} .. e_{2n}^{(n)}."""
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

"""Degree budgets for grid-based identity proofs.

Each suite identity is, at fixed index n, an equality of rational functions
of the parameters: (q, a) for the moment identities, (q, t) for the Hermite
suite.  Clearing every denominator turns LHS - RHS into a polynomial N.  If
deg_q N <= Dq and deg_a N <= Da, and N vanishes at all points of a grid of
(Dq + 1) x (Da + 1) admissible points with distinct coordinates on each
axis, then N is identically zero, so the identity holds as a rational
function for that n.  The cleared denominators are nonzero at admissible
points because the exact evaluation itself never divides by zero there.

A ``Budget`` carries conservative numerator/denominator degree bounds and
supports +, -, *, / and integer powers assuming no cancellation; the
recurrence-coefficient budgets run the very same expression bodies used for
exact evaluation (``recurrence._b_formula``), so they cannot drift out of
sync with the implementation.  Naive budget addition adds denominator
degrees, which overshoots badly for long sums whose terms share structure,
so the aggregate objects use stated common denominators instead:

* Pochhammer nesting, (c; b)_m divides (c; b)_M for m <= M, puts every
  closed-form moment P_j, j <= M, over (q;q^2)_{ceil(M/2)} and every
  product-expansion coefficient over (q;q^2)_{2n}.
* The coefficients of s_0..s_m share prod_{j<m} den(b_j) den(lambda_j).
* Moment-table rows share a denominator grown once per row.

The moment identity mu_n = P_n is budgeted through the annihilation
relation sum_j coeff_j(s_n) P_j = 0, which is what it amounts to once
mu_j = P_j holds for every j < n: the moments satisfy
sum_j coeff_j(s_n) mu_j = 0 at every admissible point, and the leading
coefficient of s_n is 1.  Grid mode checks one pair, mu_n against P_n, per
grid point, and that is a proof by induction on n: the grids for j < n run
first in the same run, which stops at the first failure, so mu_j = P_j is
already proved as a rational-function identity when index n is reached.

A +1 safety pad per variable is added to every returned bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import recurrence
from .errors import InvalidInputError

Pair = tuple[int, int]


def _psum(*pairs: Pair) -> Pair:
    q = a = 0
    for pq, pa in pairs:
        q += pq
        a += pa
    return q, a


def _pmax(*pairs: Pair) -> Pair:
    return max(p[0] for p in pairs), max(p[1] for p in pairs)


def _pscale(pair: Pair, factor: int) -> Pair:
    return pair[0] * factor, pair[1] * factor


@dataclass(frozen=True)
class Budget:
    """Conservative (numerator, denominator) degree bounds in (q, a)."""

    num_q: int = 0
    num_a: int = 0
    den_q: int = 0
    den_a: int = 0

    @property
    def num(self) -> Pair:
        return self.num_q, self.num_a

    @property
    def den(self) -> Pair:
        return self.den_q, self.den_a

    @staticmethod
    def of(num: Pair, den: Pair = (0, 0)) -> "Budget":
        return Budget(num[0], num[1], den[0], den[1])

    @staticmethod
    def _coerce(value: "Budget | int") -> "Budget":
        if isinstance(value, Budget):
            return value
        if isinstance(value, int):
            return Budget()
        raise TypeError(f"cannot budget {value!r}")

    def __add__(self, other: "Budget | int") -> "Budget":
        other = Budget._coerce(other)
        return Budget(
            max(self.num_q + other.den_q, other.num_q + self.den_q),
            max(self.num_a + other.den_a, other.num_a + self.den_a),
            self.den_q + other.den_q,
            self.den_a + other.den_a,
        )

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __neg__(self) -> "Budget":
        return self

    def __mul__(self, other: "Budget | int") -> "Budget":
        other = Budget._coerce(other)
        return Budget(
            self.num_q + other.num_q,
            self.num_a + other.num_a,
            self.den_q + other.den_q,
            self.den_a + other.den_a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "Budget | int") -> "Budget":
        return self * Budget._coerce(other).reciprocal()

    def __rtruediv__(self, other: "Budget | int") -> "Budget":
        return Budget._coerce(other) * self.reciprocal()

    def __pow__(self, exponent: int) -> "Budget":
        base = self if exponent >= 0 else self.reciprocal()
        e = abs(exponent)
        return Budget(base.num_q * e, base.num_a * e, base.den_q * e, base.den_a * e)

    def reciprocal(self) -> "Budget":
        return Budget(self.den_q, self.den_a, self.num_q, self.num_a)

    def cover(self, other: "Budget") -> "Budget":
        """A budget valid for either of two values (elementwise max)."""
        return Budget(
            max(self.num_q, other.num_q),
            max(self.num_a, other.num_a),
            max(self.den_q, other.den_q),
            max(self.den_a, other.den_a),
        )

    def cleared_difference(self, other: "Budget") -> Pair:
        """Degrees of the cleared numerator of (self - other)."""
        return (self + other).num


_Q = Budget(num_q=1)
_A = Budget(num_a=1)
_ZERO = Budget()


def _common_sum(terms: list[Budget], den: Pair) -> Budget:
    """Budget of a sum whose terms all have denominators dividing ``den``.

    Soundness requires each term's denominator degree to fit under ``den``
    per axis; that is a structural fact of the caller's derivation, so a
    violation is a programming error.
    """
    num = (0, 0)
    for term in terms:
        if term.den_q > den[0] or term.den_a > den[1]:
            raise AssertionError("term denominator exceeds the stated common denominator")
        num = _pmax(num, _psum(term.num, (den[0] - term.den_q, den[1] - term.den_a)))
    return Budget.of(num, den)


def budget_b(n: int) -> Budget:
    """Degree budget of b_n, from the same expression used for evaluation."""
    return recurrence._b_formula(n, _Q, _A)


def budget_lambda(n: int) -> Budget:
    """Degree budget of lambda_n, from the same expression used for evaluation."""
    return recurrence._lambda_formula(n, _Q, _A)


def _binom2(m: int) -> int:
    return m * (m - 1) // 2


def _qbinom_budget(n: int, k: int, base_exp: int) -> Budget:
    # [n k] with base q^{base_exp} is a polynomial of degree k(n-k) in the base.
    if k < 0 or k > n:
        return _ZERO
    return Budget(num_q=base_exp * k * (n - k))


def _odd_poch_degree(m: int) -> int:
    # deg_q (q; q^2)_m = 1 + 3 + ... + (2m-1).
    return m * m


def _p_budget(j: int) -> Budget:
    """Budget of the closed-form moment P_j; denominator is (q;q^2)_{floor((j+1)/2)}."""
    top_q = max((k * (j - k) for k in range(j + 1)), default=0)
    return Budget.of((top_q, j), (_odd_poch_degree((j + 1) // 2), 0))


def _s_family(upto: int) -> list[Budget]:
    """Coefficient budgets of s_0..s_upto over the shared denominator
    prod_{j<m} den(b_j) den(lambda_j)."""
    family = [_ZERO]
    if upto == 0:
        return family
    b0 = budget_b(0)
    delta = b0.den
    family.append(Budget.of(_pmax(b0.num, b0.den), delta))
    for m in range(1, upto):
        b_m, lam_m = budget_b(m), budget_lambda(m)
        delta = _psum(delta, b_m.den, lam_m.den)
        terms = [family[m], b_m * family[m], lam_m * family[m - 1]]
        family.append(_common_sum(terms, delta))
    return family


def _mu_family(upto: int) -> list[Budget]:
    """Budgets of mu_0..mu_upto, mirroring the moment-table recursion with a
    per-row common denominator."""
    b = [budget_b(k) for k in range(upto)]
    lam = [budget_lambda(k) for k in range(1, upto)]
    gamma: Pair = (0, 0)
    row = [_ZERO] * (upto + 1)
    mu = [_ZERO]
    for n in range(upto):
        width = upto - n
        gamma = _psum(
            gamma,
            *(b[k].den for k in range(width)),
            *(lam[k - 1].den for k in range(1, width)),
        )
        new_row = []
        for k in range(width):
            terms = [row[k + 1], b[k] * row[k]]
            if k >= 1:
                terms.append(lam[k - 1] * row[k - 1])
            new_row.append(_common_sum(terms, gamma))
        row = new_row
        mu.append(row[0])
    return mu


def _e_family(n: int) -> list[Budget]:
    """Budgets of the 2n+1 product-expansion coefficients; every denominator
    divides (q;q^2)_{2n} of degree 4n^2."""
    budgets = []
    for k in range(n + 1):
        shared_q = sum(2 * n - 1 - j for j in range(2 * k))
        shared = Budget.of((shared_q, 2 * k))
        den_even = (sum(4 * n - 2 * k - 1 - 2 * j for j in range(k)), 0)
        budgets.append(
            Budget.of(
                _psum(shared.num, _qbinom_budget(n, k, 2).num), den_even
            )
        )
        if 2 * k + 1 <= 2 * n:
            den_odd = (sum(4 * n - 2 * k - 1 - 2 * j for j in range(k + 1)), 0)
            num_odd = _psum(
                shared.num,
                (0, 1),
                _qbinom_budget(n, k + 1, 2).num,
                (2 * (k + 1), 0),
            )
            budgets.append(Budget.of(num_odd, den_odd))
    return budgets


def _conjecture_bound(n: int) -> Pair:
    # Annihilation form: sum_j coeff_j(s_m) P_j = 0 for 1 <= m <= n, with
    # every P_j over the nested denominator of P_m.
    if n == 0:
        return 0, 0
    s = _s_family(n)
    bound = (0, 0)
    for m in range(1, n + 1):
        p_den = _p_budget(m).den
        common = _psum(s[m].den, p_den)
        terms = [s[m] * _p_budget(j) for j in range(m + 1)]
        bound = _pmax(bound, _common_sum(terms, common).num)
    return bound


def _expansion_bound(n: int) -> Pair:
    e = _e_family(n)
    s = _s_family(2 * n)
    e_den: Pair = (4 * n * n, 0)
    common = _psum(s[2 * n].den, e_den)
    terms = [Budget.of((n * (n - 1), 2 * n))]  # any coefficient of pi_n
    for k in range(2 * n + 1):
        terms.append(e[k] * s[2 * n - k])
    return _common_sum(terms, common).num


def _induction_bound(n: int) -> Pair:
    e_lo = _e_family(n)
    e_hi = _e_family(n + 1)
    lo_den: Pair = (4 * n * n, 0)
    hi_den: Pair = (4 * (n + 1) * (n + 1), 0)

    def lo(j: int) -> Budget:
        return e_lo[j] if 0 <= j <= 2 * n else _ZERO

    def b_at(i: int) -> Budget:
        return budget_b(max(i, 0))

    def lam_at(i: int) -> Budget:
        return budget_lambda(i) if i >= 1 else _ZERO

    bound = (0, 0)
    for k in range(2 * n + 3):
        m = 2 * n - k
        weights = [
            _A**2 * _Q ** (2 * n),
            _ZERO,
            b_at(m + 2) + b_at(m + 1),
            lam_at(m + 3) + b_at(m + 2) ** 2 + lam_at(m + 2),
            b_at(m + 3) * lam_at(m + 3) + lam_at(m + 3) * b_at(m + 2),
            lam_at(m + 4) * lam_at(m + 3),
        ]
        leaf_den = _psum(
            _pscale(b_at(m + 1).den, 2),
            _pscale(b_at(m + 2).den, 2),
            _pscale(b_at(m + 3).den, 2),
            _pscale(lam_at(m + 2).den, 2),
            _pscale(lam_at(m + 3).den, 2),
            _pscale(lam_at(m + 4).den, 2),
        )
        common = _psum(hi_den, lo_den, leaf_den)
        terms = [e_hi[k], lo(k)]
        terms.append(weights[0] * lo(k - 2))
        terms.append(weights[2] * lo(k - 1))
        terms.append(weights[3] * lo(k - 2))
        terms.append(weights[4] * lo(k - 3))
        terms.append(weights[5] * lo(k - 4))
        bound = _pmax(bound, _common_sum(terms, common).num)
    return bound


def _closed_product_moment_budget(n: int, eps: int) -> Budget:
    return Budget.of(
        (_binom2(2 * n + eps), 2 * n + eps), (_odd_poch_degree(n + eps), 0)
    )


def _theorem_bound(n: int) -> Pair:
    e = _e_family(n)
    e_den: Pair = (4 * n * n, 0)
    bound = _common_sum([e[2 * n], _closed_product_moment_budget(n, 0)], e_den).num
    if n >= 1:
        b0, lam1 = budget_b(0), budget_lambda(1)
        combo_den = _psum(e_den, b0.den, lam1.den)
        combo = _common_sum(
            [e[2 * n] * b0, e[2 * n - 1] * lam1, _closed_product_moment_budget(n, 1)],
            combo_den,
        )
        bound = _pmax(bound, combo.num)
    return _pmax(bound, _conjecture_bound(2 * n + 1))


def _hankel_bound(n: int) -> Pair:
    # Every matrix entry P_{i+j} sits over the nested denominator of P_{2n};
    # each of the (n+1)! determinant terms multiplies n+1 entries.
    p = _p_budget(2 * n)
    det = Budget.of(_pscale(_psum(p.num, p.den), n + 1), _pscale(p.den, n + 1))
    product = Budget()
    for i in range(1, n + 1):
        product = product * budget_lambda(i) ** (n + 1 - i)
    return det.cleared_difference(product)


def _lemmas_bound(n: int) -> Pair:
    # q-binomial theorem at m = n: both sides polynomial.
    lhs = Budget.of(
        (max((p * (n - p) + _binom2(p) for p in range(n + 1)), default=0), n)
    )
    rhs = Budget.of((_binom2(n), n))
    bound = _pmax(lhs.num, rhs.num)
    # q-Vandermonde limit at p = n; denominators nest into
    # (q^2;q^2)_{floor(n/2)} (q;q)_n.
    even_den = (n // 2) * (n // 2 + 1)
    full_den = n * (n + 1) // 2
    common: Pair = (even_den + full_den, 0)
    terms = [
        Budget.of(
            (2 * _binom2(k), 0),
            (k * (k + 1) + (n - 2 * k) * (n - 2 * k + 1) // 2, 0),
        )
        for k in range(n // 2 + 1)
    ]
    terms.append(Budget.of((_binom2(n), 0), (full_den, 0)))
    bound = _pmax(bound, _common_sum(terms, common).num)
    # Closed vs direct product-basis moments at index n // 2.
    half = n // 2
    mu = _mu_family(2 * half + 1)
    for eps in (0, 1):
        closed = _closed_product_moment_budget(half, eps)
        common = _psum(mu[2 * half + eps].den, closed.den)
        terms = [closed]
        for k in range(half + 1):
            terms.append(
                _qbinom_budget(half, k, 2)
                * Budget.of((2 * _binom2(k), 2 * k))
                * mu[2 * (half - k) + eps]
            )
        bound = _pmax(bound, _common_sum(terms, common).num)
    return bound


def _hermite_bound(n: int) -> Pair:
    # Second axis is t here.  Connection: both sides are the polynomial
    # sum_k [n k]_q t^{2k}.  Recurrence: clear by t^{n+1}.
    connection = (max((k * (n - k) for k in range(n + 1)), default=0), 2 * n)
    m = n if n >= 1 else 1
    three_term_q = max((k * (m + 1 - k) for k in range(m + 2)), default=0) + m
    return _pmax(connection, (three_term_q, 2 * m + 2))


_IDENTITY_BOUNDS = {
    "conjecture": _conjecture_bound,
    "expansion": _expansion_bound,
    "induction": _induction_bound,
    "theorem": _theorem_bound,
    "hankel": _hankel_bound,
    "lemmas": _lemmas_bound,
    "hermite": _hermite_bound,
}

IDENTITY_IDS = tuple(_IDENTITY_BOUNDS)


def degree_bound(identity: str, n: int) -> tuple[int, int]:
    """Conservative (Dq, Da) bounds for the cleared identity at index n.

    A grid of (Dq + 1) x (Da + 1) admissible points with distinct
    coordinates on which the identity holds proves it as a rational-function
    identity for that n.  The second axis is a for every identity except
    ``hermite``, where it is t.  For ``conjecture`` the bound covers the
    annihilation relation of every s_m, m <= n; the grid at index n checks
    mu_n = P_n alone, which is that relation for s_n once the grids for
    m < n have passed (see the module docstring).  The moment part of
    ``theorem`` checks the whole prefix m <= 2n+1 at each point.
    """
    if identity not in _IDENTITY_BOUNDS:
        raise InvalidInputError(
            f"unknown identity {identity!r} (expected one of {', '.join(IDENTITY_IDS)})"
        )
    if n < 0:
        raise InvalidInputError("degree_bound requires n >= 0")
    dq, da = _IDENTITY_BOUNDS[identity](n)
    return dq + 1, da + 1

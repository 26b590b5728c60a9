"""Degree budgets for grid-based identity proofs.

Each suite identity is, at fixed index n, an equality of rational functions
of the parameters: (q, a) for the moment identities, (q, t) for the Hermite
suite.  Clearing every denominator turns LHS - RHS into a polynomial N.  If
deg_q N <= Dq and deg_a N <= Da, and N vanishes at all points of a grid of
(Dq + 1) x (Da + 1) admissible points with distinct coordinates on each
axis, then N is identically zero (Alon, *Combinatorial Nullstellensatz*,
1999, Lemma 2.1), so the identity holds as a rational function for that n.
The cleared denominators are nonzero at admissible points because the
exact evaluation itself never divides by zero there.

A ``Budget`` carries conservative numerator/denominator degree bounds and
supports +, -, *, / and integer powers assuming no cancellation; the
recurrence-coefficient budgets run the very same composed parts used for
exact evaluation (``recurrence._b_from(recurrence._b_parts(n, q), split(a))`` and
its lambda twin) and take the resulting pair's quotient, so they cannot
drift out of sync with the implementation.  Naive budget addition adds
denominator degrees, which overshoots badly for long sums whose terms
share structure, so the aggregate objects use stated common denominators
instead:

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
grid point, and that is a proof by induction on n: a run that passes index
n has passed the grids for j < n too, whatever order it walked them in, so
mu_j = P_j holds as a rational-function identity for every j < n.

Every identity checks at index n only the pairs that index adds, and the
bound covers those.  ``theorem`` at n checks mu_m = P_m for m = 2n and
2n + 1 only: the grids for indices < n proved it for m <= 2n - 1, so the
new pairs are annihilation relations again, covered through the conjecture
bound at 2n + 1.  ``lemmas`` checks the product moments of n // 2 at even
n only; odd n would repeat those of n - 1.

``hankel`` is bounded as H_n - prod_{i<=n} lambda_i^{n+1-i} but checks the
pivot d_n = H_n / H_{n-1} against the norm lambda_1 ... lambda_n, by the
same induction: the grids for m < n proved H_m = prod_m, so where the
bordering reaches n, H_{n-1} = prod_{n-1} is nonzero and the pivot check
is H_n = prod_n; elsewhere the suite compares H_n with prod_n itself.
``expansion`` is bounded as the x-coefficients of
pi_n - sum_k e_k s_{2n-k} but checks e^{(n)} against the x^2-step from
level n - 1 in the s-basis, by the same induction (see ``suites``).

A +1 safety pad per variable is added to every returned bound.  Each bound
builds its leaf budgets (b_n, lambda_n, P_j, e^{(n)}) once per call and
keeps nothing between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import recurrence
from .context import split, value
from .errors import InvalidInputError
from .qseries import binom2

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

    def __pow__(self, exponent: int) -> "Budget":
        base = self if exponent >= 0 else self.reciprocal()
        e = abs(exponent)
        return Budget(base.num_q * e, base.num_a * e, base.den_q * e, base.den_a * e)

    def reciprocal(self) -> "Budget":
        return Budget(self.den_q, self.den_a, self.num_q, self.num_a)


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
    return value(recurrence._b_from(recurrence._b_parts(n, _Q), split(_A)))


def budget_lambda(n: int) -> Budget:
    """Degree budget of lambda_n, from the same expression used for evaluation."""
    return value(recurrence._lambda_from(recurrence._lambda_parts(n, _Q), split(_A)))


def _qbinom_budget(n: int, k: int) -> Budget:
    # [n k]_{q^2} is a polynomial of degree k(n-k) in q^2.
    return Budget(num_q=2 * k * (n - k))


def _p_budget(j: int) -> Budget:
    """Budget of the closed-form moment P_j; denominator is (q;q^2)_{floor((j+1)/2)}."""
    top_q = max((k * (j - k) for k in range(j + 1)), default=0)
    # deg_q (q; q^2)_m = 1 + 3 + ... + (2m-1) = m^2.
    return Budget.of((top_q, j), (((j + 1) // 2) ** 2, 0))


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
    """Budgets of mu_0..mu_upto through the nu-recursion
    nu[n+1][k] = nu[n][k+1] + b_k nu[n][k] + lambda_k nu[n][k-1], with
    nu[n][k] = L(x^n s_k), a per-row common denominator and the full
    rectangle k <= upto - n.  ``moments.extend_moments`` makes mu_n by the
    trimmed table of x^n in the s-basis instead; the bound holds for it
    too, since mu_n = nu[n][0] is the same rational function of q and a
    either way (see the ``moments`` docstring).  Sound but loose, and kept,
    since a tighter bound would move the grid."""
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
                _psum(shared.num, _qbinom_budget(n, k).num), den_even
            )
        )
        if 2 * k + 1 <= 2 * n:
            den_odd = (sum(4 * n - 2 * k - 1 - 2 * j for j in range(k + 1)), 0)
            num_odd = _psum(
                shared.num,
                (0, 1),
                _qbinom_budget(n, k + 1).num,
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
    p = [_p_budget(j) for j in range(n + 1)]
    bound = (0, 0)
    for m in range(1, n + 1):
        common = _psum(s[m].den, p[m].den)
        terms = [s[m] * p_j for p_j in p[: m + 1]]
        bound = _pmax(bound, _common_sum(terms, common).num)
    return bound


# Bounds the x-coefficients of D_n = pi_n - sum_k e_k s_{2n-k}, though the
# suite compares the s-basis pairs of the step from level n - 1.  Once the
# grids below proved D_{n-1} = 0, a grid point where those pairs agree has
# D_n = 0 in x (the s_j are monic there), so every cleared x-coefficient
# vanishes on the grid, and this bound is the one that decides it (see the
# ``suites`` docstring).
def _expansion_bound(n: int) -> Pair:
    e = _e_family(n)
    s = _s_family(2 * n)
    e_den: Pair = (4 * n * n, 0)
    common = _psum(s[2 * n].den, e_den)
    terms = [Budget.of((n * (n - 1), 2 * n))]  # any coefficient of pi_n
    for k in range(2 * n + 1):
        terms.append(e[k] * s[2 * n - k])
    return _common_sum(terms, common).num


# Bounds the five-term form of the right side; ``induction_sides`` computes
# the same rational function as two ``moments.x_step`` steps.
def _induction_bound(n: int) -> Pair:
    e_hi = _e_family(n + 1)
    lo_den: Pair = (4 * n * n, 0)
    hi_den: Pair = (4 * (n + 1) * (n + 1), 0)
    # Each leaf budget is built once and read by slice below.
    lo = [_ZERO] * 4 + _e_family(n) + [_ZERO] * 2  # lo[j + 4] = e^{(n)}_j
    b = [budget_b(i) for i in range(2 * n + 4)]
    b = [b[0], *b]  # b[i + 1] = b_{max(i, 0)}
    lam = [_ZERO, *map(budget_lambda, range(1, 2 * n + 5))]  # lambda_0 = 0
    bound = (0, 0)
    for k in range(2 * n + 3):
        m = 2 * n - k
        b1, b2, b3 = b[m + 2 : m + 5]  # b_{m+1}, b_{m+2}, b_{m+3}
        l2, l3, l4 = lam[m + 2 : m + 5]  # lambda_{m+2}, lambda_{m+3}, lambda_{m+4}
        e4, e3, e2, e1, e0 = lo[k : k + 5]  # e^{(n)}_{k-4} .. e^{(n)}_k
        leaf_den = _pscale(_psum(b1.den, b2.den, b3.den, l2.den, l3.den, l4.den), 2)
        common = _psum(hi_den, lo_den, leaf_den)
        terms = [
            e_hi[k],
            e0,
            _A**2 * _Q ** (2 * n) * e2,
            (b2 + b1) * e1,
            (l3 + b2**2 + l2) * e2,
            (b3 * l3 + l3 * b2) * e3,
            l4 * l3 * e4,
        ]
        bound = _pmax(bound, _common_sum(terms, common).num)
    return bound


def _closed_product_moment_budget(n: int, eps: int) -> Budget:
    # Over (q; q^2)_{n+eps}, of q-degree (n + eps)^2 as in ``_p_budget``.
    return Budget.of((binom2(2 * n + eps), 2 * n + eps), ((n + eps) ** 2, 0))


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
    return (det - product).num


def _lemmas_bound(n: int) -> Pair:
    # q-binomial theorem at m = n: both sides polynomial.
    lhs = Budget.of(
        (max((p * (n - p) + binom2(p) for p in range(n + 1)), default=0), n)
    )
    rhs = Budget.of((binom2(n), n))
    bound = _pmax(lhs.num, rhs.num)
    # q-Vandermonde limit at p = n; denominators nest into
    # (q^2;q^2)_{floor(n/2)} (q;q)_n.
    even_den = (n // 2) * (n // 2 + 1)
    full_den = n * (n + 1) // 2
    common: Pair = (even_den + full_den, 0)
    terms = [
        Budget.of(
            (2 * binom2(k), 0),
            (k * (k + 1) + (n - 2 * k) * (n - 2 * k + 1) // 2, 0),
        )
        for k in range(n // 2 + 1)
    ]
    terms.append(Budget.of((binom2(n), 0), (full_den, 0)))
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
                _qbinom_budget(half, k)
                * Budget.of((2 * binom2(k), 2 * k))
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
    ``theorem`` checks m = 2n and m = 2n + 1 the same way, and ``hankel``
    its pivot d_n against lambda_1 ... lambda_n.
    """
    if identity not in _IDENTITY_BOUNDS:
        raise InvalidInputError(
            f"unknown identity {identity!r} (expected one of {', '.join(IDENTITY_IDS)})"
        )
    if n < 0:
        raise InvalidInputError("degree_bound requires n >= 0")
    dq, da = _IDENTITY_BOUNDS[identity](n)
    return dq + 1, da + 1

"""Budget arithmetic and soundness of the degree bounds.

The grid proofs are only as good as the budgets, so alongside unit tests of
the Budget algebra this module runs the code itself over sympy symbols (a
``PointContext`` at symbolic (q, a), its tables and the registry's
``sides``) and checks that the actual reduced numerator/denominator degrees
stay under the budgets.
"""

import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
import sympy

from qmoments import InvalidInputError, PointContext, degree_bound, degrees
from qmoments.context import split, value
from qmoments.degrees import (
    IDENTITY_IDS,
    Budget,
    _e_family,
    _mu_family,
    _p_budget,
    _s_family,
    budget_b,
    budget_lambda,
)
from qmoments.recurrence import (
    _b_from,
    _b_parts,
    _lambda_from,
    _lambda_parts,
    s_polynomials,
)
from qmoments.report import GRID_NMAX_CAP
from qmoments.suites import DEFAULT_NMAX, IDENTITIES, SUITE_IDS
from oracles import expansion_in_x, pi_coefficients

Q, A, T = sympy.symbols("q a t")


def _degrees(expr) -> tuple[tuple[int, int], tuple[int, int]]:
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))

    def dq(p):
        p = sympy.expand(p)
        return 0 if p.is_number else sympy.degree(sympy.Poly(p, Q, A), Q)

    def da(p):
        p = sympy.expand(p)
        return 0 if p.is_number else sympy.degree(sympy.Poly(p, Q, A), A)

    return (dq(num), da(num)), (dq(den), da(den))


def _fits(expr, budget: Budget) -> bool:
    (nq, na), (dq, da) = _degrees(expr)
    return nq <= budget.num_q and na <= budget.num_a and dq <= budget.den_q and da <= budget.den_a


def test_budget_arithmetic():
    q = Budget(num_q=1)
    a = Budget(num_a=1)
    prod = q * a
    assert (prod.num, prod.den) == ((1, 1), (0, 0))
    quot = q / a
    assert (quot.num, quot.den) == ((1, 0), (0, 1))
    s = quot + a  # (q + a^2) / a
    assert s.num == (1, 2)
    assert s.den == (0, 1)
    assert (q ** -2).den == (2, 0)
    assert (1 - q).num == (1, 0)
    assert (-q).num == (1, 0)
    assert (q - a).num == (1, 1)


def test_identity_registry_matches_suites():
    # perfbench's pass order and expected files rest on this order and these
    # defaults.
    assert SUITE_IDS == (
        "conjecture",
        "expansion",
        "induction",
        "theorem",
        "hankel",
        "lemmas",
        "hermite",
    )
    assert DEFAULT_NMAX == {
        "conjecture": 24,
        "expansion": 8,
        "induction": 8,
        "theorem": 8,
        "hankel": 8,
        "lemmas": 20,
        "hermite": 16,
    }
    assert set(IDENTITY_IDS) == set(SUITE_IDS)
    for identity in IDENTITIES:
        dq, da = degree_bound(identity, 0)
        assert dq >= 1 and da >= 1
    with pytest.raises(InvalidInputError):
        degree_bound("nonsense", 2)
    with pytest.raises(InvalidInputError):
        degree_bound("conjecture", -1)


def test_spec_examples():
    dq, da = degree_bound("conjecture", 0)
    assert dq >= 1 and da >= 1
    dq, da = degree_bound("hankel", 0)
    assert dq >= 0 and da >= 0


def test_bounds_monotone_in_n():
    for identity in IDENTITY_IDS:
        bounds = [degree_bound(identity, n) for n in range(7)]
        for lo, hi in zip(bounds, bounds[1:]):
            assert hi[0] >= lo[0]
            assert hi[1] >= lo[1]


GOLDEN_BUDGETS = Path(__file__).parent / "golden" / "degree_budgets.json"


def _budget_record() -> dict:
    """Every identity bound at n <= 6 and the leaf budgets b_n, lambda_{n+1}
    at n <= 16: the figures that fix every grid point count."""

    def fields(budget: Budget) -> dict[str, int]:
        return {
            "num_q": budget.num_q,
            "num_a": budget.num_a,
            "den_q": budget.den_q,
            "den_a": budget.den_a,
        }

    return {
        "degree_bound": {
            identity: {str(n): list(degree_bound(identity, n)) for n in range(7)}
            for identity in IDENTITY_IDS
        },
        "budget_b": {str(n): fields(budget_b(n)) for n in range(17)},
        "budget_lambda": {str(n): fields(budget_lambda(n)) for n in range(1, 18)},
    }


def test_budgets_match_golden():
    # A rewrite of the recurrence formulas may regroup products but must not
    # move a budget, since the budgets set the grid sizes.  Re-record with
    # ``PYTHONPATH=src python tests/test_degrees.py`` only when a bound is
    # meant to change.
    golden = json.loads(GOLDEN_BUDGETS.read_text(encoding="utf-8"))
    assert _budget_record() == golden


@pytest.mark.parametrize("n", range(4))
def test_induction_bound_builds_each_leaf_once(monkeypatch, n):
    # The five-term relation reads b_{m+1..m+3} and lambda_{m+2..m+4} at
    # each of its 2n + 3 coefficients; each distinct leaf is built once.
    calls = Counter()

    def counted(name, leaf):
        def wrapper(i):
            calls[name, i] += 1
            return leaf(i)

        return wrapper

    for name in ("budget_b", "budget_lambda"):
        monkeypatch.setattr(degrees, name, counted(name, getattr(degrees, name)))
    degree_bound("induction", n)
    assert {i for name, i in calls if name == "budget_b"} == set(range(2 * n + 4))
    assert {i for name, i in calls if name == "budget_lambda"} == set(
        range(1, 2 * n + 5)
    )
    assert set(calls.values()) == {1}


def test_recurrence_leaf_budgets_sound():
    for n in range(0, 7):
        assert _fits(value(_b_from(_b_parts(n, Q), split(A))), budget_b(n))
    for n in range(1, 7):
        pair = _lambda_from(_lambda_parts(n, Q), split(A))
        assert _fits(value(pair), budget_lambda(n))


def _symbolic(second=A) -> PointContext:
    """A context whose q and second parameter (a, or t for hermite) are sympy
    symbols, so its tables and the registry sides build the rational
    functions the code evaluates."""
    return PointContext(SimpleNamespace(q=Q, a=second))


def test_moment_budgets_sound():
    upto = 4
    budgets = _mu_family(upto)
    mu = _symbolic().moments(upto)
    for n in range(upto + 1):
        assert _fits(value(mu[n]), budgets[n])


def test_s_coefficient_budgets_sound():
    upto = 4
    budgets = _s_family(upto)
    for m, s_m in enumerate(s_polynomials(upto, _symbolic())):
        for coeff in s_m.coeffs:
            assert _fits(coeff, budgets[m])


def test_expansion_coefficient_budgets_sound():
    ctx = _symbolic()
    for n in range(4):
        budgets = _e_family(n)
        for k, coeff in enumerate(ctx.expansion(n)):
            assert _fits(value(coeff), budgets[k])


def test_closed_moment_budget_sound():
    ctx = _symbolic()
    for j in range(7):
        assert _fits(value(ctx.closed_form(j)), _p_budget(j))


# Identity-level bounds.  A grid proof at index n rests on degree_bound(id, n)
# covering the cleared difference of every pair the identity's registry
# sides yield at n.  The sides run at sympy symbols; each side is reduced to
# A/B and C/E, and the cleared difference A*E - C*B must have degree at most
# the bound minus its +1 pad in each variable.


def _poly_degree(p, var) -> int:
    p = sympy.expand(p)
    return 0 if p.is_number else sympy.degree(p, var)


def _assert_within_bound(identity, n, lhs, rhs, second=A):
    num_l, den_l = sympy.fraction(sympy.cancel(sympy.together(lhs)))
    num_r, den_r = sympy.fraction(sympy.cancel(sympy.together(rhs)))
    dq, da = degree_bound(identity, n)
    for product in (num_l * den_r, num_r * den_l):
        assert _poly_degree(product, Q) <= dq - 1, (identity, n)
        assert _poly_degree(product, second) <= da - 1, (identity, n)


def _assert_sides_within_bound(identity, nmax, second=A, keep=lambda label: True):
    ctx = _symbolic(second)
    for n in range(nmax + 1):
        for label, lhs, rhs in IDENTITIES[identity].sides(n, ctx):
            if keep(label):
                _assert_within_bound(identity, n, value(lhs), value(rhs), second)


def test_conjecture_identity_bound_sound():
    # The grid at index n compares mu_n with P_n alone.  Checked at every
    # index a grid run can reach, like both hermite bounds.
    _assert_sides_within_bound("conjecture", GRID_NMAX_CAP)


def test_hankel_identity_bound_sound():
    _assert_sides_within_bound("hankel", 2)


def test_hermite_connection_bound_sound():
    # Second axis t: (q;q^2)_{floor((n+1)/2)} P_n(t^2) = t^n H_n(t).
    _assert_sides_within_bound(
        "hermite",
        GRID_NMAX_CAP,
        second=T,
        keep=lambda label: label.startswith("connection"),
    )


def test_hermite_recurrence_bound_sound():
    # The q-only pairs: the recurrence coefficientwise in t, palindromicity
    # and the coefficient count.
    _assert_sides_within_bound(
        "hermite",
        GRID_NMAX_CAP,
        second=T,
        keep=lambda label: not label.startswith("connection"),
    )


def test_expansion_identity_bound_sound():
    # The grid of index n rests on the bound of D_n = pi_n - sum_k e_k
    # s_{2n-k} in the x-basis (see ``degrees._expansion_bound``): each
    # coefficient of x, pi_n's from the product and the sum's from the
    # printed s_j (``oracles.expansion_in_x``).
    ctx = _symbolic()
    for n in range(3):
        lhs, rhs = pi_coefficients(n, ctx), expansion_in_x(n, ctx)
        assert len(lhs) == len(rhs) == 2 * n + 1
        for x, y in zip(lhs, rhs):
            _assert_within_bound("expansion", n, x, y)


def test_expansion_step_bound_sound():
    # The pairs the registry checks: e^{(n)} against the x^2-step from
    # level n - 1, one per s_j, under the same bound.
    _assert_sides_within_bound("expansion", 2)


def test_induction_identity_bound_sound():
    _assert_sides_within_bound("induction", 2)


def test_theorem_identity_bound_sound():
    _assert_sides_within_bound("theorem", 2)


def test_lemmas_identity_bound_sound():
    _assert_sides_within_bound("lemmas", 5)


if __name__ == "__main__":
    GOLDEN_BUDGETS.write_text(
        json.dumps(_budget_record(), indent=2) + "\n", encoding="utf-8"
    )

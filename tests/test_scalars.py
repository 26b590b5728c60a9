"""Every registry identity runs over a scalar that is not a Fraction.

``GF`` is the prime field of p = 2^61 - 1, strict on purpose: an operand
that is a Fraction or a float raises, so a ``Fraction`` literal or a float
(an int divided by an int) anywhere on the path of a ``sides`` function
fails here.  Each pair must be equal in GF(p) and equal to the Fraction run
reduced mod p.  ``OpaqueGF`` is the same field with no hash, so a dict
keyed by a scalar anywhere on that path fails too.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy

from qmoments import Budget, PointContext, QPoint
from qmoments.context import (
    reduced,
    same,
    split,
    split_div,
    split_mul,
    split_sum,
    value,
)
from qmoments.recurrence import _b_parts, _lambda_parts
from qmoments.report import GRID_NMAX_CAP
from qmoments.suites import IDENTITIES

P = 2**61 - 1
F = Fraction


class GF:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v % P

    @staticmethod
    def _value(other) -> int:
        if isinstance(other, GF):
            return other.v
        if isinstance(other, int) and not isinstance(other, bool):
            return other
        raise TypeError(f"GF(p) met a {type(other).__name__} operand: {other!r}")

    def __add__(self, other):
        return type(self)(self.v + self._value(other))

    __radd__ = __add__

    def __sub__(self, other):
        return type(self)(self.v - self._value(other))

    def __rsub__(self, other):
        return type(self)(self._value(other) - self.v)

    def __mul__(self, other):
        return type(self)(self.v * self._value(other))

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(-self.v)

    def inverse(self):
        if self.v == 0:
            raise ZeroDivisionError("GF(p) division by zero")
        return type(self)(pow(self.v, P - 2, P))

    def __truediv__(self, other):
        return self * type(self)(self._value(other)).inverse()

    def __rtruediv__(self, other):
        return type(self)(self._value(other)) * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError(f"GF(p) power by a {type(exponent).__name__}")
        base = self if exponent >= 0 else self.inverse()
        return type(self)(pow(base.v, abs(exponent), P))

    def __eq__(self, other):
        return self.v == self._value(other) % P

    def __hash__(self):
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"GF({self.v})"


class OpaqueGF(GF):
    __slots__ = ()
    __hash__ = None


def reduce(value, field=GF) -> GF:
    """A Fraction (or int) run's value, mod p."""
    value = Fraction(value)
    return field(value.numerator) / field(value.denominator)


POINTS = [QPoint(F(2, 3), F(3, 5)), QPoint(F(-7, 2), F(5)), QPoint(F(3, 4), F(0))]


def test_gf_is_strict():
    with pytest.raises(TypeError):
        GF(1) + F(1, 2)
    with pytest.raises(TypeError):
        GF(1) * 0.5
    with pytest.raises(TypeError):
        F(1, 2) - GF(1)
    assert GF(3) / 3 == 1 and GF(2) ** -1 * 2 == 1
    with pytest.raises(TypeError):
        {OpaqueGF(1) + 1}


def test_same_refuses_a_denominator_that_vanishes_mod_p():
    # A GF(p) pair is compared by cross-multiplication, not inverted, so a
    # denominator that is 0 mod p must still raise instead of passing.
    zero = GF(P)
    assert zero == 0
    for field in (GF, OpaqueGF):
        x, y = (field(3), field(1)), (field(6), field(2))
        assert same(x, y) and not same(x, (field(1), field(1)))
        assert same(x, field(3)) and same(field(3), field(3))
        for bad in [(field(3), zero), (zero, zero), (field(0), field(2 * P))]:
            with pytest.raises(ZeroDivisionError):
                same(x, bad)
            with pytest.raises(ZeroDivisionError):
                same(bad, field(1))


@pytest.mark.parametrize("field", [GF, OpaqueGF])
def test_split_helpers_stay_over_one_in_gf(field):
    # Pairs as a table grows them over a field: (x, one).  The sum and the
    # product hand back the field's one as the denominator; split_div gives
    # the cross pair, and reduced alone divides a denominator out.
    one = field(1)
    x, y, z = (field(3), one), (field(-5), one), (field(7), one)
    got = {
        "split_sum": split_sum(x, y, z),
        "split_mul": split_mul(x, y, z),
        "reduced": reduced(field(27), field(2)),
        "reduced split_div": reduced(*split_div(x, (field(2), field(9)))),
    }
    want = {
        "split_sum": 5,
        "split_mul": -105,
        "reduced": field(27) / 2,
        "reduced split_div": field(27) / 2,
    }
    for name, (num, den) in got.items():
        assert type(den) is field and den == one, name
        assert num == want[name], name
    assert split_div(x, (field(2), field(9))) == (field(27), field(2))


def test_a_zero_over_rational_functions_splits_over_the_field_one():
    # sympy's fields raise on 0**0, so the one of a zero value's pair is
    # not made from the zero itself; a degree Budget, which is never 0,
    # keeps Budget() as its one, so no degree budget moves.
    field = sympy.QQ.frac_field(*sympy.symbols("q a"))
    (q, a), zero, one = field.gens, field.zero, field.one
    pairs = {
        "split": split(zero),
        "reduced": reduced(zero, q),
    }
    for name, (num, den) in pairs.items():
        assert num == zero and type(den) is type(q) and den == one, name
    assert same(zero, (zero, one)) and not same(zero, (one, one))
    assert same((q - q, one), zero) and not same(one, zero)
    budget = Budget.of((3, 1), (2, 0))
    assert split(budget) == (budget, Budget())
    assert reduced(budget, budget)[1] == Budget()


def test_registry_over_rational_functions_stays_over_one():
    # Over sympy's field QQ(q, a) every registry pair holds as an identity
    # of rational functions, and every pair a table keeps stays over the
    # field's one, so no denominator swells from index to index: b_n,
    # lambda_n, mu_n, P_m and e_k as their sources made them, and the
    # tables grown from them.
    field = sympy.QQ.frac_field(*sympy.symbols("q a"))
    q, a = field.gens
    ctx = PointContext(SimpleNamespace(q=q, a=a))
    for name, identity in IDENTITIES.items():
        for n in range(6 if name in ("hankel", "conjecture") else 3):
            for index, lhs, rhs in identity.sides(n, ctx):
                assert same(lhs, rhs), (name, index)
    stored = [
        *(pair for row in ctx._powers for pair in row),
        *ctx._b.values(),
        *ctx._lam.values(),
        *ctx._a_prefix,
        *(pair for row in ctx._ldl for pair in row),
        *ctx._norms,
        *(row[0] for row in ctx._powers),
        *ctx._closed.values(),
        *(pair for row in ctx._expansion.values() for pair in row),
    ]
    assert len(stored) == 89
    assert all(type(den) is type(q) and den == field.one for _, den in stored)


def test_closed_form_over_rational_functions_is_the_qbinom_sum():
    # The Rogers-Szegő recurrence that makes P_n, checked as an identity
    # of rational functions against the defining sum over (q; q^2)_m, up to
    # the deepest P_m a grid run reads: conjecture n, hankel 2n and theorem
    # 2n + 1 for n <= GRID_NMAX_CAP.
    field = sympy.QQ.frac_field(*sympy.symbols("q a"))
    q, a = field.gens
    ctx = PointContext(SimpleNamespace(q=q, a=a))
    row, odd = [field.one], field.one  # [n k]_q by the q-Pascal rule
    for n in range(2 * GRID_NMAX_CAP + 2):
        if n:
            inner = (row[k - 1] + q**k * row[k] for k in range(1, n))
            row = [field.one, *inner, field.one]
        if n % 2:
            odd *= 1 - q**n  # (q; q^2)_{ceil(n/2)}
        total = sum(c * a**k for k, c in enumerate(row))
        assert same(ctx.closed_form(n), total / odd), n


@pytest.mark.parametrize("identity", list(IDENTITIES))
@pytest.mark.parametrize("point", POINTS, ids=str)
def test_registry_sides_run_over_gf(identity, point):
    sides = IDENTITIES[identity].sides
    exact = PointContext(point)
    want = [list(sides(n, exact)) for n in range(5)]
    for field in (GF, OpaqueGF):
        q, a = reduce(point.q, field), reduce(point.a, field)
        modp = PointContext(SimpleNamespace(q=q, a=a))
        for n in range(5):
            got = list(sides(n, modp))
            assert len(got) == len(want[n]), (field, identity, n)
            for (index, lhs, rhs), (_, glhs, grhs) in zip(want[n], got):
                assert same(glhs, grhs), (field, identity, index)
                glhs, grhs, lhs, rhs = map(value, (glhs, grhs, lhs, rhs))
                assert (glhs, grhs) == (reduce(lhs), reduce(rhs)), (field, index)


@pytest.mark.parametrize("q", [F(2, 3), F(-7, 2), F(3, 4)], ids=str)
def test_recurrence_q_parts_run_over_gf(q):
    # The integer formulas of the q-only parts, run over GF(p) (where
    # split(q) = (q, 1)), give the Fraction run's values mod p.
    gq = reduce(q)
    for n in range(31):
        lead, p, r, den = _b_parts(n, q)
        g_lead, g_p, g_r, g_den = _b_parts(n, gq)
        assert g_lead * g_p / g_den == reduce(F(lead * p, den)), n
        assert g_lead * g_r / g_den == reduce(F(lead * r, den)), n
        if n == 0:
            continue
        parts, g_parts = _lambda_parts(n, q), _lambda_parts(n, gq)
        if n % 2 == 0:
            assert g_parts[0] / g_parts[1] == reduce(F(*parts)), n
        else:
            v = q.denominator
            # Every part but d is a power of u or v; over GF(p), v = 1.
            assert g_parts[:4] == (gq**n, 1, gq ** (n - 1), 1), n
            assert g_parts[4] == reduce(F(parts[4], v ** (4 * n - 2))), n

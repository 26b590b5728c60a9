"""The per-point context's tables against the untouched oracles.

``qseries.qbinom`` (a Pochhammer ratio) and ``qseries.pochhammer`` (a direct
product) stay independent of the scaled q-Pascal rows, the fraction-free
closed forms and the split prefixes the context builds; ``coeff_b`` /
``coeff_lambda`` and the basis-expansion oracle (``oracles``) check its
recurrence and moment tables.
"""

import math
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmoments import (
    InvalidInputError,
    PointContext,
    QPoint,
    QTables,
    coeff_b,
    coeff_lambda,
    expansion_coeffs,
    hankel_sides,
    moment_closed_form,
    pochhammer,
    qbinom,
)
from qmoments import moments, qhermite
from qmoments.context import (
    reduced,
    same,
    split_div,
    split_mul,
    split_sum,
    value,
)
from qmoments.suites import IDENTITIES, _hermite_q_pairs
from oracles import docstring_coeffs, is_reduced, moments_via_basis

F = Fraction
NMAX = 30
Q = F(2, 3)
# (q of the store, d of the row base q^d)
ROWS = [(Q, 1), (Q, 2), (1 / Q, 1), (1 / Q, 2), (F(-3, 4), 1), (F(-3, 4), 2)]
ROW_IDS = ["q", "q^2", "1/q", "1/q^2", "negative q", "negative q^2"]
STORES = [Q, Q * Q, 1 / Q, F(-3, 4)]
STORE_IDS = ["q", "q^2", "1/q", "negative q"]


def _assert_row_matches(tables, n, d):
    # B[n][k] = v^{k(n-k)} [n k]_base for base = q^d = u/v, an int for every
    # k.
    base = tables.q**d
    want = [qbinom(n, k, base) for k in range(n + 1)]
    v = base.denominator
    scaled = tables.scaled_row(n, d)
    assert scaled == [v ** (k * (n - k)) * w for k, w in enumerate(want)], n
    assert all(type(entry) is int for entry in scaled), n


@pytest.mark.parametrize("q, d", ROWS, ids=ROW_IDS)
def test_qpascal_rows_match_qbinom(q, d):
    tables = QTables(q)
    for n in range(NMAX + 1):
        _assert_row_matches(tables, n, d)


@pytest.mark.parametrize("q, d", ROWS, ids=ROW_IDS)
def test_rows_grown_out_of_order_match(q, d):
    tables = QTables(q)
    v = (q**d).denominator
    top = tables.scaled_row(NMAX, d)
    low = tables.scaled_row(3, d)
    assert low == [v ** (k * (3 - k)) * qbinom(3, k, q**d) for k in range(4)]
    assert top == [
        v ** (k * (NMAX - k)) * qbinom(NMAX, k, q**d) for k in range(NMAX + 1)
    ]
    # Every row is kept once built, so any order reads back the same rows.
    for n in (NMAX, 3, NMAX - 1, 0, 17, NMAX - 2, NMAX - 4, 18):
        _assert_row_matches(tables, n, d)


def test_rows_are_kept_once_built():
    # Suites sharing one context each read the rows from row 0 again.
    tables = QTables(Q)
    for d in (1, 2):
        low = tables.scaled_row(3, d)
        tables.scaled_row(NMAX, d)
        assert tables.scaled_row(3, d) is low


@pytest.mark.parametrize("a", [F(3, 5), -Q], ids=["generic", "a=-q"])
def test_hankel_sides_asked_out_of_order_match(a):
    # The LDL^T factors and the lambda products grow with the largest index
    # asked; a smaller index afterwards must be read back, not recomputed
    # from the grown state.  At a = -q the pivot d_1 = lambda_1 is zero and
    # stops the factors, so every later index takes the full-matrix fallback.
    point = QPoint(Q, a)
    shared = PointContext(point)
    for n in (7, 2, 9, 0):
        assert hankel_sides(n, shared) == hankel_sides(n, PointContext(point))


@pytest.mark.parametrize("q", STORES, ids=STORE_IDS)
def test_pochhammer_prefixes_match(q):
    tables = QTables(q)
    # Ask long before short so a prefix is read back, not only grown.
    for m in (NMAX, 0, 7, NMAX - 1):
        num, den = tables.odd_pochhammer(m)
        assert type(num) is int and type(den) is int, m
        assert den == q.denominator ** (m * m)
        assert F(num, den) == pochhammer(q, q * q, m), m


@pytest.mark.parametrize("a", [F(3, 5), F(0), -Q, -1 / Q, F(-7, 4)], ids=str)
def test_a_pochhammer_prefix_matches(a):
    # a = -q gives (q; q)_m; a = -1/q makes (-a; q)_m vanish from m = 2 on.
    ctx = PointContext(QPoint(Q, a))
    for m in (NMAX, 0, 7, 1, NMAX - 1):
        num, den = ctx.a_pochhammer(m)
        assert type(num) is int and type(den) is int, m
        assert den == a.denominator**m * Q.denominator ** (m * (m - 1) // 2)
        assert F(num, den) == pochhammer(-a, Q, m), m


def test_tables_of_another_q_are_refused():
    tables = QTables(Q)
    PointContext(QPoint(Q, F(1, 2)), tables)
    with pytest.raises(InvalidInputError):
        PointContext(QPoint(1 / Q, F(1, 2)), tables)
    with pytest.raises(InvalidInputError):
        PointContext(QPoint(F(2), F(3)), QTables(F(3)))


def test_a_shared_store_lends_its_scalars_to_every_point():
    tables = QTables(Q)
    assert tables.q_split == (2, 3)
    for a in (F(0), F(5, 2)):
        ctx = PointContext(QPoint(Q, a), tables)
        assert ctx.q_split is tables.q_split


@pytest.fixture
def ctx():
    return PointContext(QPoint(Q, F(3, 5)))


def test_recurrence_table_matches_coefficients(ctx, ref_point):
    point = QPoint(ctx.q, ctx.a)
    for n in range(NMAX + 1):
        assert value(ctx.b(n)) == value(coeff_b(n, point))
    for n in range(1, NMAX + 1):
        assert value(ctx.lam(n)) == value(coeff_lambda(n, point))
    assert value(PointContext(ref_point).lam(1)) == -20
    with pytest.raises(InvalidInputError):
        ctx.lam(0)
    with pytest.raises(InvalidInputError):
        ctx.b(-1)


def test_moment_prefix_matches_basis_oracle(ctx):
    oracle = moments_via_basis(NMAX, QPoint(ctx.q, ctx.a))
    # Grow the prefix in uneven steps; each step must extend, not restart.
    for upto in (0, 3, 4, 17, NMAX):
        assert tuple(map(value, ctx.moments(upto)[: upto + 1])) == oracle[: upto + 1]


def test_closed_forms_match_the_qbinom_sum(ctx):
    q, a = ctx.q, ctx.a
    for n in range(NMAX + 1):
        total = sum((qbinom(n, k, q) * a**k for k in range(n + 1)), F(0))
        want = total / pochhammer(q, q * q, (n + 1) // 2)
        assert value(ctx.closed_form(n)) == want
        assert value(moment_closed_form(n, QPoint(q, a))) == want


def test_closed_forms_match_the_qbinom_sum_at_full_height():
    # The deep-moments point of the benchmark's seed 1: q = u/v and a = s/t
    # with every one of u, v, s, t far from 1, and u, s negative.
    q, a = F(-736, 549), F(-546, 521)
    ctx = PointContext(QPoint(q, a))
    for n in range(41):
        total = sum((qbinom(n, k, q) * a**k for k in range(n + 1)), F(0))
        want = total / pochhammer(q, q * q, (n + 1) // 2)
        assert value(ctx.closed_form(n)) == want, n


def test_rogers_szego_prefix_is_the_cleared_qbinom_sum():
    # G_m = v^{floor(m^2/4)} t^m sum_k [m k]_q a^k, an int, with q = u/v
    # and a = s/t, u and s negative at the second point.
    for point in (QPoint(Q, F(3, 5)), QPoint(F(-3, 4), F(-5, 7))):
        ctx = PointContext(point)
        v, t = ctx.q_split[1], ctx.a_split[1]
        for m in range(NMAX + 1):
            h = sum((qbinom(m, k, point.q) * point.a**k for k in range(m + 1)), F(0))
            g = ctx.rogers_szego(m)
            assert type(g) is int and g == v ** (m * m // 4) * t**m * h, m


def test_closed_forms_read_no_scaled_row(monkeypatch):
    # P_0 .. P_40 at the deep-moments point come from the recurrence
    # prefix: no row of the q-binomial triangle is built or read.
    calls = []
    real = QTables.scaled_row

    def counted(self, n, d=1):
        calls.append((n, d))
        return real(self, n, d)

    monkeypatch.setattr(QTables, "scaled_row", counted)
    ctx = PointContext(QPoint(F(-736, 549), F(-546, 521)))
    for n in range(41):
        ctx.closed_form(n)
    assert calls == []


def test_a_corrupted_closed_form_reaches_no_other_index(monkeypatch):
    # Each P_n is filled on its own from the kept prefix G, so a
    # moment_closed_form wrong at n = 3 leaves P_4 and P_5 as they are.
    point = QPoint(F(-3, 4), F(5, 7))
    clean = [moment_closed_form(n, point) for n in range(6)]
    real = moments.moment_closed_form

    def corrupted(n, point):
        num, den = real(n, point)
        return (num + den if n == 3 else num), den

    monkeypatch.setattr(moments, "moment_closed_form", corrupted)
    ctx = PointContext(point)
    assert ctx.closed_form(3) != clean[3]
    assert [ctx.closed_form(n) for n in (4, 5)] == clean[4:]


def test_negative_moment_index_rejected(ref_point):
    with pytest.raises(InvalidInputError):
        PointContext(ref_point).moments(-1)


def test_context_stands_in_for_its_point(ctx):
    point = QPoint(Q, F(3, 5))
    assert (ctx.q, ctx.a) == (point.q, point.a)
    assert coeff_b(4, ctx) == coeff_b(4, point)
    assert moment_closed_form(9, ctx) == moment_closed_form(9, point)


def test_shared_tables_serve_a_whole_column():
    tables = QTables(Q)
    for a in (F(0), F(1), F(5, 2)):
        shared = PointContext(QPoint(Q, a), tables)
        fresh = PointContext(QPoint(Q, a))
        for n in range(12):
            assert shared.closed_form(n) == fresh.closed_form(n)
            assert value(shared.b(n)) == value(fresh.b(n))
            assert shared.expansion(n) == fresh.expansion(n)
            for eps in (0, 1):
                assert shared.product_moment(n, eps) == fresh.product_moment(n, eps)
        for n in range(1, 12):
            assert value(shared.lam(n)) == value(fresh.lam(n))


def test_column_store_keeps_int_and_fraction_powers_apart():
    # At q = 2 the int 2 and Fraction(2) are equal.  The a-parts read their
    # integer powers of u and v from the stored q-only parts, which must hold
    # ints: were they Fractions, the values would stay right and only the
    # arithmetic would slow down.
    q = F(2)
    tables = QTables(q)
    for a in (F(3), F(0), F(-7, 4)):
        ctx = PointContext(QPoint(q, a), tables)
        want = docstring_coeffs(3, q, a)
        assert tuple(map(value, expansion_coeffs(3, ctx))) == want, a
        assert value(coeff_lambda(3, ctx)) == -(
            (a + q**3) * (a + q**2) * (1 + a * q**2) * (1 + a * q**3)
        ) / ((1 + a) ** 2 * (1 - q**5) ** 2), a
    steps, even, odd = tables.parts["expansion", 3]
    stored = [*chain(*steps, *even, *odd), *tables.parts["lambda", 3]]
    assert stored and all(type(x) is int for x in stored)


INTS = st.integers(-(10**6), 10**6)
NONZERO = INTS.filter(bool)


@given(INTS, NONZERO, INTS, NONZERO, NONZERO)
def test_same_is_fraction_equality(a, b, c, d, k):
    # Unreduced pairs and negative denominators, as split_div and split_sum
    # leave them; k scales a pair without changing its value.
    want = F(a, b) == F(c, d)
    assert same((a, b), (c, d)) is want
    assert same((a * k, b * k), (c, d)) is want
    assert same((a * k, b * k), (a, b)) and same((a, b), F(a, b))
    assert same(F(a, b), (c * k, d * k)) is want
    assert same(F(a, b), F(c, d)) is want
    assert value((a * k, b * k)) == F(a, b)


@given(INTS, INTS, NONZERO, NONZERO)
def test_same_over_one_denominator_compares_numerators(a, c, d, k):
    # Pairs over one denominator, as two reduced pairs of one value are,
    # compare their numerators; a value on either side is split first.
    want = F(a, d) == F(c, d)
    assert same((a, d), (c, d)) is want
    assert same((a, d), (a, d)) and not same((a, d), (a + k, d))
    assert same((a, d), (-a, d)) is (a == 0)
    assert same((a * k, d * k), (c * k, d * k)) is want
    assert same((a, d), F(c, d)) is want
    assert same(F(c, d), (a, d)) is want
    assert same(reduced(a, d), F(a, d)) and same(F(a, d), reduced(a, d))
    for pole in ((a, 0), (0, 0)):
        with pytest.raises(ZeroDivisionError):
            same(pole, pole)
        with pytest.raises(ZeroDivisionError):
            same(pole, F(c, d))
        with pytest.raises(ZeroDivisionError):
            same(F(c, d), pole)


@given(INTS, NONZERO)
def test_reduced_is_the_fraction_pair(num, den):
    # One gcd, and the sign on the numerator.
    want = F(num, den)
    got = reduced(num, den)
    assert got == (want.numerator, want.denominator)
    assert all(type(x) is int for x in got)


def test_reduced_refuses_a_zero_denominator():
    for num in (0, 5, -3):
        with pytest.raises(ZeroDivisionError):
            reduced(num, 0)


def test_same_refuses_a_zero_denominator():
    poles = [((1, 0), (1, 0)), ((0, 0), (0, 1)), ((2, 3), (0, 0)), (F(1, 2), (1, 0))]
    for x, y in poles:
        with pytest.raises(ZeroDivisionError):
            same(x, y)
        with pytest.raises(ZeroDivisionError):
            same(y, x)


# Split pairs as the tables leave them: int parts, denominators of either sign.
PAIRS = st.tuples(INTS, NONZERO)


@given(st.lists(PAIRS, min_size=1, max_size=6))
def test_split_sum_is_the_fraction_sum(pairs):
    want = sum((F(*pair) for pair in pairs), F(0))
    assert value(split_sum(*pairs)) == want
    num, den = reduced(*split_sum(*pairs))
    assert (num, den) == (want.numerator, want.denominator)
    assert den > 0 and math.gcd(num, den) == 1


@given(PAIRS, st.lists(PAIRS, min_size=1, max_size=4))
def test_split_products_are_fraction_arithmetic(x, rest):
    y = rest[0]
    assert value(split_sum(x, y)) == F(*x) + F(*y)
    assert value(split_mul(x, *rest)) == math.prod(F(*p) for p in [x, *rest])
    if y[0]:
        assert value(split_div(x, y)) == F(*x) / F(*y)


RATIONALS = st.builds(F, st.integers(-40, 40), st.integers(1, 40))


@given(
    RATIONALS.filter(lambda q: q not in (0, 1, -1)),
    RATIONALS.filter(lambda a: a != -1),
    st.integers(0, 6),
)
def test_every_shared_value_is_a_reduced_pair(q, a, n):
    # b_n, lambda_n, P_m and e_k from their sources, and the same values and
    # mu_m from a context's tables.
    point = QPoint(q, a)
    ctx = PointContext(point)
    pairs = [
        coeff_b(n, point),
        coeff_lambda(n + 1, point),
        moment_closed_form(n, point),
        *expansion_coeffs(n, point),
        ctx.b(n),
        ctx.lam(n + 1),
        ctx.closed_form(2 * n + 1),
        *ctx.expansion(n + 1),
        *ctx.moments(2 * n + 1),
    ]
    assert all(is_reduced(pair) for pair in pairs), pairs


def _counted_fractions(monkeypatch):
    """Record every ``Fraction`` made from here on: through ``__new__``, and
    through ``_from_coprime_ints``, which the arithmetic of Python 3.12 and
    later calls instead."""
    made = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    coprime = Fraction.__dict__.get("_from_coprime_ints")
    if coprime is not None:

        def counted_coprime(cls, *args):
            made.append(args)
            return coprime.__func__(cls, *args)

        counted = classmethod(counted_coprime)
        monkeypatch.setattr(Fraction, "_from_coprime_ints", counted)
    return made


def test_a_fresh_point_of_a_warmed_store_makes_no_fraction(monkeypatch):
    # With the store of q warmed by one point, a second point of that q
    # reads b_n, lambda_n, e_k, mu_n and P_m as integer pairs from their
    # sources, and the sides of these suites are integer pairs too, so it
    # makes no Fraction: the hankel suite compares its pivots d_n with the
    # norms lambda_1 ... lambda_n, both pairs.  The lemmas sides and the
    # hermite q-only sides are pairs even on a fresh store: H_n holds the
    # pairs of its scaled q-binomial row.  Each connection pair makes one:
    # its point a = t0^2.
    q = F(-3, 4)
    tables = QTables(q)
    warm, fresh = (
        PointContext(SimpleNamespace(q=q, a=a), tables) for a in (F(5, 7), F(-2, 9))
    )
    # Each with a store of its own.
    alone, hermite = (PointContext(SimpleNamespace(q=q, a=fresh.a)) for _ in range(2))
    suites = {"conjecture": 5, "expansion": 5, "induction": 5, "theorem": 5}

    def run_suites(ctx, tops):
        for suite, top in tops.items():
            for n in range(top):
                for index, lhs, rhs in IDENTITIES[suite].sides(n, ctx):
                    assert same(lhs, rhs), (suite, index)

    def run_connection(ctx):
        for n in range(5):
            assert same(*qhermite.connection_sides(n, ctx.a, ctx)), n

    run_suites(warm, {**suites, "hankel": 9})
    run_connection(warm)
    made = _counted_fractions(monkeypatch)
    assert F(1, 2) * F(1, 3) == F(1, 6)
    assert len(made) == 4  # the counter sees construction and arithmetic
    made.clear()
    run_suites(fresh, suites)
    assert made == []
    run_suites(fresh, {"hankel": 9})
    assert made == []
    run_connection(fresh)
    assert len(made) == 5
    made.clear()
    run_suites(alone, {"lemmas": 9})
    assert made == []
    for n in range(9):
        for index, lhs, rhs in _hermite_q_pairs(n, hermite):
            assert same(lhs, rhs), index
    assert made == []

"""The per-point context's tables against the untouched oracles.

``qseries.qbinom`` (a Pochhammer ratio) and ``qseries.pochhammer`` (a direct
product) stay independent of the scaled q-Pascal rows, the fraction-free
closed forms and the split prefixes the context builds; ``coeff_b`` /
``coeff_lambda`` and ``moments_via_basis`` check its recurrence and moment
tables.
"""

import math
from fractions import Fraction
from itertools import chain

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
    moments_via_basis,
    pochhammer,
    qbinom,
)
from qmoments.context import (
    common_denominator,
    quotient,
    reduce_content,
    same,
    split_add,
    split_div,
    split_mul,
    split_sum,
    value,
)

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
    for c, d in ((1, 2), (1, 1), (2, 2)):
        # Ask long before short so a prefix is read back, not only grown.
        for m in (NMAX, 0, 7, NMAX - 1):
            num, den = tables.qpochhammer(c, d, m)
            assert type(num) is int and type(den) is int, (c, d, m)
            assert den == q.denominator ** (c * m + d * m * (m - 1) // 2)
            assert F(num, den) == pochhammer(q**c, q**d, m), (c, d, m)


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
    assert tables.one == 1
    for a in (F(0), F(5, 2)):
        ctx = PointContext(QPoint(Q, a), tables)
        assert ctx.one is tables.one


@pytest.fixture
def ctx():
    return PointContext(QPoint(Q, F(3, 5)))


def test_recurrence_table_matches_coefficients(ctx, ref_point):
    point = QPoint(ctx.q, ctx.a)
    for n in range(NMAX + 1):
        assert value(ctx.b(n)) == coeff_b(n, point)
    for n in range(1, NMAX + 1):
        assert value(ctx.lam(n)) == coeff_lambda(n, point)
    assert value(PointContext(ref_point).lam(1)) == -20
    with pytest.raises(InvalidInputError):
        ctx.lam(0)
    with pytest.raises(InvalidInputError):
        ctx.b(-1)


def test_moment_prefix_matches_basis_oracle(ctx):
    oracle = moments_via_basis(NMAX, QPoint(ctx.q, ctx.a))
    # Grow the prefix in uneven steps; each step must extend, not restart.
    for upto in (0, 3, 4, 17, NMAX):
        assert ctx.moments(upto)[: upto + 1] == oracle[: upto + 1]


def test_closed_forms_match_the_qbinom_sum(ctx):
    q, a = ctx.q, ctx.a
    for n in range(NMAX + 1):
        total = sum((qbinom(n, k, q) * a**k for k in range(n + 1)), F(0))
        want = total / pochhammer(q, q * q, (n + 1) // 2)
        assert ctx.closed_form(n) == want
        assert moment_closed_form(n, QPoint(q, a)) == want


def test_closed_forms_match_the_qbinom_sum_at_full_height():
    # The deep-moments point of the benchmark's seed 1: q = u/v and a = s/t
    # with every one of u, v, s, t far from 1, and u, s negative.
    q, a = F(-736, 549), F(-546, 521)
    ctx = PointContext(QPoint(q, a))
    for n in range(41):
        total = sum((qbinom(n, k, q) * a**k for k in range(n + 1)), F(0))
        assert ctx.closed_form(n) == total / pochhammer(q, q * q, (n + 1) // 2), n


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
        want = []
        for k in range(4):
            shared = pochhammer(-a * q**5, 1 / q, 2 * k)
            top = q ** (11 - 2 * k)
            want.append(shared / pochhammer(top, 1 / q**2, k) * qbinom(3, k, q * q))
            if k < 3:
                want.append(
                    (1 + a)
                    * shared
                    / pochhammer(top, 1 / q**2, k + 1)
                    * qbinom(3, k + 1, q * q)
                    * (1 - q ** (2 * k + 2))
                )
        assert expansion_coeffs(3, ctx) == tuple(want), a
        assert coeff_lambda(3, ctx) == -(
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
    # (reduce=False) leave them; k scales a pair without changing its value.
    want = F(a, b) == F(c, d)
    assert same((a, b), (c, d)) is want
    assert same((a * k, b * k), (c, d)) is want
    assert same((a * k, b * k), (a, b)) and same((a, b), F(a, b))
    assert same(F(a, b), (c * k, d * k)) is want
    assert same(F(a, b), F(c, d)) is want
    assert value((a * k, b * k)) == F(a, b)


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
    for reduce in (True, False):
        num, den = split_sum(*pairs, reduce=reduce)
        assert den > 0 and quotient(num, den) == want
    num, den = split_sum(*pairs)
    assert math.gcd(num, den) == 1


@given(PAIRS, st.lists(PAIRS, min_size=1, max_size=4))
def test_split_products_are_fraction_arithmetic(x, rest):
    y = rest[0]
    assert quotient(*split_add(x, y)) == F(*x) + F(*y)
    assert quotient(*split_mul(x, *rest)) == math.prod(F(*p) for p in [x, *rest])
    if y[0]:
        assert quotient(*split_div(x, y)) == F(*x) / F(*y)


@given(st.lists(NONZERO, min_size=1, max_size=6))
def test_common_denominator_is_the_lcm_with_exact_cofactors(dens):
    m, cofactors = common_denominator(dens)
    assert m == math.lcm(*dens)
    assert len(cofactors) == len(dens)
    assert all(c * d == m for c, d in zip(cofactors, dens))


@given(st.lists(INTS, min_size=1, max_size=6), NONZERO)
def test_reduce_content_divides_out_the_whole_gcd(coeffs, den):
    got, got_den = reduce_content(coeffs, den)
    assert [quotient(c, got_den) for c in got] == [F(c, den) for c in coeffs]
    assert math.gcd(got_den, *got) == 1

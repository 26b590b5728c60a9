"""The per-point context's tables against the untouched oracles.

``qseries.qbinom`` (a Pochhammer ratio) and ``qseries.pochhammer`` (a direct
product) stay independent of the q-Pascal rows and prefix tables the
context builds; ``coeff_b`` / ``coeff_lambda`` and ``moments_via_basis``
check its recurrence and moment tables.
"""

from fractions import Fraction

import pytest

from qmoments import (
    InvalidInputError,
    PointContext,
    QPoint,
    QTables,
    coeff_b,
    coeff_lambda,
    hankel_sides,
    moment_closed_form,
    moments_via_basis,
    pochhammer,
    qbinom,
)

F = Fraction
NMAX = 30
Q = F(2, 3)
BASES = [Q, Q * Q, 1 / Q, F(-3, 4)]


@pytest.mark.parametrize("base", BASES, ids=["q", "q^2", "1/q", "negative q"])
def test_qpascal_rows_match_qbinom(base):
    tables = QTables()
    for n in range(NMAX + 1):
        assert tables.qbinom_row(n, base) == [qbinom(n, k, base) for k in range(n + 1)]


@pytest.mark.parametrize("base", BASES, ids=["q", "q^2", "1/q", "negative q"])
def test_rows_grown_out_of_order_match(base):
    tables = QTables()
    top = tables.qbinom_row(NMAX, base)
    assert tables.qbinom_row(3, base) == [qbinom(3, k, base) for k in range(4)]
    assert top == [qbinom(NMAX, k, base) for k in range(NMAX + 1)]


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


@pytest.mark.parametrize("base", BASES, ids=["q", "q^2", "1/q", "negative q"])
def test_pochhammer_prefixes_match(base):
    tables = QTables()
    for start in (base, -F(3, 5), F(7, 2) * base**5):
        # Ask long before short so a prefix is read back, not only grown.
        for length in (NMAX, 0, 7, NMAX - 1):
            assert tables.pochhammer(start, base, length) == pochhammer(
                start, base, length
            )


@pytest.fixture
def ctx():
    return PointContext(QPoint(Q, F(3, 5)))


def test_recurrence_table_matches_coefficients(ctx, ref_point):
    point = QPoint(ctx.q, ctx.a)
    for n in range(NMAX + 1):
        assert ctx.b(n) == coeff_b(n, point)
    for n in range(1, NMAX + 1):
        assert ctx.lam(n) == coeff_lambda(n, point)
    assert PointContext(ref_point).lam(1) == -20
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


def test_context_stands_in_for_its_point(ctx):
    point = QPoint(Q, F(3, 5))
    assert isinstance(ctx, QPoint)
    assert (ctx.q, ctx.a) == (point.q, point.a)
    assert coeff_b(4, ctx) == coeff_b(4, point)
    assert moment_closed_form(9, ctx) == moment_closed_form(9, point)


def test_shared_tables_serve_a_whole_column():
    tables = QTables()
    for a in (F(0), F(1), F(5, 2)):
        shared = PointContext(QPoint(Q, a), tables)
        fresh = PointContext(QPoint(Q, a))
        for n in range(12):
            assert shared.closed_form(n) == fresh.closed_form(n)

"""Hankel determinants of the moment sequence, checked as the norm identity.

For a moment sequence generated by a three-term recurrence the (n+1) x (n+1)
Hankel determinant H_n = det(mu_{i+j}) collapses to the product
prod_{i=1}^{n} lambda_i^{n+1-i}.  Index by index this is the norm
identity: the pivots of the LDL^T factorisation of the Hankel matrix are
d_n = H_n / H_{n-1} = L(s_n^2) = lambda_1 ... lambda_n (Chihara, *An
Introduction to Orthogonal Polynomials*, 1978, ch. I; Krattenthaler,
"Advanced determinant calculus", 1999).  The hankel suite compares d_n
with the norm lambda_1 ... lambda_n at each index; ``hankel_sides`` gives
the determinant and the product themselves, for output and for a failed or
degenerate index.

A point's context keeps the LDL^T factors of the Hankel matrix (P_{i+j})
and borders them by one row per index (``extend_ldl``), so index n costs
O(n^2) new products instead of a fresh O(n^3) elimination.  The factors
are fraction-free entry by entry: the Hankel entries P_{i+j} come in as
the context's reduced pairs, and each entry of L and each pivot d_n is a
reduced pair.  An entry of L D (and a pivot) forms its products unreduced
and sums them with the Hankel entry over the lcm of their denominators
(``context.split_sum``); L[n][j] is that pair over the pivot d_j, the
cross pair of ``context.split_div``.  Each is stored as
``context.reduced`` makes it: one gcd and the sign on the numerator, or
over any other scalar the quotient over one, so the factors do not swell
from index to index.

A zero pivot (d_1 = lambda_1 = 0 on the slice a = -q, or a pivot that
vanishes mod p) stops the bordering, since the next row would divide by
it.  Past that index ``hankel_sides`` takes H_n from ``exact_determinant``
of the full matrix, which pivots on rows, so the value stays exact.

Index n's pivot check decides H_n = prod at a point once the indices
below n have passed there: H_{n-1} = prod_{n-1}, nonzero where the
bordering reaches n, and H_n, prod_n are those times d_n and times the
norm.  So grid mode keeps ``degree_bound("hankel", n)``, the bound of
H_n - prod, by induction on n as for the conjecture: a run that passes
index n has passed every grid of m < n, so H_m = prod holds as rational
functions for m < n.  Past a zero pivot, and where the pivot check fails,
the suite compares H_n with the product itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from . import context
from .errors import InvalidInputError
from .points import QPoint


def exact_determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by exact Gaussian elimination over the entries' field.

    Pivots on the first nonzero entry in each column; a column with no
    usable pivot makes the determinant 0.  Only field operations on the
    entries are used, so Fraction entries give an exact rational result.
    """
    size = len(rows)
    if size == 0:
        raise InvalidInputError("determinant of an empty matrix is undefined")
    work = [list(row) for row in rows]
    if any(len(row) != size for row in work):
        raise InvalidInputError("determinant requires a square matrix")
    det = 1  # takes the entries' type at the first pivot
    for col in range(size):
        pivot_row = next(
            (r for r in range(col, size) if work[r][col] != 0), None
        )
        if pivot_row is None:
            return work[col][col]  # a zero of the entries' type
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        pivot = work[col][col]
        det *= pivot
        for r in range(col + 1, size):
            factor = work[r][col] / pivot
            if factor == 0:
                continue
            row_r, row_c = work[r], work[col]
            for c in range(col, size):
                row_r[c] -= factor * row_c[c]
    return det


def extend_ldl(
    rows: list[list[tuple]], upto: int, entry: Callable[[int], tuple]
) -> None:
    """Border the LDL^T factors of the Hankel matrix (entry(i+j)) in place;
    ``entry(m)`` gives a reduced pair.

    ``rows[n]`` holds the unit lower row L[n][0..n-1] followed by the pivot
    d_n, each a reduced pair; fresh factors are ``[]``.  Rows are added
    until ``rows`` covers index ``upto`` or ends in a pivot whose numerator
    is 0: the next row would divide by it, so an index past a zero pivot
    has no row.  Row n reads entry(n) .. entry(2n), of which only
    entry(2n-1) and entry(2n) are new.  It costs about n^2/2 integer
    products, one sum over an lcm for each entry of L D and for the pivot,
    n cross pairs over a pivot, and one gcd for each entry it keeps.
    """
    total, reduced = context.split_sum, context.reduced
    while len(rows) <= upto and not (rows and rows[-1][-1][0] == 0):
        n = len(rows)
        row: list[tuple] = []
        scaled: list[tuple] = []  # L[n][k] * d_k
        for j, upper in enumerate(rows):
            value = entry(n + j)
            if j:
                terms = [(-x * y, d * e) for (x, d), (y, e) in zip(scaled, upper)]
                value = reduced(*total(value, *terms))
            scaled.append(value)
            row.append(reduced(*context.split_div(value, upper[j])))
        pivot = entry(2 * n)
        if n:
            terms = [(-x * y, d * e) for (x, d), (y, e) in zip(scaled, row)]
            pivot = reduced(*total(pivot, *terms))
        row.append(pivot)
        rows.append(row)


def hankel_sides(n: int, point: QPoint) -> tuple:
    """(det(P_{i+j}(a)), prod lambda_i^{n+1-i}) for the (n+1)-size matrix,
    as values.

    Both are made from the point's context: the determinant as the product
    of the bordered pivots d_0 ... d_n, or, past a zero pivot, by
    ``exact_determinant`` of the full matrix; the product as the product of
    the norms lambda_1 ... lambda_j, j = 1..n.
    """
    if n < 0:
        raise InvalidInputError("hankel_sides requires n >= 0")
    ctx = context.as_context(point)
    rows = ctx.ldl(n)
    product = context.value(context.split_mul(*map(ctx.norm, range(n + 1))))
    if n < len(rows):
        det = context.value(context.split_mul(*(row[-1] for row in rows[: n + 1])))
    else:
        entries = [context.value(ctx.closed_form(m)) for m in range(2 * n + 1)]
        det = exact_determinant([entries[i : i + n + 1] for i in range(n + 1)])
    return det, product

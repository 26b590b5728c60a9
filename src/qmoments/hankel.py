"""Hankel determinants of the moment sequence.

For a moment sequence generated by a three-term recurrence the (n+1) x (n+1)
Hankel determinant H_n = det(mu_{i+j}) collapses to the product
prod_{i=1}^{n} lambda_i^{n+1-i}; ``hankel_sides`` evaluates both sides
exactly, over whatever scalar the point holds.

A point's context keeps the LDL^T factors of the Hankel matrix (P_{i+j})
and borders them by one row per index (``extend_ldl``).  The leading minors
are the products of the pivots, H_n = d_0 d_1 ... d_n, and the pivots
d_n = H_n / H_{n-1} grow by bordering (Chihara, *An Introduction to
Orthogonal Polynomials*, 1978, ch. I; Krattenthaler, "Advanced determinant
calculus", 1999), so index n costs O(n^2) new products instead of a fresh
O(n^3) elimination.  A zero pivot (d_1 = lambda_1 = 0 on the slice a = -q,
or a pivot that vanishes mod p) stops the bordering; past that index the
context takes H_n from ``exact_determinant`` of the full matrix, which
pivots on rows, so the value stays exact.  The other side grows the same
way: prod_n = prod_{n-1} * lambda_1 ... lambda_n, with no fresh powers.

The factors are fraction-free entry by entry: the Hankel entries P_{i+j}
come in as the context's reduced pairs, and each entry of L and each pivot
d_n is a reduced pair.  An entry of L D (and a pivot) forms its products
unreduced and sums them with the Hankel entry over the lcm of their
denominators, dividing out one gcd at the end (``context.split_sum``);
L[n][j] is that pair over the pivot d_j, with its sign on the numerator
and one gcd.  A pivot is left unreduced until the one ``context.quotient``
that makes it a value, and the minors H_n stay values (``Fraction`` for a
``QPoint``): ``Fraction`` products cancel the factors that consecutive
pivots share, and the zero-pivot stop and the ``exact_determinant``
fallback read values.  Over any other scalar ``context.split_div`` divides
by the pivot, so every entry stays over one and the factors do not swell
from index to index.
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
    rows: list[list[tuple]],
    minors: list[Fraction],
    upto: int,
    entry: Callable[[int], tuple],
) -> None:
    """Border the LDL^T factors of the Hankel matrix (entry(i+j)) in place;
    ``entry(m)`` gives a reduced pair.

    ``rows[n]`` holds the unit lower row L[n][0..n-1] followed by the pivot
    d_n, each a reduced ``context.split`` pair, and ``minors[n]`` the leading
    minor H_n = d_0 ... d_n; fresh factors are ``[], []``.  Rows are added
    until ``minors`` covers index ``upto``.  Row n reads entry(n) ..
    entry(2n), of which only entry(2n-1) and entry(2n) are new.  It costs
    about n^2/2 integer products, one sum over an lcm for each entry of
    L D and for the pivot, and n divisions by a pivot, each with one gcd.

    A zero pivot d_j gives H_j = 0, but the next row would divide by it, so
    the factors stop growing there: a minor past ``minors[-1]`` must come
    from the full matrix (``exact_determinant``).
    """
    total = context.split_sum
    while len(minors) <= upto and not (minors and minors[-1] == 0):
        n = len(rows)
        row: list[tuple] = []
        scaled: list[tuple] = []  # L[n][k] * d_k
        for j, upper in enumerate(rows):
            value = entry(n + j)
            if j:
                terms = [(-x * y, d * e) for (x, d), (y, e) in zip(scaled, upper)]
                value = total(value, *terms)
            scaled.append(value)
            row.append(total(context.split_div(value, upper[j])))
        pivot = entry(2 * n)
        if n:
            terms = [(-x * y, d * e) for (x, d), (y, e) in zip(scaled, row)]
            pivot = total(pivot, *terms, reduce=False)
        pivot = context.quotient(*pivot)
        row.append(context.split(pivot))
        rows.append(row)
        minors.append(minors[-1] * pivot if minors else pivot)


def hankel_sides(n: int, point: QPoint) -> tuple[Fraction, Fraction]:
    """(det(P_{i+j}(a)), prod lambda_i^{n+1-i}) for the (n+1)-size matrix.

    Both sides come from the point's context: the determinant as the
    product of the bordered LDL^T pivots d_0 ... d_n, or, past a zero
    pivot, by ``exact_determinant`` of the full matrix; the product as the
    previous index's product times lambda_1 ... lambda_n.
    """
    if n < 0:
        raise InvalidInputError("hankel_sides requires n >= 0")
    ctx = context.as_context(point)
    return ctx.hankel_det(n), ctx.lambda_power_product(n)

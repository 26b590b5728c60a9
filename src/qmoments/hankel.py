"""Hankel determinants of the moment sequence.

For a moment sequence generated by a three-term recurrence the (n+1) x (n+1)
Hankel determinant det(mu_{i+j}) collapses to the product
prod_{i=1}^{n} lambda_i^{n+1-i}; ``hankel_sides`` evaluates both sides
exactly, over whatever scalar the point holds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

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


def hankel_sides(n: int, point: QPoint) -> tuple[Fraction, Fraction]:
    """(det(P_{i+j}(a)), prod lambda_i^{n+1-i}) for the (n+1)-size matrix."""
    if n < 0:
        raise InvalidInputError("hankel_sides requires n >= 0")
    ctx = context.as_context(point)
    values = [ctx.closed_form(m) for m in range(2 * n + 1)]
    matrix = [[values[i + j] for j in range(n + 1)] for i in range(n + 1)]
    det = exact_determinant(matrix)
    product = ctx.one
    for i in range(1, n + 1):
        product *= ctx.lam(i) ** (n + 1 - i)
    return det, product

"""Exact linear algebra over Q: solve and determinant.

Small dense systems only (pairing matrices are at most 6x6 here).  Each
row is scaled to integers by the lcm of its denominators, and elimination
runs on those integer rows, fraction-free, with the first nonzero pivot:
exact arithmetic makes pivoting for stability irrelevant.  The determinant
uses Bareiss's elimination (Math. Comp. 22 (1968) 565-578), whose every
division is exact, and divides by the row scales once at the end.  The
solver is Gauss-Jordan elimination on the augmented integer rows, each row
divided by the gcd of its entries after every step, and reads each unknown
off as one quotient.  Entries are ``int`` or ``Fraction``, read through
their numerator and denominator; any other type, a float say, is a TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import InconsistentSystemError, SingularSystemError

Matrix = Sequence[Sequence[Fraction]]


def _integer_row(row) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, as ints, and that lcm."""
    for x in row:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"matrix entries must be int or Fraction, not {type(x).__name__}")
    scale = lcm(*[x.denominator for x in row])
    if scale == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (scale // x.denominator) for x in row], scale


def det_exact(matrix: Matrix) -> Fraction:
    """Determinant of a square matrix."""
    rows = []
    scale = 1
    for row in matrix:
        integers, row_scale = _integer_row(row)
        rows.append(integers)
        scale *= row_scale
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    # Bareiss: after step k every entry is a (k+1)-minor of the matrix, and
    # the division by the previous pivot is exact.  Only the columns right
    # of the pivot are kept.
    sign, previous = 1, 1
    while rows:
        pivot = next((r for r, row in enumerate(rows) if row[0]), None)
        if pivot is None:
            return Fraction(0)
        if pivot:
            rows[0], rows[pivot] = rows[pivot], rows[0]
            sign = -sign
        head, *rest = rows
        lead = head[0]
        rows = [
            [(lead * x - row[0] * y) // previous for x, y in zip(row[1:], head[1:])]
            for row in rest
        ]
        previous = lead
    return Fraction(sign * previous, scale)


def solve_exact(matrix: Matrix, rhs: Sequence[Fraction]) -> list[Fraction]:
    """Unique exact solution of matrix * x = rhs.

    The system may be overdetermined; consistency is checked exactly.
    Raises SingularSystemError when the solution is not unique and
    InconsistentSystemError when there is none.
    """
    if len(matrix) != len(rhs):
        raise ValueError("matrix and right-hand side disagree in length")
    rows = [_integer_row([*row, b])[0] for row, b in zip(matrix, rhs)]
    if not rows:
        raise SingularSystemError("empty system has no unique solution")
    cols = len(matrix[0])
    pivots: list[int] = []
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        lead = head[col]
        for r, row in enumerate(rows):
            factor = row[col]
            if r != rank and factor:
                row = [lead * a - factor * b for a, b in zip(row, head)]
                common = gcd(*row)
                rows[r] = row if common <= 1 else [a // common for a in row]
        pivots.append(col)
        rank += 1
    for r in range(rank, len(rows)):
        if rows[r][cols]:
            raise InconsistentSystemError("system has no exact solution")
    if rank < cols:
        raise SingularSystemError(f"system is rank deficient (rank {rank} of {cols})")
    solution = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        solution[col] = Fraction(rows[r][cols], rows[r][col])
    return solution

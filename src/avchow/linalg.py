"""Exact linear algebra over Fraction: solve and determinant.

Small dense systems only (pairing matrices are at most 6x6 here), so plain
Gaussian elimination with the first nonzero pivot is plenty, and exact
arithmetic makes pivoting for stability irrelevant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InconsistentSystemError, SingularSystemError

Matrix = Sequence[Sequence[Fraction]]


def _copy(matrix: Matrix) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in matrix]


def det_exact(matrix: Matrix) -> Fraction:
    """Determinant of a square matrix."""
    rows = _copy(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] * inv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def solve_exact(matrix: Matrix, rhs: Sequence[Fraction]) -> list[Fraction]:
    """Unique exact solution of matrix * x = rhs.

    The system may be overdetermined; consistency is checked exactly.
    Raises SingularSystemError when the solution is not unique and
    InconsistentSystemError when there is none.
    """
    if len(matrix) != len(rhs):
        raise ValueError("matrix and right-hand side disagree in length")
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    if not rows:
        raise SingularSystemError("empty system has no unique solution")
    cols = len(matrix[0])
    pivots: list[int] = []
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, len(rows)):
        if rows[r][cols] != 0:
            raise InconsistentSystemError("system has no exact solution")
    if rank < cols:
        raise SingularSystemError(f"system is rank deficient (rank {rank} of {cols})")
    solution = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        solution[col] = rows[r][cols]
    return solution

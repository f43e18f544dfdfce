"""Exact linear solving over the rationals, in integers.

Fraction-free Gauss-Jordan elimination (Bareiss): each row is scaled to
integers by the lcm of its denominators, then pivot k turns every other
row r into (a_kk * a_rj - a_rk * a_kj) // prev, prev the previous pivot.
Each entry is then a minor of the scaled matrix, so every division is
exact and every diagonal entry ends as the determinant d: x_r = a_rn / d.
"""

from __future__ import annotations

import math
from fractions import Fraction


def solve_linear(matrix: list[list], rhs: list) -> list[Fraction]:
    """Solve A x = b exactly; entries may be ints or Fractions.

    The pivot of each column is the first nonzero entry at or below the
    diagonal. Raises ValueError when the matrix is singular. Inputs are
    copied not mutated.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("matrix must be square and match the right-hand side")
    a = []
    for row, b in zip(matrix, rhs):
        row = [*row, b]
        scale = math.lcm(*(x.denominator for x in row))
        a.append([x.numerator * (scale // x.denominator) for x in row])

    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise ValueError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        top = a[col]
        p = top[col]
        # a row with a zero here is scaled too: each entry stays a minor
        for r, row in enumerate(a):
            if r != col:
                f = row[col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p

    return [Fraction(row[n], row[r]) for r, row in enumerate(a)]

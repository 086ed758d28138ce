"""Exact linear algebra over the rationals.

``rank``, ``solve``, ``nullspace`` and ``det`` are plain Gaussian
elimination on lists of ``Fraction`` rows; matrices at desk scale stay
tiny (at most a few hundred rows), so no attempt is made at sparsity.
``to_integers``, ``integer_pivot`` (Edmonds' integer-preserving pivot)
and ``integer_eliminate`` are the fraction-free pieces behind the
simplex tableau and the vertex bases, boundedness tests and volumes of
regions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Vector = tuple[Fraction, ...]


def _to_rows(matrix: Sequence[Sequence]) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in matrix]


def rank(matrix: Sequence[Sequence]) -> int:
    """Rank of a matrix with exact rational entries."""
    rows = _to_rows(matrix)
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def solve(matrix: Sequence[Sequence], rhs: Sequence) -> Vector | None:
    """One exact solution of ``A x = b``, or None if inconsistent.

    Free variables are set to zero, so the result is a particular
    solution, not a description of the whole solution set.
    """
    rows = _to_rows(matrix)
    b = [Fraction(x) for x in rhs]
    if not rows:
        return ()
    ncols = len(rows[0])
    aug = [row + [bv] for row, bv in zip(rows, b)]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][col]
        aug[r] = [x / inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * bb for a, bb in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        x[col] = aug[i][ncols]
    return tuple(x)


def nullspace(matrix: Sequence[Sequence]) -> list[Vector]:
    """Basis of the right kernel of ``A``, as exact rational vectors."""
    rows = _to_rows(matrix)
    if not rows:
        return []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for i, pcol in enumerate(pivots):
            vec[pcol] = -rows[i][fcol]
        basis.append(tuple(vec))
    return basis


def det(matrix: Sequence[Sequence]) -> Fraction:
    """Determinant of a square rational matrix."""
    rows = _to_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    result = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        result *= rows[col][col]
        inv = rows[col][col]
        for i in range(col + 1, n):
            if rows[i][col] != 0:
                f = rows[i][col] / inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return result


def to_integers(values: Sequence) -> tuple[list[int], int]:
    """The values times the lcm q of their denominators, as integers, and q."""
    if all(type(v) is int for v in values):
        return list(values), 1
    try:
        scale = math.lcm(*(v.denominator for v in values))
    except AttributeError:  # floats and the like: their exact Fraction values
        values = [Fraction(v) for v in values]
        scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def integer_pivot(rows: list[list[int]], row: int, col: int, denom: int) -> int:
    """Pivot integer rows on ``rows[row][col]`` in place; return the new denominator.

    The rows stand for ``rows / denom`` with ``denom > 0``.  The pivot
    row is negated if its pivot is negative, so that with ``p`` the
    absolute pivot every other row ``r`` becomes
    ``(p * r - r[col] * rows[row]) // denom`` and the new common
    denominator is ``p``.  Every division is exact by Sylvester's
    identity (Edmonds 1967, Bareiss 1968), and the new rows stand for
    exactly what one Gauss-Jordan step over ``Fraction`` gives: 1 at the
    pivot, 0 elsewhere in its column.
    """
    piv = rows[row][col]
    if piv < 0:
        piv = -piv
        rows[row] = [-x for x in rows[row]]
    prow = rows[row]
    for i, r in enumerate(rows):
        if i == row:
            continue
        f = r[col]
        if f:
            rows[i] = [(piv * a - f * b) // denom for a, b in zip(r, prow)]
        elif piv != denom:
            rows[i] = [piv * a // denom for a in r]
    return piv


def integer_eliminate(rows: list[list[int]], ncols: int) -> tuple[int, int]:
    """Integer Gauss-Jordan on the first ``ncols`` columns, in place.

    Pivots with ``integer_pivot`` column by column, on the first row at
    or below the pivot count with a nonzero entry.  Returns the rank of
    those columns and the final common denominator D > 0.  When the
    rank equals the number of rows and of columns, D is |det| of the
    square block, and the block itself has become D times the identity.
    """
    r, denom = 0, 1
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        denom = integer_pivot(rows, r, col, denom)
        r += 1
    return r, denom


def dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def affine_rank(points: Sequence[Sequence]) -> int:
    """Dimension of the affine hull of a point set (-1 for empty)."""
    if not points:
        return -1
    base = points[0]
    diffs = [vec_sub(p, base) for p in points[1:]]
    return rank(diffs) if diffs else 0

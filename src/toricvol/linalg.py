"""Exact linear algebra over the rationals, on two integer loops.

``integer_eliminate`` is the only Gauss-Jordan loop: elimination on
integer rows with Edmonds' integer-preserving pivot (``integer_pivot``),
which reports its pivot columns, its final common denominator and the
sign that row swaps and pivot-row negations give the determinant.  It
serves every answer that needs a reduced row echelon form or a
determinant.  The simplex tableau pivots with ``integer_pivot`` too.
The volumes of regions call the loop on integers directly, and so do
``_kernel_direction``, the integer normal of n - 1 integer rows that
gives both the cocircuits of region normals and the facet normals of
fan validation (run at most once per (n - 1)-subset of a vector set:
both read its configuration, ``fan._Configuration.kernel``), and
``_adjugate``, the integer inverse of a square integer matrix behind
the vertex bases of regions and the Cartier data of simplicial cones.  ``solve``, ``nullspace`` and ``det`` read its
result through one rational front end that first clears each row to
integers with ``to_integers``.  Since the reduced row echelon form is
unique, their answers are exactly those of Gaussian elimination over
``Fraction``.

``_sparse_pivots`` is the only rank loop: a fraction-free row echelon
on sparse integer rows, each row's pivot its largest column, as in the
column reduction of persistent homology (Zomorodian and Carlsson 2005).
``rank`` clears rows to integers and counts its pivots
(``_sparse_rank``).  The boundary matrices of the sphere complexes of
``homology`` and the Cech complexes of ``cohomology``, whose {0, +-1}
entries fill in under Gauss-Jordan, are built as sparse rows and ranked
together by ``_chain_ranks``, which skips the rows that the pivots of
the map above already prove dependent (clearing) and returns the Betti
numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Vector = tuple[Fraction, ...]


def to_integers(values: Sequence) -> tuple[list[int], int]:
    """The values times the lcm q of their denominators, as integers, and q.

    Raises TypeError on a string: ``Fraction`` would parse it leniently
    (``divisor.divisor`` is the reader for text).  Raises ValueError on
    a bool, which is no number here, as ``divisor.divisor`` does.
    """
    kinds = set(map(type, values))
    if kinds <= {int}:
        return list(values), 1
    if bool in kinds:
        raise ValueError("values must be numbers, not bools")
    try:
        scale = math.lcm(*(v.denominator for v in values))
    except AttributeError:  # floats and the like: their exact Fraction values
        if any(isinstance(v, str) for v in values):
            raise TypeError("values must be numbers, not strings") from None
        values = [Fraction(v) for v in values]
        scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _point_integers(point) -> tuple[list[int], int]:
    """``to_integers`` of a point's coordinates, each read at its exact value.

    Raises ValueError on a bool coordinate, which is no number here,
    and TypeError on a string.
    """
    if any(isinstance(x, bool) for x in point):
        raise ValueError(f"point {tuple(point)!r} has a bool coordinate")
    return to_integers(point)


def _lowest_terms(numerators, scale: int):
    """(numerators / g, scale / g) for g the gcd of all of them.

    For scale > 0 that is the pair ``to_integers`` gives for the values
    numerators / scale, so it keys their divisor slot.
    """
    g = math.gcd(scale, *numerators)
    return [x // g for x in numerators], scale // g


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


def integer_eliminate(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Integer Gauss-Jordan on the first ``ncols`` columns, in place.

    Pivots with ``integer_pivot`` column by column, on the first row at
    or below the pivot count with a nonzero entry.  Returns the pivot
    columns, the final common denominator D > 0 and a sign s = +-1:
    afterwards ``rows / D`` is the reduced row echelon form of the
    input on those columns (further columns carried along), so the rank
    is the number of pivot columns.  When the rank equals the number of
    rows and of columns, the square block has become D times the
    identity and its determinant was s * D; s counts the row swaps and
    the pivot-row negations.
    """
    pivots: list[int] = []
    denom, sign = 1, 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        if rows[r][col] < 0:
            sign = -sign
        denom = integer_pivot(rows, r, col, denom)
        pivots.append(col)
    return pivots, denom, sign


def _kernel_direction(rows: Sequence[Sequence[int]], n: int) -> list[int] | None:
    """A nonzero integer u with <u, r> = 0 for the n - 1 integer rows, or None.

    None when the rows are dependent, so that their kernel is not a line.
    With no rows (n = 1) the kernel is the whole line and u = (1,).
    """
    rows = [list(r) for r in rows]
    pivots, denom, _ = integer_eliminate(rows, n)
    if len(pivots) < n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    u = [0] * n
    u[free] = denom
    for row, col in zip(rows, pivots):
        u[col] = -row[free]
    return u


def _adjugate(matrix):
    """(D * inverse, D) for a square integer matrix, with D = |det| > 0.

    Integer-preserving Gauss-Jordan elimination of [matrix | identity]
    (``integer_eliminate``, the simplex's pivot step): at the end the
    left block is D times the identity.  None if singular.
    """
    n = len(matrix)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    pivots, denom, _ = integer_eliminate(rows, n)
    if len(pivots) < n:
        return None
    return tuple(tuple(row[n:]) for row in rows), denom


def _reduce(matrix: Sequence[Sequence], ncols: int | None = None):
    """The rational front end: clear each row to integers, then eliminate.

    Eliminates on the first ``ncols`` columns (all by default).  Returns
    (rows, pivots, denom, sign, scale) with the first three as in
    ``integer_eliminate`` and scale the product of the row scales, so a
    square matrix of full rank has determinant sign * denom / scale.
    """
    rows, scale = [], 1
    for row in matrix:
        ints, q = to_integers(row)
        rows.append(ints)
        scale *= q
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots, denom, sign = integer_eliminate(rows, ncols)
    return rows, pivots, denom, sign, scale


def _sparse_pivots(rows):
    """The pivot columns of integer rows given as ``{column: nonzero int}`` dicts.

    Each row is reduced against the stored pivot row of its largest
    column until that column holds no pivot yet, where it is stored, or
    nothing is left.  With a / b the ratio of the pivot to the row's
    entry in lowest terms and a > 0, the row becomes a * row - b *
    pivot_row; when a = 1 (a pivot of +-1 above all) that is a
    subtraction in place, otherwise the result is divided by its
    content.  Every step scales the row by a nonzero rational and
    subtracts a multiple of an earlier row, so every stored row lies in
    the row space, its pivot column is the largest column of its
    nonzero entries, and the rank is exactly the number of stored
    pivots.  The dicts are reduced in place.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            col = max(row)
            prow = pivots.get(col)
            if prow is None:
                pivots[col] = row
                break
            a, b = prow[col], row[col]
            g = -math.gcd(a, b) if a < 0 else math.gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in prow.items():
                x = row.get(c, 0) - b * v
                if x:
                    row[c] = x
                else:
                    del row[c]
            if a != 1:
                content = math.gcd(*row.values())
                if content > 1:
                    row = {c: v // content for c, v in row.items()}
    return pivots.keys()


def _sparse_rank(rows) -> int:
    """Rank of integer rows given as ``{column: nonzero int}`` dicts (``_sparse_pivots``)."""
    return len(_sparse_pivots(rows))


def _chain_ranks(by_size, row) -> list[int]:
    """The Betti numbers of a chain complex, one per cell size, its boundaries ranked top size first with clearing.

    ``by_size[s]`` lists the cells of size s, s = 0, 1, ..., in
    increasing order, each a key such as a simplex or a table position,
    and ``row(s, cell)`` gives a fresh sparse row of the boundary of a
    cell of size s >= 1 for ``_sparse_pivots``, its columns the cells of
    size s - 1.  Returns |C_s| - rank d_s - rank d_(s+1) for every s,
    with d_0 and the map above the top size zero.  A cell that was a
    pivot column c of d_(s+1) is skipped in d_s, its row never built
    (the clearing of Bauer, Kerber and Reininghaus 2014): a stored pivot
    row is the boundary of some chain z with largest face c, so
    d(d z) = 0 makes the row of c a combination of rows of lower cells,
    and by induction on the order every skipped row lies in the span of
    the rows kept.  So every rank is exact.
    """
    ranks, cleared = [0] * (len(by_size) + 1), ()
    for s in range(len(by_size) - 1, 0, -1):
        cleared = _sparse_pivots(row(s, cell) for cell in by_size[s] if cell not in cleared)
        ranks[s] = len(cleared)
    return [len(cells) - ranks[s] - ranks[s + 1] for s, cells in enumerate(by_size)]


def rank(matrix: Sequence[Sequence]) -> int:
    """Rank of a matrix with exact rational entries."""
    return _sparse_rank(
        {j: v for j, v in enumerate(to_integers(row)[0]) if v} for row in matrix
    )


def solve(matrix: Sequence[Sequence], rhs: Sequence) -> Vector | None:
    """One exact solution of ``A x = b``, or None if inconsistent.

    Free variables are set to zero, so the result is a particular
    solution, not a description of the whole solution set.
    """
    if not matrix:
        return ()
    ncols = len(matrix[0])
    rows, pivots, denom, _, _ = _reduce([[*row, b] for row, b in zip(matrix, rhs)], ncols)
    if any(row[ncols] for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, col in zip(rows, pivots):
        x[col] = Fraction(row[ncols], denom)
    return tuple(x)


def nullspace(matrix: Sequence[Sequence]) -> list[Vector]:
    """Basis of the right kernel of ``A``, as exact rational vectors."""
    if not matrix:
        return []
    rows, pivots, denom, _, _ = _reduce(matrix)
    ncols = len(matrix[0])
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for row, pcol in zip(rows, pivots):
            vec[pcol] = Fraction(-row[fcol], denom)
        basis.append(tuple(vec))
    return basis


def det(matrix: Sequence[Sequence]) -> Fraction:
    """Determinant of a square rational matrix."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    _, pivots, denom, sign, scale = _reduce(matrix, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * denom, scale)


def dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


"""Gauss-Jordan elimination over ``Fraction``: a test-only referee.

The library eliminates in integers (``toricvol.linalg.integer_eliminate``
behind a rational front end).  This module keeps the plain rational
loop once, so that tests can check ``rank``, ``solve``, ``nullspace``
and ``det`` against it, and so that the ``Fraction`` region referees
share no code with the production elimination core.
"""

from fractions import Fraction


def gauss_jordan(matrix, ncols=None):
    """Reduced row echelon form over ``Fraction`` on the first ``ncols`` columns.

    Returns (rows, pivots, product): the reduced rows, the pivot
    columns, and the product of the pivots signed by the row swaps,
    which is the determinant of a square matrix of full rank.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    product = Fraction(1)
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            product = -product
        inv = rows[r][col]
        product *= inv
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows, pivots, product


def rank(matrix):
    return len(gauss_jordan(matrix)[1])


def solve(matrix, rhs):
    """A particular solution of A x = b with free variables zero, or None."""
    if not matrix:
        return ()
    ncols = len(matrix[0])
    rows, pivots, _ = gauss_jordan([list(row) + [b] for row, b in zip(matrix, rhs)], ncols)
    if any(row[ncols] != 0 for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, col in zip(rows, pivots):
        x[col] = row[ncols]
    return tuple(x)


def nullspace(matrix):
    """Kernel basis with one vector per free column, 1 in that column."""
    if not matrix:
        return []
    rows, pivots, _ = gauss_jordan(matrix)
    ncols = len(matrix[0])
    basis = []
    for fcol in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fcol] = Fraction(1)
        for row, pcol in zip(rows, pivots):
            vec[pcol] = -row[fcol]
        basis.append(tuple(vec))
    return basis


def det(matrix):
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    _, pivots, product = gauss_jordan(matrix, n)
    return product if len(pivots) == n else Fraction(0)


def affine_rank(points):
    """Dimension of the affine hull (-1 for no points)."""
    if not points:
        return -1
    base = points[0]
    return rank([[a - b for a, b in zip(p, base)] for p in points[1:]])

import random
from fractions import Fraction

import pytest

import fraction_linalg as referee
from toricvol.linalg import affine_rank, det, dot, integer_eliminate, nullspace, rank, solve


def test_rank_basics():
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([]) == 0


def test_solve_unique():
    x = solve([[2, 1], [1, -1]], [5, 1])
    assert x == (Fraction(2), Fraction(1))


def test_solve_inconsistent():
    assert solve([[1, 1], [2, 2]], [1, 3]) is None


def test_solve_underdetermined_particular():
    x = solve([[1, 1, 1]], [6])
    assert x is not None
    assert sum(x) == 6


def test_nullspace_dimensions():
    basis = nullspace([[1, 1, 1]])
    assert len(basis) == 2
    for vec in basis:
        assert dot([1, 1, 1], vec) == 0


def test_det_values():
    assert det([[1, 0], [1, 2]]) == 2
    assert det([[1, 1], [1, -1]]) == -2
    assert det([[1, 2], [2, 4]]) == 0


def test_affine_rank():
    assert affine_rank([]) == -1
    assert affine_rank([(0, 0)]) == 0
    assert affine_rank([(0, 0), (1, 0), (2, 0)]) == 1
    assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 2


def test_random_solve_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        matrix = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        target = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        x = solve(matrix, target)
        if det(matrix) != 0:
            assert x is not None
            assert [dot(row, x) for row in matrix] == target
        elif x is not None:
            assert [dot(row, x) for row in matrix] == target


def test_random_nullspace_is_kernel():
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        matrix = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        basis = nullspace(matrix)
        assert rank(matrix) + len(basis) == cols
        for vec in basis:
            assert all(dot(row, vec) == 0 for row in matrix)


def test_integer_eliminate_matches_fraction_rank_and_det():
    rng = random.Random(61)
    determinants = 0
    for _ in range(300):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        matrix = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and rng.random() < 0.3:
            matrix[-1] = [2 * a for a in matrix[0]]
        pivots, denom, sign = integer_eliminate([list(row) for row in matrix], ncols)
        _, expected_pivots, product = referee.gauss_jordan(matrix)
        assert pivots == expected_pivots
        assert denom > 0
        if nrows == ncols == len(pivots):
            assert sign * denom == product
            determinants += 1
    assert determinants > 30


def random_rational_matrix(rng, nrows, ncols):
    """Entries with denominators; some rows and columns made dependent."""
    matrix = [
        [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6))) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if nrows > 1 and rng.random() < 0.3:
        a, b = rng.sample(range(nrows), 2)
        factor = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        matrix[a] = [factor * x + y for x, y in zip(matrix[b], matrix[rng.randrange(nrows)])]
    if ncols > 1 and rng.random() < 0.3:
        a, b = rng.sample(range(ncols), 2)
        for row in matrix:
            row[a] = row[b] * Fraction(rng.randint(-2, 2), 3)
    if rng.random() < 0.1:
        matrix[rng.randrange(nrows)] = [Fraction(0)] * ncols
    return matrix


def test_rational_front_end_matches_fraction_referee():
    # Exact equality, types included, with the Fraction Gauss-Jordan loop:
    # the reduced row echelon form is unique, so even the particular
    # solution and the kernel basis must come out identical.
    rng = random.Random(71)
    counts = {"deficient": 0, "inconsistent": 0, "det": 0}
    for _ in range(400):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.3:
            ncols = nrows
        matrix = random_rational_matrix(rng, nrows, ncols)
        rhs = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 5))) for _ in range(nrows)]
        found = rank(matrix)
        assert found == referee.rank(matrix)
        counts["deficient"] += found < min(nrows, ncols)
        x = solve(matrix, rhs)
        assert x == referee.solve(matrix, rhs)
        if x is None:
            counts["inconsistent"] += 1
        else:
            assert all(type(v) is Fraction for v in x)
        basis = nullspace(matrix)
        assert basis == referee.nullspace(matrix)
        assert all(type(v) is Fraction for vec in basis for v in vec)
        if nrows == ncols:
            value = det(matrix)
            assert type(value) is Fraction
            assert value == referee.det(matrix)
            counts["det"] += value != 0
        assert affine_rank(matrix) == referee.affine_rank(matrix)
    assert min(counts.values()) > 20, counts


def test_empty_and_degenerate_shapes():
    for matrix, rhs in [([], []), ([[]], [0]), ([[]], [1]), ([[], []], [0, 0])]:
        assert rank(matrix) == referee.rank(matrix)
        assert solve(matrix, rhs) == referee.solve(matrix, rhs)
        assert nullspace(matrix) == referee.nullspace(matrix)
    assert rank([]) == 0 and solve([], []) == () and nullspace([]) == []
    assert solve([[]], [1]) is None
    assert det([]) == 1 and type(det([])) is Fraction
    assert det([[Fraction(1, 2)]]) == Fraction(1, 2)
    for bad in ([[1, 2]], [[1], [2]], [[]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            det(bad)
        with pytest.raises(ValueError):
            referee.det(bad)

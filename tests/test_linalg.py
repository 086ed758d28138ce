import random
from fractions import Fraction

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
        found, denom = integer_eliminate([list(row) for row in matrix], ncols)
        assert found == rank(matrix)
        assert denom > 0
        if nrows == ncols == found:
            assert denom == abs(det(matrix))
            determinants += 1
    assert determinants > 30

import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

import fraction_linalg as referee
from complex_referees import EVERY_FIXTURE, uncleared_cech_ranks, uncleared_homology_ranks
from generated_fans import star_fan_data
from test_dim4 import p1_x_p3, p4
from toricvol import cohomology, homology, linalg
from toricvol.fan import is_complete, make_fan
from arrangement_referees import affine_rank
from toricvol.linalg import (
    _sparse_rank,
    det,
    dot,
    integer_eliminate,
    nullspace,
    rank,
    solve,
)
from toricvol.regions import bounded_subsets


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


def dense(rows):
    """A list of ``{column: entry}`` rows as a dense integer matrix."""
    ncols = 1 + max((max(row) for row in rows if row), default=-1)
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def random_sparse_rows(rng, nrows, ncols):
    """Sparse integer rows, entries mostly +-1 but up to +-6, with zero and repeated rows."""
    rows = []
    for _ in range(nrows):
        row = {}
        for c in rng.sample(range(ncols), rng.randint(0, min(ncols, 5))):
            row[c] = rng.choice((1, -1, 1, -1, 2, -2, 3, -4, 6))
        rows.append(row)
    for _ in range(rng.randint(0, 3)):
        rows.append(dict(rng.choice(rows)))  # a repeated row
        rows.append({})
        source = rng.choice(rows)  # a multiple of a row
        rows.append({c: 3 * v for c, v in source.items()})
    rng.shuffle(rows)
    return rows


def test_sparse_rank_matches_fraction_referee_on_random_rows():
    rng = random.Random(17)
    deficient = 0
    for size in (1, 2, 3, 5, 8, 13, 21, 34, 60):
        for _ in range(3 if size > 20 else 12):
            nrows, ncols = rng.randint(1, size), rng.randint(1, size)
            rows = random_sparse_rows(rng, nrows, ncols)
            expected = referee.rank(dense(rows))
            found = _sparse_rank([dict(row) for row in rows])
            assert found == expected, rows
            deficient += found < min(len(rows), ncols)
    assert deficient > 20


def test_sparse_rank_gcd_path():
    # Pivots of 2 and 3 force the a * row - b * pivot_row step and the
    # content division; the third row is 2 * first + 3 * second.
    rows = [{0: 3, 2: 2}, {1: 4, 2: 3}, {0: 6, 1: 12, 2: 13}, {2: 5}]
    assert _sparse_rank([dict(row) for row in rows]) == referee.rank(dense(rows)) == 3
    assert _sparse_rank([{0: 2, 1: 4}, {0: 3, 1: 6}, {1: 7}]) == 2
    assert _sparse_rank([]) == 0 and _sparse_rank([{}, {}]) == 0


# Dense Fraction Gauss-Jordan needs ~0.1 s for a 70 x 56 matrix.  The
# largest top maps of the Cech complexes (tuples of cones that share a
# ray off W) are 33 x 52 on star3 and 58 x 77 on star4; the matrices
# above this many entries are checked through the Cech ranks instead.
REFEREE_ENTRIES = 4000


def relabeled(rows):
    """Sparse rows as a hashable matrix, columns renumbered 0, 1, ... in their order.

    Sphere complexes key their columns by simplex and Cech complexes by
    table position; renumbering keeps each row's largest column and the
    rank.
    """
    columns = {c: i for i, c in enumerate(sorted({c for row in rows for c in row}))}
    return tuple(tuple(sorted((columns[c], v) for c, v in row.items())) for row in rows)


def top_maps(fan, subset):
    """The top maps of the subset's sphere complex and Cech complex, as the clearing loop hands them over.

    The top map of a chain complex is never cleared, so all its rows
    reach ``_sparse_pivots``: the boundary of the sphere complex's
    simplices of size n, and the boundary of the tuples of n + 1 maximal
    cones that share a ray off W, the complex L_W whose reduced homology
    is the Cech cohomology of W one degree up, the face that drops
    position j entering with (-1)^j.
    """
    n, cones = fan.dim, fan.max_cones
    sphere = [
        {top[:j] + top[j + 1 :]: -1 if j & 1 else 1 for j in range(n)}
        for top in homology.sphere_complex(fan, subset).by_size(n)
    ]
    cech = [
        {big[:j] + big[j + 1 :]: -1 if j & 1 else 1 for j in range(n + 1)}
        for big in combinations(range(len(cones)), n + 1)
        if frozenset.intersection(*(cones[j] for j in big)) - subset
    ]
    return [relabeled(sphere), relabeled(cech)]


@pytest.mark.parametrize(
    "data",
    [(f().dim, f().rays, f().max_cones) for f in EVERY_FIXTURE if is_complete(f())]
    + [star_fan_data(splits) for splits in (1, 2, 3, 4)],
    ids=[f.__name__ for f in EVERY_FIXTURE if is_complete(f())]
    + [f"star{splits}" for splits in (1, 2, 3, 4)],
)
def test_sparse_rank_matches_fraction_referee_on_chain_complexes(monkeypatch, data):
    # Every boundary matrix of a sphere complex and every Cech coboundary
    # matrix of every bounded subset, as the clearing loop hands its kept
    # rows to _sparse_pivots; the ranks of the fan's own rays, taken by
    # ``rank`` on a fan that its validation did not prove simplicial, are
    # no chain map and are not recorded.  Simplicial fans of dimension
    # <= 3 count components instead of ranking matrices, so every sphere
    # complex is ranked here directly too.  Every weak set W is realized
    # at u = 0 by D = -1 off W and 0 on it, so the Cech ranks equal the
    # local cohomology ranks; that checks the matrices too large for the
    # Fraction referee.
    fan = make_fan(*data)  # a fresh fan: nothing memoized yet
    ranks = {}
    pivots_of = linalg._sparse_pivots

    def recorded(rows):
        rows = list(rows)
        key = relabeled(rows)
        pivots = pivots_of(rows)
        if sys._getframe(1).f_code.co_name == "_chain_ranks":
            ranks[key] = len(pivots)
        return pivots

    monkeypatch.setattr(linalg, "_sparse_pivots", recorded)
    tops = set()
    for subset in bounded_subsets(fan):
        expected = homology.local_cohomology_ranks(fan, subset)
        assert cohomology.cech_ranks(fan, subset) == expected
        tilde = homology.reduced_homology_ranks(homology.sphere_complex(fan, subset))
        assert tilde[::-1] == expected
        tops.update(top_maps(fan, subset))
    # Every top map, built here from the complexes, was handed over, and
    # the floor is the number of them small enough for the referee, so a
    # recorder that sees no call fails.
    assert tops <= ranks.keys()
    compared = floor = 0
    for key, found in ranks.items():
        ncols = 1 + max((row[-1][0] for row in key if row), default=-1)
        if len(key) * ncols <= REFEREE_ENTRIES:
            assert found == referee.rank(dense([dict(row) for row in key])), key
            compared += 1
            floor += key in tops
    assert compared >= floor > 0, (compared, floor)


@pytest.mark.parametrize(
    "data",
    [(f().dim, f().rays, f().max_cones) for f in EVERY_FIXTURE + (p4, p1_x_p3)]
    + [star_fan_data(splits) for splits in (1, 2, 3)],
    ids=[f.__name__ for f in EVERY_FIXTURE + (p4, p1_x_p3)] + [f"star{splits}" for splits in (1, 2, 3)],
)
def test_clearing_keeps_every_chain_complex_rank(data):
    # The cleared ranks of sphere complexes and Cech complexes against the
    # same maps ranked in full, on every ray subset: the bounded ones and
    # the rest, cube_fan's non-simplicial sphere complexes, the
    # incomplete fixtures and two 4-D fans included.
    fan = make_fan(*data)
    k = len(fan.rays)
    for size in range(k + 1):
        for subset in combinations(range(k), size):
            complex_ = homology.sphere_complex(fan, subset)
            assert homology.reduced_homology_ranks(complex_) == uncleared_homology_ranks(complex_), subset
            assert cohomology.cech_ranks(fan, subset) == uncleared_cech_ranks(fan, subset), subset


def test_clearing_reads_the_pivots_of_the_map_just_above():
    # A solid tetrahedron with a pendant edge (0, 4) in a 4-D ambient, a
    # contractible complex.  The top map's pivot is the triangle (1, 2, 3),
    # index 3 among triangles; edge 3 is (0, 4), the only edge at vertex 4.
    # Clearing the edges by that pivot, two maps below, would cut vertex 4
    # off; the edges may be cleared only by the pivots of the triangles.
    faces = {frozenset(f) for size in range(5) for f in combinations(range(4), size)}
    complex_ = homology.SphereComplex(frozenset(faces | {frozenset({4}), frozenset({0, 4})}), 4)
    assert homology.reduced_homology_ranks(complex_) == uncleared_homology_ranks(complex_) == (0,) * 5

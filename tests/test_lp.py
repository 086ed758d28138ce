import random
from fractions import Fraction
from itertools import combinations

import pytest

from lp_referees import max_over_cone_is_zero
from toricvol.errors import ToricError
from toricvol.linalg import det, dot, solve
from toricvol.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPResult,
    _check_certificate,
    cone_contains,
    feasible_point,
    is_face_subset,
    is_pointed,
    relative_interior_functional,
    solve_lp,
)


def test_simple_maximum():
    # max x + y over the triangle x,y >= 0, x + y <= 3
    res = solve_lp(
        [1, 1],
        a_ub=[[1, 1], [-1, 0], [0, -1]],
        b_ub=[3, 0, 0],
        maximize=True,
    )
    assert res.status == OPTIMAL
    assert res.value == 3


def test_infeasible():
    res = solve_lp([1], a_ub=[[1], [-1]], b_ub=[-1, -1])
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_lp([1], a_ub=[[-1]], b_ub=[0], maximize=True)
    assert res.status == UNBOUNDED


def test_equality_constraints():
    res = solve_lp(
        [1, 0],
        a_eq=[[1, 1]],
        b_eq=[4],
        a_ub=[[0, 1], [0, -1]],
        b_ub=[1, 0],
        maximize=True,
    )
    assert res.status == OPTIMAL
    assert res.value == 4


def test_nonneg_mode():
    res = solve_lp([1, 1], a_eq=[[1, -1]], b_eq=[0], nonneg=True)
    assert res.status == OPTIMAL
    assert res.value == 0


def test_malformed_rows_rejected():
    # A short row would shift the slack and right-hand-side columns.
    with pytest.raises(ValueError):
        solve_lp([1, 1], a_ub=[[1]], b_ub=[5], maximize=True, nonneg=True)
    with pytest.raises(ValueError):
        solve_lp([1], a_ub=[[1], [-1]], b_ub=[5])
    with pytest.raises(ValueError):
        solve_lp([1], a_eq=[[1]], b_eq=[])


def test_cone_contains():
    quadrant = [(1, 0), (0, 1)]
    assert cone_contains(quadrant, (2, 3))
    assert not cone_contains(quadrant, (-1, 0))
    assert cone_contains([], (0, 0))
    assert not cone_contains([], (1, 0))


def test_is_pointed():
    assert is_pointed([(1, 0), (0, 1)])
    assert not is_pointed([(1, 0), (-1, 0)])
    assert is_pointed([])


def test_face_subset():
    gens = [(1, 0), (0, 1)]
    assert is_face_subset([gens[0]], [gens[1]], 2)
    assert is_face_subset([], gens, 2)
    assert not is_face_subset(gens, [], 2) is False  # whole cone is a face of itself


def test_relative_interior():
    # Quadrant in the plane: no implicit equalities.
    w, implicit = relative_interior_functional([(1, 0), (0, 1)])
    assert implicit == []
    assert dot((1, 0), w) >= 1 and dot((0, 1), w) >= 1
    # Line forced to zero: x >= 0 and -x >= 0.
    w, implicit = relative_interior_functional([(1, 0), (-1, 0)])
    assert sorted(implicit) == [0, 1]
    assert dot((1, 0), w) == 0


def test_max_over_cone_is_zero():
    rows = [(1, 0), (0, 1)]  # cone = first quadrant
    assert max_over_cone_is_zero([-1, -1], rows)
    assert not max_over_cone_is_zero([1, 0], rows)


def _brute_force_max(c, a_ub, b_ub):
    """Enumerate basic solutions of the inequality system; None if unbounded."""
    n = len(c)
    best = None
    for combo in combinations(range(len(a_ub)), n):
        matrix = [a_ub[i] for i in combo]
        if det(matrix) == 0:
            continue
        x = solve(matrix, [b_ub[i] for i in combo])
        if x is None:
            continue
        if all(dot(row, x) <= b for row, b in zip(a_ub, b_ub)):
            value = dot(c, x)
            if best is None or value > best:
                best = value
    return best


def test_randomized_against_basic_solution_enumeration():
    rng = random.Random(3)
    trials = 0
    while trials < 40:
        n = 2
        m = rng.randint(3, 6)
        a_ub = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        b_ub = [rng.randint(0, 6) for _ in range(m)]  # origin feasible
        c = [rng.randint(-4, 4) for _ in range(n)]
        res = solve_lp(c, a_ub, b_ub, maximize=True)
        assert res.status in (OPTIMAL, UNBOUNDED)
        brute = _brute_force_max(c, a_ub, b_ub)
        if res.status == OPTIMAL:
            assert brute is not None
            assert res.value == brute
            assert dot(c, res.point) == res.value
            assert all(dot(row, res.point) <= b for row, b in zip(a_ub, b_ub))
        else:
            # Unbounded: brute-force enumeration cannot certify, but no
            # basic solution may beat every large multiple of the ray.
            probe = solve_lp(c, a_ub + [[1] * n], b_ub + [10**6], maximize=True)
            assert probe.status == OPTIMAL or probe.status == UNBOUNDED
        trials += 1


def test_feasible_point_none():
    assert feasible_point([[1], [-1]], [-2, -2]) is None
    point = feasible_point([[1, 0]], [5])
    assert point is not None and point[0] <= 5


def _fraction_pivot(tableau, cost, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            f = tableau[i][col]
            tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[row])]
    if cost[col] != 0:
        f = cost[col]
        for j in range(len(cost)):
            cost[j] -= f * tableau[row][j]
    basis[row] = col


def _fraction_simplex(tableau, cost, basis, allowed):
    while True:
        enter = next((j for j in allowed if cost[j] < 0), None)
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for i, row in enumerate(tableau):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _fraction_pivot(tableau, cost, basis, leave, enter)


def fraction_solve_lp(objective, a_ub=(), b_ub=(), a_eq=(), b_eq=(), *, maximize=False, nonneg=False):
    """Referee: the same two-phase Bland simplex over Fraction entries."""
    nx = len(objective)
    c_obj = [Fraction(v) for v in objective]
    if maximize:
        c_obj = [-v for v in c_obj]

    def expand(row):
        row = [Fraction(v) for v in row]
        return row if nonneg else row + [-v for v in row]

    nstruct = nx if nonneg else 2 * nx
    system = [(expand(r), Fraction(b), True) for r, b in zip(a_ub, b_ub)]
    system += [(expand(r), Fraction(b), False) for r, b in zip(a_eq, b_eq)]
    nslack = len(a_ub)
    m = len(system)
    ncols = nstruct + nslack + m
    tableau = []
    for i, (row, b, is_ub) in enumerate(system):
        row = row + [Fraction(0)] * (nslack + m) + [b]
        if is_ub:
            row[nstruct + i] = Fraction(1)
        if row[-1] < 0:
            row = [-x for x in row]
        row[nstruct + nslack + i] = Fraction(1)
        tableau.append(row)
    basis = [nstruct + nslack + i for i in range(m)]
    cost = [Fraction(int(nstruct + nslack <= j < ncols)) for j in range(ncols + 1)]
    for row in tableau:
        cost = [a - b for a, b in zip(cost, row)]
    assert _fraction_simplex(tableau, cost, basis, range(ncols)) == OPTIMAL
    if cost[-1] != 0:
        return LPResult(INFEASIBLE)
    keep = []
    for i in range(m):
        if basis[i] >= nstruct + nslack:
            col = next((j for j in range(nstruct + nslack) if tableau[i][j] != 0), None)
            if col is None:
                continue
            _fraction_pivot(tableau, cost, basis, i, col)
        keep.append(i)
    tableau = [tableau[i] for i in keep]
    basis = [basis[i] for i in keep]
    cfull = c_obj if nonneg else c_obj + [-v for v in c_obj]
    cost = cfull + [Fraction(0)] * (nslack + m + 1)
    for i, bv in enumerate(basis):
        f = cost[bv]
        if f != 0:
            cost = [a - f * b for a, b in zip(cost, tableau[i])]
    if _fraction_simplex(tableau, cost, basis, range(nstruct + nslack)) == UNBOUNDED:
        return LPResult(UNBOUNDED)
    full = [Fraction(0)] * ncols
    for i, bv in enumerate(basis):
        full[bv] = tableau[i][-1]
    point = tuple(full[:nx]) if nonneg else tuple(full[i] - full[nx + i] for i in range(nx))
    value = dot(c_obj, point)
    return LPResult(OPTIMAL, -value if maximize else value, point)


def _random_lp(rng, entry):
    n = rng.randint(1, 3)
    a_ub = [[entry() for _ in range(n)] for _ in range(rng.randint(0, 4))]
    a_eq = [[entry() for _ in range(n)] for _ in range(rng.randint(0, 2))]
    return (
        [entry() for _ in range(n)],
        a_ub,
        [entry() for _ in a_ub],
        a_eq,
        [entry() for _ in a_eq],
    ), {"maximize": rng.random() < 0.5, "nonneg": rng.random() < 0.5}


def test_integer_simplex_matches_fraction_referee():
    # On integer data the integer tableau pivots exactly like the
    # Fraction one, so status, value and point agree bit for bit.
    rng = random.Random(11)
    statuses = set()
    for _ in range(2000):
        bound = rng.choice((2, 3, 5))
        args, kwargs = _random_lp(rng, lambda: rng.randint(-bound, bound))
        expected = fraction_solve_lp(*args, **kwargs)
        res = solve_lp(*args, **kwargs)
        assert (res.status, res.value, res.point) == (
            expected.status, expected.value, expected.point
        ), (args, kwargs)
        statuses.add((res.status, kwargs["nonneg"], kwargs["maximize"], bool(args[3])))
    assert len(statuses) == 3 * 2 * 2 * 2
    # Rational rows are scaled to integers first, which may change the
    # pivots but never the status or the optimal value.
    for _ in range(200):
        args, kwargs = _random_lp(
            rng, lambda: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 10)))
        )
        expected = fraction_solve_lp(*args, **kwargs)
        res = solve_lp(*args, **kwargs)
        assert (res.status, res.value) == (expected.status, expected.value), (args, kwargs)


def test_simplex_certificate_check():
    # Rows hold an input row of integers with its right-hand side last.
    inputs = [([1, 1, 3], "ub"), ([1, -1, 0], "eq")]
    _check_certificate(inputs, [3, 3], [3, 3], 2)  # x = (3/2, 3/2)
    with pytest.raises(ToricError, match="internal"):
        _check_certificate(inputs, [4, 3], [4, 3], 2)  # violates the equality
    with pytest.raises(ToricError, match="internal"):
        _check_certificate(inputs, [4, 4], [4, 4], 2)  # violates x + y <= 3
    with pytest.raises(ToricError, match="internal"):
        _check_certificate(inputs, [-1, 0], [-1, -1], 1)  # negative variable

"""The library's one-form LP, and the general two-phase LP of the referees.

``toricvol.lp`` solves ``max c.x, A x <= b, x >= 0`` with ``b >= 0``
from the slack basis, and every library LP is a capped-gap LP on top
of it.  ``general_lp`` is the two-phase simplex with equality rows and
free variables that the referees run; the general-form cases below
check it, and the one-form cases check the library against it.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

import general_lp
from general_lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, _check_certificate, feasible_point, solve_lp
from lp_referees import max_over_cone_is_zero
from toricvol import lp
from toricvol.errors import ToricError
from toricvol.linalg import det, dot, solve
from toricvol.lp import cone_contains, gap_lp, is_face_subset, is_pointed, relative_interior_functional


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
    # No rows: the whole space, with no point and no implicit row.
    assert relative_interior_functional([]) == ((), [])


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


# ---------------------------------------------------------------------------
# The library's one form: max c.x over A x <= b, x >= 0, b >= 0, from the
# slack basis, and the capped-gap LP built on it.


def test_one_form_simple_maximum_and_unbounded():
    # max x + y over x + y <= 3, x, y >= 0; max x over -x <= 0 is unbounded.
    res = lp.solve_lp([1, 1], [[1, 1]], [3])
    assert (res.status, res.value) == (OPTIMAL, 3)
    assert lp.solve_lp([1], [[-1]], [0]).status == UNBOUNDED
    # No rows: x = 0 is optimal for a nonpositive objective.
    assert lp.solve_lp([-1, 0], [], []).point == (0, 0)


def test_one_form_rejects_negative_rhs_and_malformed_rows():
    with pytest.raises(ValueError, match=">= 0"):
        lp.solve_lp([1], [[1], [-1]], [1, -1])
    with pytest.raises(ValueError, match=">= 0"):
        lp.solve_lp([1], [[1]], [Fraction(-1, 2)])
    with pytest.raises(ValueError):
        lp.solve_lp([1, 1], [[1]], [5])
    with pytest.raises(ValueError):
        lp.solve_lp([1], [[1], [-1]], [5])


def fraction_slack_lp(objective, a_ub, b_ub):
    """Referee: the same one-phase Bland simplex from the slack basis over Fraction entries."""
    nx, m = len(objective), len(a_ub)
    tableau = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(m)] + [Fraction(b)]
        for i, (row, b) in enumerate(zip(a_ub, b_ub))
    ]
    cost = [-Fraction(v) for v in objective] + [Fraction(0)] * (m + 1)
    basis = list(range(nx, nx + m))
    if _fraction_simplex(tableau, cost, basis, range(nx + m)) == UNBOUNDED:
        return LPResult(UNBOUNDED)
    full = [Fraction(0)] * (nx + m)
    for i, bv in enumerate(basis):
        full[bv] = tableau[i][-1]
    point = tuple(full[:nx])
    return LPResult(OPTIMAL, dot(map(Fraction, objective), point), point)


def _random_one_form_lp(rng, entry, rhs):
    n = rng.randint(1, 4)
    a_ub = [[entry() for _ in range(n)] for _ in range(rng.randint(0, 5))]
    return [entry() for _ in range(n)], a_ub, [rhs() for _ in a_ub]


def test_one_form_simplex_matches_fraction_slack_referee(monkeypatch):
    # Both start on the slack basis and pivot by Bland's rule, so on
    # integer data status, value and point agree bit for bit.
    rng = random.Random(34)
    statuses = set()
    for _ in range(2000):
        bound = rng.choice((2, 3, 5))
        args = _random_one_form_lp(rng, lambda: rng.randint(-bound, bound), lambda: rng.randint(0, bound))
        expected = fraction_slack_lp(*args)
        res = lp.solve_lp(*args)
        assert (res.status, res.value, res.point) == (expected.status, expected.value, expected.point), args
        statuses.add(res.status)
    assert statuses == {OPTIMAL, UNBOUNDED}
    # Rational rows are scaled to integers first, which may change the
    # pivots but never the status or the optimal value.
    for _ in range(200):
        args = _random_one_form_lp(
            rng,
            lambda: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 10))),
            lambda: Fraction(rng.randint(0, 6), rng.choice((1, 2, 3))),
        )
        expected = fraction_slack_lp(*args)
        res = lp.solve_lp(*args)
        assert (res.status, res.value) == (expected.status, expected.value), args
    # The capped-gap LPs, as gap_lp hands them over: all but the caps
    # have right-hand side 0, so nearly every pivot is degenerate and
    # Bland's tie-break decides which vertex is reached.
    handed = []
    solve = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda *args: handed.append(args) or solve(*args))
    for _ in range(500):
        dim = rng.randint(1, 4)
        rows = _random_rows(rng, dim, rng.randint(1, 6))
        ngaps = rng.randint(1, 3)
        gap_lp(rows, [rng.choice((None, *range(ngaps))) for _ in rows], dim)
    assert len(handed) == 500
    for args in handed:
        expected = fraction_slack_lp(*args)
        res = solve(*args)
        assert (res.status, res.value, res.point) == (expected.status, expected.value, expected.point), args


def test_one_form_certificate_check():
    # Rows hold an input row of integers with its right-hand side last.
    inputs = [[1, 1, 3], [1, -1, 0]]
    lp._check_certificate(inputs, [3, 3], 2)  # x = (3/2, 3/2)
    with pytest.raises(ToricError, match="internal"):
        lp._check_certificate(inputs, [4, 3], 2)  # violates x - y <= 0
    with pytest.raises(ToricError, match="internal"):
        lp._check_certificate(inputs, [4, 4], 2)  # violates x + y <= 3
    with pytest.raises(ToricError, match="internal"):
        lp._check_certificate(inputs, [-1, 0], 1)  # negative variable


def _random_rows(rng, dim, count):
    """Small integer rows, some the negation of an earlier one (lines)."""
    rows = []
    for _ in range(count):
        if rows and rng.random() < 0.3:
            rows.append(tuple(-v for v in rng.choice(rows)))
        else:
            rows.append(tuple(rng.randint(-2, 2) for _ in range(dim)))
    return rows


def test_gap_lp_opens_exactly_the_gaps_the_general_lp_can_open():
    # Gap g opens (t_g = 1) exactly when some w puts g's rows at >= 1 and
    # every other row at >= 0, and the point honours every row.
    rng = random.Random(35)
    seen = set()
    for _ in range(600):
        dim = rng.randint(1, 4)
        rows = _random_rows(rng, dim, rng.randint(1, 6))
        ngaps = rng.randint(1, 3)
        gaps = [rng.choice((None, *range(ngaps))) for _ in rows]
        w, t = gap_lp(rows, gaps, dim)
        assert len(t) == 1 + max((g for g in gaps if g is not None), default=-1)
        for g in range(len(t)):
            a_ub = [[-v for v in row] for row in rows]
            b_ub = [-1 if h == g else 0 for h in gaps]
            opens = feasible_point(a_ub, b_ub, nvars=dim) is not None
            assert t[g] == int(opens), (rows, gaps)
            seen.add((dim, opens))
        for row, g in zip(rows, gaps):
            assert dot(row, w) >= (0 if g is None else t[g]), (rows, gaps)
    assert seen == {(dim, opens) for dim in range(1, 5) for opens in (True, False)}


def test_gap_predicates_match_the_general_lp():
    rng = random.Random(36)
    answers = set()
    for _ in range(500):
        dim = rng.randint(1, 4)
        gens = _random_rows(rng, dim, rng.randint(0, 5))
        if gens and rng.random() < 0.5:  # a point of the cone
            x = tuple(sum(rng.randint(0, 2) * g[j] for g in gens) for j in range(dim))
        else:
            x = tuple(rng.randint(-2, 2) for _ in range(dim))
        split = rng.randint(0, len(gens))
        zero, pos = gens[:split], gens[split:]
        checks = {
            "contains": (cone_contains(gens, x), general_lp.cone_contains(gens, x)),
            "pointed": (is_pointed(gens), general_lp.is_pointed(gens)),
            "face": (is_face_subset(zero, pos, dim), general_lp.is_face_subset(zero, pos, dim)),
        }
        for name, (got, expected) in checks.items():
            assert got == expected, (name, gens, x, split)
            answers.add((name, got))
    assert answers == {(name, b) for name in ("contains", "pointed", "face") for b in (True, False)}


def test_chamber_gap_lp_matches_the_general_lp():
    # The interior-sample shape: the inequalities share one gap and each
    # equality is held at 0 from both sides; the general LP asks for
    # every inequality at >= 1 and every equality at 0 directly.
    rng = random.Random(37)
    seen = set()
    for _ in range(500):
        dim = rng.randint(1, 4)
        below = _random_rows(rng, dim, rng.randint(1, 5))
        equal = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(0, 2))]
        rows = [*below, *equal, *([-v for v in row] for row in equal)]
        w, (t,) = gap_lp(rows, [0] * len(below) + [None] * (2 * len(equal)), dim)
        point = feasible_point(
            [[-v for v in row] for row in below], [-1] * len(below), equal, [0] * len(equal), nvars=dim
        )
        assert t == int(point is not None), (below, equal)
        assert all(dot(row, w) >= t for row in below) and all(dot(row, w) == 0 for row in equal)
        seen.add((dim, t))
    assert seen == {(dim, t) for dim in range(1, 5) for t in (0, 1)}

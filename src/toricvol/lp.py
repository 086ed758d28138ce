"""Exact rational linear programming.

A small two-phase primal simplex over ``Fraction`` entries with Bland's
rule, so every answer is exact and termination is guaranteed.  Problem
sizes in this package are tiny (tens of variables), which makes the
dense tableau the right tool.

Variables are free unless ``nonneg=True``; free variables are split
into positive and negative parts internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ToricError
from .linalg import dot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None


def _pivot(tableau, cost, basis, row, col):
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


def _run_simplex(tableau, cost, basis, allowed):
    """Minimize until no allowed column has negative reduced cost."""
    while True:
        enter = None
        for j in allowed:
            if cost[j] < 0:
                enter = j
                break
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
        _pivot(tableau, cost, basis, leave, enter)


def solve_lp(
    objective: Sequence,
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    *,
    maximize: bool = False,
    nonneg: bool = False,
) -> LPResult:
    """Optimize ``objective . x`` over ``a_ub x <= b_ub``, ``a_eq x = b_eq``."""
    nx = len(objective)
    c_obj = [Fraction(v) for v in objective]
    if maximize:
        c_obj = [-v for v in c_obj]

    # Structural columns: x itself, or the split x = p - m for free vars.
    if nonneg:
        def expand(row):
            return [Fraction(v) for v in row]
    else:
        def expand(row):
            out = []
            for v in row:
                out.append(Fraction(v))
            for v in row:
                out.append(-Fraction(v))
            return out

    nstruct = nx if nonneg else 2 * nx
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    kinds: list[str] = []
    for row, b in zip(a_ub, b_ub):
        rows.append(expand(row))
        rhs.append(Fraction(b))
        kinds.append("ub")
    for row, b in zip(a_eq, b_eq):
        rows.append(expand(row))
        rhs.append(Fraction(b))
        kinds.append("eq")

    nslack = sum(1 for k in kinds if k == "ub")
    m = len(rows)
    ncols = nstruct + nslack + m  # artificials at the end
    tableau = []
    si = 0
    for i in range(m):
        row = rows[i] + [Fraction(0)] * (nslack + m) + [rhs[i]]
        if kinds[i] == "ub":
            row[nstruct + si] = Fraction(1)
            si += 1
        if row[-1] < 0:
            row = [-x for x in row]
        row[nstruct + nslack + i] = Fraction(1)
        tableau.append(row)
    basis = [nstruct + nslack + i for i in range(m)]

    # Phase 1: minimize the sum of artificials.
    cost = [Fraction(0)] * (ncols + 1)
    for j in range(nstruct + nslack, ncols):
        cost[j] = Fraction(1)
    for i in range(m):
        for j in range(ncols + 1):
            cost[j] -= tableau[i][j]
    allowed = list(range(ncols))
    status = _run_simplex(tableau, cost, basis, allowed)
    if status != OPTIMAL:  # the phase 1 objective is bounded below by 0
        raise ToricError("internal: phase 1 of the simplex reported an unbounded objective")
    if -cost[-1] != 0:
        return LPResult(INFEASIBLE)

    # Drive leftover artificials out of the basis, dropping redundant rows.
    keep = []
    for i in range(m):
        if basis[i] >= nstruct + nslack:
            col = next(
                (j for j in range(nstruct + nslack) if tableau[i][j] != 0), None
            )
            if col is None:
                continue  # zero row: redundant constraint
            _pivot(tableau, cost, basis, i, col)
        keep.append(i)
    tableau = [tableau[i] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2: the real objective, artificial columns frozen out.
    if nonneg:
        cfull = list(c_obj)
    else:
        cfull = c_obj + [-v for v in c_obj]
    cost = cfull + [Fraction(0)] * (nslack + m + 1)
    for i, bv in enumerate(basis):
        if cost[bv] != 0:
            f = cost[bv]
            for j in range(ncols + 1):
                cost[j] -= f * tableau[i][j]
    allowed = list(range(nstruct + nslack))
    status = _run_simplex(tableau, cost, basis, allowed)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    full = [Fraction(0)] * ncols
    for i, bv in enumerate(basis):
        full[bv] = tableau[i][-1]
    if nonneg:
        point = tuple(full[:nx])
    else:
        point = tuple(full[i] - full[nx + i] for i in range(nx))
    value = dot(c_obj, point)
    if maximize:
        value = -value
    return LPResult(OPTIMAL, value, point)


def feasible_point(
    a_ub: Sequence[Sequence] = (),
    b_ub: Sequence = (),
    a_eq: Sequence[Sequence] = (),
    b_eq: Sequence = (),
    *,
    nvars: int | None = None,
    nonneg: bool = False,
) -> tuple[Fraction, ...] | None:
    """A point satisfying the constraints, or None."""
    if nvars is None:
        for row in list(a_ub) + list(a_eq):
            nvars = len(row)
            break
        else:
            raise ValueError("cannot infer the number of variables")
    res = solve_lp([0] * nvars, a_ub, b_ub, a_eq, b_eq, nonneg=nonneg)
    return res.point if res.status == OPTIMAL else None


def cone_contains(generators: Sequence[Sequence], x: Sequence) -> bool:
    """Whether x lies in the cone positively spanned by the generators."""
    gens = list(generators)
    if not gens:
        return all(v == 0 for v in x)
    dim = len(gens[0])
    a_eq = [[g[i] for g in gens] for i in range(dim)]
    return feasible_point(a_eq=a_eq, b_eq=list(x), nonneg=True) is not None


def is_pointed(generators: Sequence[Sequence]) -> bool:
    """Whether cone(generators) is strongly convex (contains no line)."""
    gens = [g for g in generators if any(v != 0 for v in g)]
    if not gens:
        return True
    dim = len(gens[0])
    a_ub = [[-v for v in g] for g in gens]  # <w,g> >= 1
    b_ub = [-1] * len(gens)
    return feasible_point(a_ub, b_ub, nvars=dim) is not None


def is_face_subset(zero_gens: Sequence[Sequence], pos_gens: Sequence[Sequence], dim: int) -> bool:
    """Supporting-hyperplane test.

    True iff some functional w vanishes on all of ``zero_gens`` and is
    strictly positive on all of ``pos_gens``, i.e. cone(zero_gens) is a
    face of cone(zero_gens + pos_gens).
    """
    a_eq = [list(g) for g in zero_gens]
    b_eq = [0] * len(a_eq)
    a_ub = [[-v for v in g] for g in pos_gens]
    b_ub = [-1] * len(a_ub)
    return feasible_point(a_ub, b_ub, a_eq, b_eq, nvars=dim) is not None


def relative_interior_functional(rows: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], list[int]]:
    """Relative-interior point of the cone ``{w : row . w >= 0}``.

    Returns ``(w, implicit)`` where ``implicit`` lists the rows that
    vanish on the whole cone; every other row is >= 1 at w.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return (), []
    dim = len(rows[0])
    k = len(rows)
    # Variables (w, t): maximize sum t_i with row.w >= t_i, 0 <= t_i <= 1.
    a_ub = []
    b_ub = []
    for i, r in enumerate(rows):
        row = [-v for v in r] + [0] * k
        row[dim + i] = 1
        a_ub.append(row)  # t_i - row.w <= 0
        b_ub.append(0)
        cap = [0] * (dim + k)
        cap[dim + i] = 1
        a_ub.append(cap)  # t_i <= 1
        b_ub.append(1)
        low = [0] * (dim + k)
        low[dim + i] = -1
        a_ub.append(low)  # t_i >= 0
        b_ub.append(0)
    objective = [0] * dim + [1] * k
    res = solve_lp(objective, a_ub, b_ub, maximize=True)
    if res.status != OPTIMAL:  # w = 0, t = 0 is feasible and t is capped
        raise ToricError(f"internal: relative-interior LP ended {res.status}")
    w = res.point[:dim]
    implicit = [i for i, r in enumerate(rows) if dot(r, w) == 0]
    return w, implicit


def max_over_cone_is_zero(objective: Sequence, rows: Sequence[Sequence]) -> bool:
    """Whether sup of ``objective . w`` over ``{w : row.w >= 0}`` is 0.

    Over a cone the supremum is either 0 or +infinity, so this reports
    boundedness of the objective.
    """
    if not rows:
        return all(v == 0 for v in objective)
    a_ub = [[-v for v in r] for r in rows]
    b_ub = [0] * len(rows)
    res = solve_lp(objective, a_ub, b_ub, maximize=True)
    return res.status == OPTIMAL

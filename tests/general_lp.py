"""General exact rational linear programming: the test referees' LP.

The library solves every LP in one homogeneous form from the slack
basis (``toricvol.lp``).  The referees of the older formulations
(Gordan's alternative, the 3k-row relative interior, the all-LP fan
diagnostics, the functional projectivity LP) need equality rows, free
variables and infeasible systems, so they run this general solver and
share no kernel with the code they check.

A small two-phase primal simplex with Bland's rule, so every answer is
exact and termination is guaranteed.  Problem sizes in this package are
tiny (tens of variables), which makes the dense tableau the right tool.

The tableau is integral: each input row is scaled, with its right-hand
side, to integers by the lcm of its denominators, and the tableau keeps
one common denominator ``D > 0``, an entry ``x`` standing for ``x / D``.
Pivots are Edmonds' integer-preserving elimination (the one lrs and cdd
use): every other row becomes ``(p * row - row[c] * pivot_row) // D``
with ``p`` the pivot entry, then ``D = |p|``; Sylvester's identity makes
every division exact.  On integer data this is step for step the pivot
sequence of the same simplex over ``Fraction`` entries, and a
``Fraction`` is built only for the returned point, after the point has
been checked against every input row in integers.

Variables are free unless ``nonneg=True``; free variables are split
into positive and negative parts internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from toricvol.errors import ToricError
from toricvol.linalg import dot, integer_pivot, to_integers

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None


def _run_simplex(tableau, basis, allowed, denom):
    """Minimize until no allowed column has negative reduced cost.

    The last tableau row holds the reduced costs.  Returns the status
    and the final common denominator.  The ratio test compares
    ``rhs / entry`` by cross-multiplication, ties going to the lowest
    basic index (Bland's rule).
    """
    cost = tableau[-1]
    while True:
        enter = next((j for j in allowed if cost[j] < 0), None)
        if enter is None:
            return OPTIMAL, denom
        leave = None
        for i in range(len(basis)):
            a = tableau[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = tableau[i][-1] * tableau[leave][enter]
                rhs = tableau[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            return UNBOUNDED, denom
        denom = integer_pivot(tableau, leave, enter, denom)
        basis[leave] = enter
        cost = tableau[-1]


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
    if len(a_ub) != len(b_ub) or len(a_eq) != len(b_eq):
        raise ValueError("every constraint row needs one right-hand side")
    if any(len(row) != nx for row in (*a_ub, *a_eq)):
        raise ValueError(f"every constraint row needs {nx} entries, one per variable")

    # Integer rows, each with its right-hand side last.
    inputs = [(to_integers([*row, b])[0], "ub") for row, b in zip(a_ub, b_ub)]
    inputs += [(to_integers([*row, b])[0], "eq") for row, b in zip(a_eq, b_eq)]

    # Structural columns: x itself, or the split x = p - m for free vars.
    nstruct = nx if nonneg else 2 * nx
    nslack = sum(1 for _, kind in inputs if kind == "ub")
    m = len(inputs)
    ncols = nstruct + nslack + m  # artificials at the end
    tableau = []
    si = 0
    for i, (values, kind) in enumerate(inputs):
        row = values[:-1]
        if not nonneg:
            row += [-v for v in row]
        row += [0] * (nslack + m) + [values[-1]]
        if kind == "ub":
            row[nstruct + si] = 1
            si += 1
        if row[-1] < 0:
            row = [-x for x in row]
        row[nstruct + nslack + i] = 1
        tableau.append(row)
    basis = [nstruct + nslack + i for i in range(m)]
    denom = 1

    # Phase 1: minimize the sum of artificials; the cost row goes last.
    cost = [0] * (ncols + 1)
    for j in range(nstruct + nslack, ncols):
        cost[j] = 1
    for row in tableau:
        cost = [a - b for a, b in zip(cost, row)]
    tableau.append(cost)
    status, denom = _run_simplex(tableau, basis, range(ncols), denom)
    if status != OPTIMAL:  # the phase 1 objective is bounded below by 0
        raise ToricError("internal: phase 1 of the simplex reported an unbounded objective")
    if tableau[-1][-1] != 0:
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
            denom = integer_pivot(tableau, i, col, denom)
            basis[i] = col
        keep.append(i)
    tableau = [tableau[i] for i in keep]  # the phase 1 cost row goes too
    basis = [basis[i] for i in keep]

    # Phase 2: the real objective (times a positive integer), artificial
    # columns frozen out; the reduced costs are D * c - sum c_B_i * row_i.
    c_int = to_integers(objective)[0]
    if maximize:
        c_int = [-v for v in c_int]
    cfull = (c_int if nonneg else c_int + [-v for v in c_int]) + [0] * (nslack + m + 1)
    cost = [denom * v for v in cfull]
    for row, bv in zip(tableau, basis):
        f = cfull[bv]
        if f:
            cost = [a - f * b for a, b in zip(cost, row)]
    tableau.append(cost)
    status, denom = _run_simplex(tableau, basis, range(nstruct + nslack), denom)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    full = [0] * ncols
    for row, bv in zip(tableau, basis):
        full[bv] = row[-1]
    numer = full[:nx] if nonneg else [full[i] - full[nx + i] for i in range(nx)]
    _check_certificate(inputs, full[:nstruct], numer, denom)
    point = tuple(Fraction(v, denom) for v in numer)
    return LPResult(OPTIMAL, dot(map(Fraction, objective), point), point)


def _check_certificate(inputs, structural, numer, denom):
    """Check the point numer / denom against every integer input row."""
    if any(v < 0 for v in structural):
        raise ToricError("internal: the simplex returned a negative structural variable")
    for values, kind in inputs:
        lhs = dot(values[:-1], numer)
        rhs = values[-1] * denom
        if lhs > rhs or (kind == "eq" and lhs != rhs):
            raise ToricError("internal: the simplex point violates an input row")


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

    One LP on nonnegative variables (p, m, t) with w = p - m: maximize
    sum t_i under t_i - row_i . w <= 0 and t_i <= 1, so 2k rows.  Since
    t >= 0, w lies in the cone.  Scaling a relative-interior point puts
    every row that does not vanish on the cone at >= 1, so the optimum
    is their number, and at every optimum those rows have t_i = 1 and
    row . w >= 1 while the implicit ones are 0.  The implicit set is
    thus the same whichever optimal vertex the pivots reach.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return (), []
    dim = len(rows[0])
    k = len(rows)
    a_ub = []
    b_ub = []
    for i, r in enumerate(rows):
        t = [0] * k
        t[i] = 1
        a_ub.append([-v for v in r] + list(r) + t)  # t_i - row.(p - m) <= 0
        b_ub.append(0)
        a_ub.append([0] * (2 * dim) + t)  # t_i <= 1
        b_ub.append(1)
    objective = [0] * (2 * dim) + [1] * k
    res = solve_lp(objective, a_ub, b_ub, maximize=True, nonneg=True)
    if res.status != OPTIMAL:  # w = 0, t = 0 is feasible and t is capped
        raise ToricError(f"internal: relative-interior LP ended {res.status}")
    w = tuple(a - b for a, b in zip(res.point[:dim], res.point[dim : 2 * dim]))
    scaled = to_integers(w)[0]
    implicit = [i for i, r in enumerate(rows) if dot(r, scaled) == 0]
    return w, implicit


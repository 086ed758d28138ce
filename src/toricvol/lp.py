"""Exact rational linear programming in one homogeneous form.

Every LP of this package asks for a functional w that puts some rows at
or above a gap t and keeps the others at or above 0, with t capped at 1
(``gap_lp``).  Every right-hand side is then 0 or 1, so the slack basis
x = 0 is feasible and one phase of the primal simplex solves it
(``solve_lp``, maximizing over ``A x <= b, x >= 0`` with ``b >= 0``).
Bland's rule guarantees termination.  Problem sizes in this package are
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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ToricError
from .linalg import dot, integer_pivot, to_integers

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None


def _run_simplex(tableau, basis):
    """Minimize until no column has negative reduced cost.

    The last tableau row holds the reduced costs.  Returns the status
    and the final common denominator.  The ratio test compares
    ``rhs / entry`` by cross-multiplication, ties going to the lowest
    basic index (Bland's rule).
    """
    denom = 1
    cost = tableau[-1]
    while True:
        enter = next((j for j, c in enumerate(cost[:-1]) if c < 0), None)
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


def solve_lp(objective: Sequence, a_ub: Sequence[Sequence], b_ub: Sequence) -> LPResult:
    """Maximize ``objective . x`` over ``a_ub x <= b_ub``, ``x >= 0``, from the slack basis.

    Raises ValueError unless every right-hand side is >= 0, which is
    what makes x = 0 a feasible start.
    """
    nx = len(objective)
    if len(a_ub) != len(b_ub):
        raise ValueError("every constraint row needs one right-hand side")
    if any(len(row) != nx for row in a_ub):
        raise ValueError(f"every constraint row needs {nx} entries, one per variable")
    if any(b < 0 for b in b_ub):
        raise ValueError("every right-hand side must be >= 0, so that x = 0 is feasible")

    # Integer rows, each with its right-hand side last; the slacks are basic.
    inputs = [to_integers([*row, b])[0] for row, b in zip(a_ub, b_ub)]
    m = len(inputs)
    tableau = []
    for i, values in enumerate(inputs):
        slack = [0] * m
        slack[i] = 1
        tableau.append(values[:-1] + slack + values[-1:])
    # Reduced costs of minimizing -objective, cleared to c / q.
    c, q = to_integers(objective)
    tableau.append([-v for v in c] + [0] * (m + 1))
    basis = list(range(nx, nx + m))
    status, denom = _run_simplex(tableau, basis)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)

    full = [0] * (nx + m)
    for row, bv in zip(tableau, basis):
        full[bv] = row[-1]
    numer = full[:nx]
    _check_certificate(inputs, numer, denom)
    point = tuple(Fraction(v, denom) for v in numer)
    return LPResult(OPTIMAL, Fraction(dot(c, numer), q * denom), point)


def _check_certificate(inputs, numer, denom):
    """Check the point numer / denom against x >= 0 and every integer input row."""
    if any(v < 0 for v in numer):
        raise ToricError("internal: the simplex returned a negative variable")
    if any(dot(values[:-1], numer) > values[-1] * denom for values in inputs):
        raise ToricError("internal: the simplex point violates an input row")


def gap_lp(rows: Sequence[Sequence], gaps: Sequence, dim: int):
    """The capped-gap LP: ``(w, t)`` for free w in Q^dim maximizing sum t_g.

    Row i holds ``row_i . w >= t_g`` when ``gaps[i]`` is a gap index g
    and ``row_i . w >= 0`` when it is None; every gap is capped,
    ``0 <= t_g <= 1``.  Variables (p, m, t) >= 0 with w = p - m, one LP
    row per input row and one cap per gap, every right-hand side 0 or 1.

    The LP is homogeneous, so at every optimum t_g is 1 when some w
    feasible for the rows puts every row of gap g above 0, and 0
    otherwise: the sum of such points, one per gap, scaled, opens all
    those gaps at once.  So t reads the same whichever optimal vertex
    the pivots reach.
    """
    ngaps = 1 + max((g for g in gaps if g is not None), default=-1)
    cols = 2 * dim
    a_ub = []
    for row, g in zip(rows, gaps):
        gap = [0] * ngaps
        if g is not None:
            gap[g] = 1
        a_ub.append([-v for v in row] + list(row) + gap)  # t_g - row.(p - m) <= 0
    b_ub = [0] * len(a_ub) + [1] * ngaps
    for g in range(ngaps):
        cap = [0] * (cols + ngaps)
        cap[cols + g] = 1
        a_ub.append(cap)  # t_g <= 1
    res = solve_lp([0] * cols + [1] * ngaps, a_ub, b_ub)
    if res.status != OPTIMAL:  # w = 0, t = 0 is feasible and t is capped
        raise ToricError(f"internal: capped-gap LP ended {res.status}")
    x = res.point
    return tuple(a - b for a, b in zip(x[:dim], x[dim:cols])), x[cols:]


def cone_contains(generators: Sequence[Sequence], x: Sequence) -> bool:
    """Whether x lies in the cone positively spanned by the generators.

    By Farkas, x lies outside exactly when some w is >= 0 on every
    generator and < 0 at x, that is when the gap on the row -x opens.
    """
    rows = [*generators, [-v for v in x]]
    _, (t,) = gap_lp(rows, [None] * (len(rows) - 1) + [0], len(x))
    return t == 0


def is_pointed(generators: Sequence[Sequence]) -> bool:
    """Whether cone(generators) is strongly convex (contains no line).

    It is when one functional is positive on every nonzero generator:
    one gap shared by all of them.
    """
    gens = [g for g in generators if any(v != 0 for v in g)]
    if not gens:
        return True
    _, (t,) = gap_lp(gens, [0] * len(gens), len(gens[0]))
    return t == 1


def is_face_subset(zero_gens: Sequence[Sequence], pos_gens: Sequence[Sequence], dim: int) -> bool:
    """Supporting-hyperplane test.

    True iff some functional w vanishes on all of ``zero_gens`` and is
    strictly positive on all of ``pos_gens``, i.e. cone(zero_gens) is a
    face of cone(zero_gens + pos_gens): the rows of ``zero_gens`` and
    their negatives carry no gap, those of ``pos_gens`` share one.
    """
    rows = [*zero_gens, *([-v for v in g] for g in zero_gens), *pos_gens]
    _, t = gap_lp(rows, [None] * (2 * len(zero_gens)) + [0] * len(pos_gens), dim)
    return all(t)


def relative_interior_functional(rows: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], list[int]]:
    """Relative-interior point of the cone ``{w : row . w >= 0}``.

    Returns ``(w, implicit)`` where ``implicit`` lists the rows that
    vanish on the whole cone; every other row is >= 1 at w.

    One capped-gap LP with a gap of its own per row, so 2k rows: the
    gaps that stay closed are exactly the implicit rows, whichever
    optimal vertex the pivots reach.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return (), []
    w, t = gap_lp(rows, range(len(rows)), len(rows[0]))
    return w, [i for i, ti in enumerate(t) if ti == 0]

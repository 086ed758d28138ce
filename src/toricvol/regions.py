"""Half-open polyhedral regions attached to a divisor and a ray subset.

For a fan with rays v_rho and a divisor with coefficients d_rho, the
region of a ray subset W consists of the points u with

    <u, v_rho> >= -d_rho   exactly when rho is in W,

so the constraint is weak on W and strictly reversed off W.  Ranging
over all subsets these regions partition the whole space.  Boundedness
of a region depends only on the subset, never on the divisor, and it is
read off the sign vectors of the normals' cocircuits with no LP: the
region of W is unbounded exactly when the normals do not span the space
or some cocircuit, with either sign, is positive only on W and negative
only off W.  The patterns come once per normal set from the kernels of
its (n - 1)-subsets in integers; a region sum tests only the weak sets
its divisor realizes, never all 2^k.

Everything here is exact.  Vertex enumeration runs in integers: it
reads the integer inverse of every rank-n basis of normals over one
common denominator (``fan._basis_inverses``, the per-fan table that the
Cartier data of ``divisor`` and the chamber systems of ``gkz`` read
too).  The levels are cleared once to integers L over their lcm q, and
each row's lattice bound ceil(L_i / q) is one floor division of them.
Each arrangement vertex P is classified by two bitmasks: the rows above
it (<v, P> > level) and the rows tight at it (<v, P> = level).  A
region's closure has exactly the vertices whose above rows are weak and
whose below rows are strict, with the tight masks as their facet data.

That classification is constant on a type cell: the set of divisors on
which the sign of every (n + 1) x (n + 1) minor of [V | d] is fixed
(McMullen 1973).  Once per normal set, ``_Arrangement`` takes the
integer dependency lam of every spanning (n + 1)-subset S of normals,
read off a basis inverse, and the sign of the circuit value <lam, L_S>
at the levels places row i against the vertex of the basis S - {i}.  A
divisor's cell key is the tuple of its circuit signs, unchanged under
linear equivalence and positive scaling.  Each memo keeps the cells it
meets (``_TypeCell``, at most ``CELL_BUDGET`` entries per memo): one
vertex per tight set with its basis and masks, classified from the
signs alone with no point solved, and, filled on first use, the
realized bounded masks of a region sum, each realized region's
triangulation and the located chamber of ``gkz.locate_chamber``.  A
divisor solves only the vertices of the regions it asks about,
P_B = A_B . L_B, once each: ``_DivisorSlot`` keeps them with the
divisor's row bounds, and each memo holds the slot of its last divisor.
``region_sum`` measures a realized region straight off that slot and
the region's weak mask, with no region object: its measure is one of
two integer kernels, ``_slot_count`` (the slot's row bounds and the
mask's solved vertices) and ``_slot_volume`` (those vertices and the
triangulation the cell keeps under the mask).  A standalone
``HalfOpenRegion`` feeds the same integer core from its own vertex
table and row bounds, each computed at most once per object, on first
use.  Volumes come from a pulling
triangulation on those integer vertices, taken in basis order, the
order of the cell's vertices: each face's apex is its first vertex,
each facet is read off the tight masks, and its affine rank comes from
a fraction-free elimination of integer edge vectors.  The face lattice
of a region is fixed on its type cell (Lawrence 1991: one triangulation
serves every polytope of one combinatorial type), so a kept cell keeps
each region's simplices as vertex positions, and a later divisor of the
cell takes only each simplex's |det|, an n x n integer elimination.  On
an open chamber the section polytope's simplices keep their signs and
its vertices move linearly with d, so its volume is a polynomial whose
mixed partials ``_volume_partial`` reads off in integer determinants.
No ``Fraction`` is built inside a volume but its answer.  Lattice
points are counted one plane at a time.  Above each integer point of
the bounding box's first n - 2 coordinates, the mixed weak/strict
system, each row made one weak integer inequality, cuts a 2-D slice;
its count walks the slice's lower and upper envelopes along the
second-to-last coordinate and adds each run between envelope changes
with two floor sums (the lattice points under a segment, by the
Euclid-like recursion of ``floor_sum``).  A slice costs
O(k^2 + k log m), independent of its width, so a region of m*D costs
about m^(n-2) slices, and one of a 2-D fan a bounded number of integer
steps for every m.  Listing points keeps the fibers of the last
coordinate: above each integer point of the first n - 1 coordinates the
system cuts the line to one integer interval, found with integer floor
divisions.  At most ``FIBER_BUDGET`` slices
(for a count) or fibers (for a listing) are visited before
CapExceededError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import combinations, permutations, product
from operator import itemgetter, mul
from typing import Callable

from .divisor import Divisor, _check_length
from .errors import CapExceededError, UnboundedRegionError
from .fan import Fan, _basis_inverses, _check_rays
from .linalg import (
    _kernel_direction,
    _point_integers,
    affine_rank,
    dot,
    integer_eliminate,
    rank,
    to_integers,
)


# Fixed work caps; past either one, CapExceededError.  A region sum visits
# at most 2^SUBSET_CAP ray subsets, the sweep ``bounded_subsets`` takes at
# most SUBSET_CAP rays, and a lattice count or listing visits at most
# FIBER_BUDGET integer prefixes of the bounding box per region: of the
# first n - 2 coordinates for a count (its 2-D slices), of the first
# n - 1 for a listing (its fibers).
SUBSET_CAP = 20
FIBER_BUDGET = 10**7
# Each normal set's memo keeps at most CELL_BUDGET entries of type cells:
# one per circuit sign of a kept cell's key and one per vertex, one per
# (region, vertex) incidence of its realized regions once those are kept
# too, and one per simplex of each region triangulation it keeps (one for
# the empty triangulation of a lower-dimensional region).  Past it, new
# cells are built and used but not kept, and a kept cell keeps no more.
CELL_BUDGET = 2**11


def _no_cache(key, compute):
    """Memo stand-in for regions built outside a fan: compute, keep nothing."""
    return compute()


@dataclass(frozen=True)
class HalfOpenRegion:
    """One mixed weak/strict linear system, one constraint per ray.

    ``memo`` stores the facts that depend only on the normals (cocircuit
    patterns, basis inverses, negated normals).  Regions of a fan carry
    the fan's memo, so those facts are computed once per fan; the
    default computes them afresh on every call.  The integer data the
    public measures read, ``vertex_table``, ``triangulation`` and
    ``row_bounds``, is computed at most once per region object, on first
    use.  ``region_sum`` builds no region: it measures off its divisor's
    slot.  Raises ValueError unless ``normals``, ``levels`` and ``weak``
    have one entry per row and every normal has ``dim`` entries.
    """

    normals: tuple[tuple[int, ...], ...]
    levels: tuple[Fraction, ...]
    weak: tuple[bool, ...]
    dim: int
    memo: Callable = field(default=_no_cache, compare=False, repr=False)

    def __post_init__(self):
        k = len(self.normals)
        if len(self.levels) != k or len(self.weak) != k or set(map(len, self.normals)) - {self.dim}:
            raise ValueError(
                f"a region needs one level and one weak flag per normal and {self.dim} entries "
                f"per normal; got {k} normals, {len(self.levels)} levels, {len(self.weak)} flags"
            )

    def contains(self, point) -> bool:
        """Whether the point, read at its exact value (``linalg._point_integers``), lies inside."""
        coordinates, p = _point_integers(point)
        for normal, level, is_weak in zip(self.normals, self.levels, self.weak):
            value = dot(normal, coordinates)
            if is_weak:
                if value < p * level:
                    return False
            elif value >= p * level:
                return False
        return True

    @cached_property
    def vertex_table(self):
        """The closure's integer vertices ({P: tight}, scale) of ``_integer_vertices``."""
        return _integer_vertices(self)

    @cached_property
    def triangulation(self) -> tuple[tuple[int, ...], ...]:
        """The closure's pulling triangulation, each simplex as positions in ``vertex_table``.

        Empty when the closure has lower dimension (``_triangulation``).
        """
        points, _ = self.vertex_table
        return _triangulation(tuple(points), tuple(points.values()), self.dim)

    @cached_property
    def row_bounds(self) -> tuple[int, ...]:
        """Each row's integer bound ceil(level), from one clearing of the levels."""
        return _ceilings(*to_integers(self.levels))


def _ceilings(levels, q: int):
    """ceil(L_i / q) for the integer levels L over q, each by one floor division.

    At a lattice point x, where <v, x> is an integer, <v, x> >= L_i / q
    exactly when <v, x> >= ceil(L_i / q).
    """
    return tuple(-(-x // q) for x in levels)


def _weak_mask(weak) -> int:
    """The weak flags as a bitmask, bit i for row i."""
    return sum(1 << i for i, is_weak in enumerate(weak) if is_weak)


@dataclass(frozen=True)
class RationalPolytope:
    vertices: tuple[tuple[Fraction, ...], ...]


def region(fan: Fan, d: Divisor, weak_rays) -> HalfOpenRegion:
    """The region of the given ray subset for the given divisor.

    Raises ValueError unless d has one coefficient per ray and every
    entry of the subset is a ray index.
    """
    _check_length(fan, d)
    subset = _check_rays(fan, weak_rays)
    return HalfOpenRegion(
        normals=fan.rays,
        levels=_levels(*to_integers(d)),
        weak=tuple(i in subset for i in range(len(fan.rays))),
        dim=fan.dim,
        memo=fan.memo,
    )


def _unbounded_patterns(normals, dim: int, memo):
    """The sign patterns (pos, neg) of the normals' cocircuits, as bitmasks.

    Each kernel line u of n - 1 independent normals gives the rows with
    <u, v> > 0 (pos) and < 0 (neg), once for u and once for -u.  When
    the normals do not span the space, the single pattern (0, 0) of a u
    orthogonal to all of them stands for every pattern.  Depends on the
    normals only, so it is kept once in the given memo (a fan's, or a
    region's own).
    """

    def compute():
        if rank(normals) < dim:
            return ((0, 0),)
        patterns = set()
        for combo in combinations(normals, dim - 1):
            u = _kernel_direction(combo, dim)
            if u is None:
                continue
            pos = neg = 0
            for i, normal in enumerate(normals):
                value = sum(map(mul, u, normal))
                if value > 0:
                    pos |= 1 << i
                elif value < 0:
                    neg |= 1 << i
            patterns.add((pos, neg))
            patterns.add((neg, pos))
        return tuple(sorted(patterns))

    return memo("cocircuits", compute)


def _bounded_mask(patterns, weak: int) -> bool:
    """Whether every pattern (pos, neg) has pos outside or neg inside the weak mask."""
    return all(pos & ~weak or neg & weak for pos, neg in patterns)


def _is_bounded(normals, dim: int, memo, weak: int) -> bool:
    """Whether the closure of the weak mask's region of these normals is bounded.

    The recession cone is {u : <u, r> >= 0} over the rows r = v on weak
    rays and r = -v off them.  If the normals do not span the space it
    holds a line.  Otherwise it is pointed, so it is {0} unless it has
    an extreme ray, which lies on n - 1 independent tight rows: a
    cocircuit direction u with <u, v> >= 0 on W and <= 0 off W, i.e.
    pos(u) inside W and neg(u) outside.  One mask test per pattern of
    ``_unbounded_patterns`` decides it, with no LP.
    """
    return _bounded_mask(_unbounded_patterns(normals, dim, memo), weak)


def is_bounded_subset(fan: Fan, weak_rays) -> bool:
    """Whether the region of this subset is bounded (for every divisor).

    One mask test against the fan's cocircuit patterns; raises
    ValueError unless every entry of the subset is a ray index.
    """
    subset = _check_rays(fan, weak_rays)
    return _is_bounded(fan.rays, fan.dim, fan.memo, sum(1 << i for i in subset))


def bounded_subsets(fan: Fan) -> tuple[frozenset[int], ...]:
    """All ray subsets with bounded regions, by size, then lexicographically.

    Every subset is tested against the fan's cocircuit patterns; the
    2^k enumeration is capped at ``SUBSET_CAP`` rays and not memoized.
    """
    k = len(fan.rays)
    if k > SUBSET_CAP:
        raise CapExceededError(
            f"fan has {k} rays; the 2^k bounded-subset sweep is capped at {SUBSET_CAP}"
        )
    patterns = _unbounded_patterns(fan.rays, fan.dim, fan.memo)
    return tuple(
        frozenset(combo)
        for size in range(k + 1)
        for combo in combinations(range(k), size)
        if _bounded_mask(patterns, sum(1 << i for i in combo))
    )


class _Arrangement:
    """The type-cell machinery of one normal set, built once per memo.

    ``bases`` has one entry (combo, adjugate, basis, bits, codes) per
    invertible n-subset of the normals, in the order of
    ``fan._basis_inverses``: ``adjugate`` is its integer inverse over
    ``common``, ``basis`` its bitmask, and ``bits`` and ``codes`` name
    the rows outside it with the sign that places each (below).
    ``circuits`` has one entry (getter, lam) per (n + 1)-subset S that
    spans, met as B + {i} for the first basis B inside it: ``getter``
    reads L_S off the levels and lam is the integer dependency of S,
    lam_B = v_i . A_B and lam_i = -common.  With L the integer levels and
    P_B = A_B . L_B the vertex of a basis B inside S and i = S - B,

        sign(<v_i, P_B> - common * L_i) = -sign(lam_i) * sign(<lam, L_S>),

    since the dependency that B gives is a multiple of lam with a
    negative entry at i.  So a row's code is 2c for circuit c when
    lam_i < 0 and 2c + 1 otherwise, entry 2c + 1 of a cell's sign list
    being the negated sign.  ``cells`` holds the type cells met so far
    by their keys, and ``entries`` the entries they keep, at most
    ``CELL_BUDGET``.
    """

    def __init__(self, normals, dim: int, memo):
        self.common, inverses = _basis_inverses(normals, dim, memo)
        found: dict = {}
        circuits = []
        self.bases = []
        for combo, adjugate in inverses.items():
            basis = sum(1 << i for i in combo)
            columns = tuple(zip(*adjugate))
            bits, codes = [], []
            for i, normal in enumerate(normals):
                bit = 1 << i
                if basis & bit:
                    continue
                circuit = found.get(basis | bit)
                if circuit is None:
                    lam = [sum(map(mul, normal, column)) for column in columns]
                    lam.append(-self.common)
                    indices = combo + (i,)
                    negative = 0
                    for j, x in zip(indices, lam):
                        if x < 0:
                            negative |= 1 << j
                    circuit = found[basis | bit] = (2 * len(circuits), negative)
                    circuits.append((itemgetter(*indices), lam))
                code, negative = circuit
                bits.append(bit)
                codes.append(code if negative & bit else code + 1)
            self.bases.append((combo, adjugate, basis, tuple(bits), tuple(codes)))
        self.circuits = tuple(circuits)
        self.cells: dict = {}
        self.entries = 0

    def admit(self, size: int) -> bool:
        """Whether ``size`` more entries fit in ``CELL_BUDGET``; if so they are counted.

        Not atomic: callers admitting at the same moment in other threads
        may each pass, so the budget holds up to their concurrent cells.
        """
        if self.entries + size > CELL_BUDGET:
            return False
        self.entries += size
        return True


def _arrangement(normals, dim: int, memo) -> _Arrangement:
    return memo("arrangement", lambda: _Arrangement(normals, dim, memo))


class _TypeCell:
    """What every divisor of one type cell shares: its arrangement combinatorics.

    ``vertices`` has one triple (basis, above, tight) per distinct
    arrangement vertex, the first basis in basis order that meets it,
    with the bitmasks of the rows above it and tight at it.  ``visits``
    is the number of candidate weak sets, sum 2^|tight|, that a region
    sum visits.  Filled later, once: ``masks``, the realized bounded
    masks of ``_realized_masks`` (when ``kept``, only within the budget),
    and ``chamber``, the located chamber of ``gkz.locate_chamber``.
    ``simplices`` maps a realized mask to its region's pulling
    triangulation, as positions in the region's vertices in basis
    order, filled per mask by ``_cell_simplices`` as ``_slot_volume``
    measures regions and as ``_volume_partial`` reads the section
    polytope (all rows weak), only when ``kept`` and within the budget.
    The face lattice of each region is fixed on the cell, so one
    triangulation serves every divisor of it.
    """

    __slots__ = ("vertices", "visits", "kept", "masks", "chamber", "simplices")

    def __init__(self, vertices):
        self.vertices = vertices
        self.visits = sum(1 << tight.bit_count() for _, _, tight in vertices)
        self.kept = False
        self.masks = None
        self.chamber = None
        self.simplices = {}


def _cell_key(arrangement: _Arrangement, integers) -> tuple[int, ...]:
    """The type cell of the integer levels L: the sign of every circuit value <lam, L_S>.

    It does not change under L -> L + q div(chi^u), since lam is a
    dependency of its rays, nor under positive scaling.
    """
    values = [sum(map(mul, lam, get(integers))) for get, lam in arrangement.circuits]
    return tuple((value > 0) - (value < 0) for value in values)


def _type_cell(arrangement: _Arrangement, integers) -> _TypeCell:
    """The type cell of the integer levels L, built from its circuit signs on a miss.

    A new cell classifies every basis's vertex from the signs alone, with
    no point solved, and keeps one vertex per tight set: a tight set
    holds a basis, so it fixes its point.  It is kept while the budget
    lasts.
    """
    key = _cell_key(arrangement, integers)
    cell = arrangement.cells.get(key)
    if cell is not None:
        return cell
    # Entry 2c is the sign of circuit c, entry 2c + 1 its negative.
    signs = [0] * (2 * len(key))
    signs[::2] = key
    signs[1::2] = [-x for x in key]
    seen = set()
    vertices = []
    for b, (_, _, tight, bits, codes) in enumerate(arrangement.bases):
        above = 0
        for bit, code in zip(bits, codes):
            sign = signs[code]
            if sign > 0:
                above |= bit
            elif not sign:
                tight |= bit
        if tight not in seen:
            seen.add(tight)
            vertices.append((b, above, tight))
    cell = _TypeCell(tuple(vertices))
    if arrangement.admit(len(key) + len(vertices)):
        cell.kept = True
        arrangement.cells[key] = cell
    return cell


def _levels(coefficients, q: int):
    """The exact levels -d_i of the cleared divisor q * d: ints when q = 1."""
    if q == 1:
        return tuple(-x for x in coefficients)
    return tuple(Fraction(-x, q) for x in coefficients)


@dataclass(eq=False, slots=True)
class _DivisorSlot:
    """One divisor's view of its type cell: its points, row bounds and amounts.

    ``key`` is (q * d, q), the divisor cleared to integers.  Each vertex
    point P_B = A_B . L_B is solved on first use and kept in ``points``
    by basis; ``region_sum`` fills its realized masks and amounts, and
    ``_slot_count`` its row bounds, on first use.
    """

    key: tuple
    arrangement: _Arrangement
    cell: _TypeCell
    points: dict = field(default_factory=dict)
    masks: tuple | None = None
    amounts: dict = field(default_factory=dict)
    bounds: tuple | None = None

    @property
    def scale(self) -> int:
        return self.arrangement.common * self.key[1]

    def point(self, b: int):
        """The integer point of basis b; the vertex is point / scale."""
        point = self.points.get(b)
        if point is None:
            combo, adjugate, *_ = self.arrangement.bases[b]
            coefficients = self.key[0]
            rhs = [-coefficients[i] for i in combo]
            point = self.points[b] = tuple(sum(map(mul, row, rhs)) for row in adjugate)
        return point


def _divisor_slot(normals, dim: int, memo, coefficients, q: int, keep: bool = False) -> _DivisorSlot:
    """The slot of the cleared divisor q * d = ``coefficients``: the memo's last one if it matches.

    Otherwise a new slot, on the type cell of the levels -q * d.  With
    ``keep`` the new slot replaces the held one, in one assignment so
    that concurrent calls need no lock, unless its cell visits more than
    2^SUBSET_CAP candidate subsets.
    """
    key = (tuple(coefficients), q)
    last = memo("last_divisor", lambda: [None])
    held = last[0]
    if held is not None and held[0] == key:
        return held[1]
    arrangement = _arrangement(normals, dim, memo)
    slot = _DivisorSlot(key, arrangement, _type_cell(arrangement, [-x for x in coefficients]))
    if keep and slot.cell.visits <= 1 << SUBSET_CAP:
        last[0] = (key, slot)
    return slot


def _vertex_table(slot: _DivisorSlot, weak: int):
    """({P: tight}, scale) for the vertices of the weak mask's closure, in basis order.

    Those are the vertices P with above(P) <= W <= above(P) | tight(P):
    every row above is weak and every row below strict.  Their order,
    that of the cell's vertices, is the same for every divisor of the
    cell, so a triangulation's positions hold across the cell.
    """
    point = slot.point
    table = {
        point(b): tight
        for b, above, tight in slot.cell.vertices
        if not above & ~weak and not weak & ~(above | tight)
    }
    return table, slot.scale


def _integer_vertices(reg: HalfOpenRegion):
    """The closure's vertices as integer points over one scale, with tight rows.

    Returns ({P: bitmask of the rows tight at P}, scale) of
    ``_unkept_table`` for the region's levels and weak mask.  Runs at
    most once per region object, through ``HalfOpenRegion.vertex_table``;
    ``region_sum`` builds no region, so never runs it.  Raises on
    systems with unbounded closure.
    """
    levels, q = to_integers(reg.levels)
    return _unkept_table(reg.normals, reg.dim, reg.memo, [-x for x in levels], q, _weak_mask(reg.weak))


def _polytope_table(normals, dim: int, memo, coefficients, q: int):
    """``_unkept_table`` of the polytope <u, v_i> >= -d_i, all rows weak."""
    return _unkept_table(normals, dim, memo, coefficients, q, (1 << len(normals)) - 1)


def _unkept_table(normals, dim: int, memo, coefficients, q: int, weak: int):
    """``_vertex_table`` of the weak mask's closure for d = coefficients / q.

    The pair is a divisor cleared as ``linalg.to_integers`` clears it.
    The table is read off the type cell of its levels in the memo,
    solving only the vertices kept: off the memo's last divisor's slot
    when it matches, which is not replaced otherwise.  Raises on an
    unbounded closure.
    """
    if not _is_bounded(normals, dim, memo, weak):
        raise UnboundedRegionError("region closure is unbounded")
    return _vertex_table(_divisor_slot(normals, dim, memo, coefficients, q), weak)


def closure_vertices(reg: HalfOpenRegion) -> RationalPolytope:
    """Vertices of the weak closure, sorted, as ``Fraction`` points.

    Every vertex is the unique solution of some n tight constraints, so
    it is an arrangement vertex, and the type cell of the levels tells
    which of them the closure keeps.
    They are read in integers off ``vertex_table``; a ``Fraction`` is
    built only here, for the answer.  Raises on systems with unbounded
    closure.
    """
    points, scale = reg.vertex_table
    vertices = (tuple(Fraction(x, scale) for x in point) for point in points)
    return RationalPolytope(vertices=tuple(sorted(vertices)))


def _triangulation(vertices, tight, dim: int) -> tuple[tuple[int, ...], ...]:
    """A pulling triangulation of a closure, as positions in its integer ``vertices``.

    ``tight`` holds each vertex's bitmask of tight rows, by position.
    Empty when the vertices span less than the whole space.  The
    positions follow the vertices' basis order, so the answer depends
    only on the closure's face lattice, which is fixed on a type cell.
    """
    if affine_rank(vertices) < dim:
        return ()
    return tuple(_simplices(vertices, tight, tuple(range(len(vertices))), dim))


def _simplices(vertices, tight, face, face_dim):
    """Pulling triangulation of a face, given by ascending positions in ``vertices``.

    The facets of the face avoiding its first vertex (the apex) are the
    sets {v in face : row i is tight at v} over the rows i not tight at
    the apex, kept when their affine rank is face_dim - 1.  ``tight``
    holds each vertex's bitmask of tight rows, by position.
    """
    if len(face) == face_dim + 1:
        yield face
        return
    apex = face[0]
    rows = 0
    for v in face:
        rows |= tight[v]
    rows &= ~tight[apex]
    seen = set()
    while rows:
        bit = rows & -rows
        rows ^= bit
        facet = tuple(v for v in face if tight[v] & bit)
        if facet in seen or affine_rank([vertices[v] for v in facet]) != face_dim - 1:
            continue
        seen.add(facet)
        for simplex in _simplices(vertices, tight, facet, face_dim - 1):
            yield (apex, *simplex)


def normalized_volume(reg: HalfOpenRegion) -> Fraction:
    """n! times the Euclidean volume of the region's weak closure.

    The strict boundary parts have measure zero, and an empty half-open
    region forces its closure onto a strict hyperplane, hence a
    lower-dimensional closure and volume zero either way.  It runs
    ``_volume`` on the region's own ``vertex_table`` and
    ``triangulation``.
    """
    points, scale = reg.vertex_table
    return _volume(tuple(points), reg.triangulation, scale, reg.dim)


def _volume(vertices, simplices, scale: int, n: int) -> Fraction:
    """The normalized volume of a triangulated closure on integer ``vertices`` / scale.

    Each simplex, as positions in ``vertices``, contributes |det| of its
    integer edge vectors: the final denominator of their fraction-free
    elimination.  The sum is divided by scale^n once, and no simplex
    (a lower-dimensional closure) gives volume zero.  A closure whose
    triangulation is known solves no facet: it takes only the n x n
    determinants.
    """
    total = 0
    for simplex in simplices:
        base = vertices[simplex[0]]
        edges = [[a - b for a, b in zip(vertices[v], base)] for v in simplex[1:]]
        total += integer_eliminate(edges, n)[1]
    return Fraction(total, scale**n)


def _integer_rows(normals, memo, bounds, weak: int):
    """Every row as one weak integer inequality <a, x> >= b, as pairs (a, b).

    Since <v, x> is an integer at lattice points, a weak row
    <v, x> >= L is <v, x> >= ceil(L) and a strict row <v, x> < L is
    <-v, x> >= 1 - ceil(L), with ceil(L) the row's entry of ``bounds``
    and the row weak when its bit of the ``weak`` mask is set.  The
    negated normals depend on the normals only and are kept in the
    memo.
    """
    negated = memo(
        "negated_normals", lambda: tuple(tuple(-x for x in normal) for normal in normals)
    )
    return [
        (normal, bound) if weak >> i & 1 else (minus, 1 - bound)
        for i, (normal, minus, bound) in enumerate(zip(normals, negated, bounds))
    ]


def _bounding_box(points, scale: int, depth: int):
    """The integer range of each coordinate over a closure, or None if it is empty.

    The ranges are floor divisions of the closure's integer vertices
    ``points`` over ``scale``.  Raises CapExceededError when the first
    ``depth`` ranges hold more than ``FIBER_BUDGET`` integer prefixes.
    """
    if not points:
        return None
    box = [range(-(-min(column) // scale), max(column) // scale + 1) for column in zip(*points)]
    prefixes = math.prod(map(len, box[:depth]))
    if prefixes > FIBER_BUDGET:
        raise CapExceededError(
            f"lattice scan needs {prefixes} fibers (integer points of the first {depth}"
            f" coordinates); it is capped at {FIBER_BUDGET}"
        )
    return box


def _fibers(rows, points, scale: int, n: int):
    """Yield (prefix, lo, hi) for each nonempty fiber along the last axis.

    The prefixes are the integer points (x_1..x_{n-1}) of the closure's
    bounding box, in lexicographic order; above each prefix the region
    holds exactly the lattice points whose last coordinate is one of
    the integers lo..hi.  Every row is one weak integer inequality of
    ``_integer_rows``, so each fiber bound is a floor division of
    integers.  The closure is given by its integer vertices ``points``
    over ``scale``.  Raises CapExceededError past ``FIBER_BUDGET``
    prefixes.
    """
    box = _bounding_box(points, scale, n - 1)
    if box is None:
        return
    rows = [(normal[:-1], normal[-1], bound) for normal, bound in rows]
    for prefix in product(*box[:-1]):
        lo, hi = box[-1].start, box[-1].stop - 1
        for head, last, bound in rows:
            # last * x_n >= rest: a ceiling, a floor, or all or nothing.
            rest = bound - sum(map(mul, head, prefix))
            if last > 0:
                rest = -(-rest // last)
                if rest > lo:
                    lo = rest
            elif last < 0:
                rest //= last
                if rest < hi:
                    hi = rest
            elif rest > 0:
                break
        else:
            if lo <= hi:
                yield prefix, lo, hi


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """The sum of floor((a*i + b) / m) over i = 0..n-1, for integers n >= 0 and m >= 1.

    The Euclid-like recursion, run as a loop: split off the integer
    parts of a/m and b/m, then count the lattice points under the
    remaining segment by swapping the roles of the axes, which replaces
    (m, a) by (a mod m, m).  O(log m) steps; a and b may be negative.
    """
    total = 0
    while True:
        total += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a, b = a % m, b % m
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _active(lines, s, sign):
    """The line (p, q, r), value (p*s + q)/r, that bounds the envelope right of s.

    sign = 1 takes the maximum, -1 the minimum; ties go to the line
    that stays extreme to the right, the one with the larger slope
    (sign = 1) or the smaller.  Compared by cross-multiplication, r > 0.
    """
    best = lines[0]
    for line in lines[1:]:
        p, q, r = line
        bp, bq, br = best
        value = br * (p * s + q) - r * (bp * s + bq)
        if sign * value > 0 or value == 0 and sign * (p * br - bp * r) > 0:
            best = line
    return best


def _run_end(lines, active, sign, end):
    """The last integer, at most ``end``, up to which ``active`` stays extreme.

    Only a line steeper in the envelope's direction overtakes it, at
    the last s with sign * (active(s) - line(s)) >= 0.
    """
    p, q, r = active
    for lp, lq, lr in lines:
        g = lr * p - r * lp
        if sign * g < 0:
            end = min(end, (r * lq - lr * q) // g)
    return end


def _slice_count(rows, s_range) -> int:
    """The lattice points (s, t) with s in ``s_range`` and alpha*s + beta*t >= c on every row.

    A row (alpha, beta, c) with beta > 0 bounds t from below by the line
    (c - alpha*s)/beta, one with beta < 0 bounds it from above, and one
    with beta = 0 narrows the range of s; a line is kept as (p, q, r),
    value (p*s + q)/r with r > 0.  Above s lie U(s) - L(s) + 1 points,
    U the floor of the upper envelope and L the ceiling of the lower,
    when the real gap between the envelopes is nonnegative, and none
    otherwise.  The walk jumps from s past the last integer before an
    envelope changes row or the real gap changes sign, and adds each run
    with two ``floor_sum`` calls.  The gap at the first s of a run is
    evaluated directly, so a slice that is a segment or a point is
    counted exactly.  The real gap is concave, so once it is negative
    and not growing no point lies further right.
    """
    lower, upper = [], []
    lo, hi = s_range.start, s_range.stop - 1
    for alpha, beta, c in rows:
        if beta > 0:
            lower.append((-alpha, c, beta))
        elif beta < 0:
            upper.append((alpha, -c, -beta))
        elif alpha > 0:
            lo = max(lo, -(-c // alpha))
        elif alpha < 0:
            hi = min(hi, c // alpha)
        elif c > 0:
            return 0
    total = 0
    s = lo
    while s <= hi:
        low, high = _active(lower, s, 1), _active(upper, s, -1)
        end = _run_end(upper, high, -1, _run_end(lower, low, 1, hi))
        (pa, qa, ra), (pb, qb, rb) = low, high
        # The real envelopes have a gap >= 0 exactly where g*s + h >= 0.
        g, h = ra * pb - rb * pa, ra * qb - rb * qa
        if g * s + h >= 0:
            if g < 0:
                end = min(end, -h // g)
            n = end - s + 1
            total += n + floor_sum(n, rb, pb, pb * s + qb) + floor_sum(n, ra, -pa, -pa * s - qa)
        elif g <= 0:
            break
        else:
            end = min(end, -(h // g) - 1)
        s = end + 1
    return total


def lattice_count(reg: HalfOpenRegion) -> int:
    """The number of integer points of the half-open region.

    In dimension n >= 2 the region is cut into 2-D slices, one per
    integer point of the bounding box's first n - 2 coordinates, each
    cut out by the rows of ``_integer_rows``, and each slice is counted
    by ``_slice_count`` with no point listed.  Both envelopes of a
    slice are nonempty: a bounded closure has rows with a positive and
    with a negative last coefficient, else e_n or -e_n would recede.
    A slice with k rows costs O(k) envelope steps of O(k) work each
    plus O(log m) per floor sum, independent of its width, so a region
    of m*D costs about m^(n-2) slices.  At most ``FIBER_BUDGET`` slices
    are counted before CapExceededError.  In dimension 1 the count sums
    the fibers of ``_fibers``.  It runs ``_lattice_count`` on the
    region's own ``vertex_table`` and ``row_bounds``.
    """
    points, scale = reg.vertex_table
    rows = _integer_rows(reg.normals, reg.memo, reg.row_bounds, _weak_mask(reg.weak))
    return _lattice_count(rows, points, scale, reg.dim)


def _lattice_count(rows, points, scale: int, n: int) -> int:
    """The number of lattice points on the integer ``rows`` of ``_integer_rows``.

    The closure is given by its integer vertices ``points`` over
    ``scale``; the count cuts it into 2-D slices as ``lattice_count``
    describes.
    """
    if n == 1:
        return sum(hi - lo + 1 for _, lo, hi in _fibers(rows, points, scale, n))
    box = _bounding_box(points, scale, n - 2)
    if box is None:
        return 0
    rows = [(normal[:-2], normal[-2], normal[-1], bound) for normal, bound in rows]
    total = 0
    for prefix in product(*box[:-2]):
        shifted = [(a, b, bound - sum(map(mul, head, prefix))) for head, a, b, bound in rows]
        total += _slice_count(shifted, box[-2])
    return total


def lattice_points(reg: HalfOpenRegion) -> list[tuple[int, ...]]:
    """All integer points of the half-open region, in lexicographic order.

    Membership honors the mixed weak/strict system exactly; the points
    are the fibers of ``_fibers`` expanded one by one.
    """
    points, scale = reg.vertex_table
    rows = _integer_rows(reg.normals, reg.memo, reg.row_bounds, _weak_mask(reg.weak))
    fibers = _fibers(rows, points, scale, reg.dim)
    return [prefix + (x,) for prefix, lo, hi in fibers for x in range(lo, hi + 1)]


def _realized_subset(patterns, k: int, mask: int):
    """The ray subset of a weak mask, or None if its region is unbounded."""
    if _bounded_mask(patterns, mask):
        return frozenset(i for i in range(k) if mask >> i & 1)
    return None


def _realized_masks(fan: Fan, slot: _DivisorSlot):
    """The realized bounded masks of the slot's cell, as (mask, subset, vertices).

    A vertex P holds the W with above(P) <= W <= above(P) | tight(P),
    2^|tight(P)| candidates, each kept with the cell's vertex triples
    of its closure, in the order the vertices meet it.  The per-fan
    ``"bounded_masks"`` cache decides each mask met once per fan with
    ``_bounded_mask`` and keeps the subset of the bounded ones.
    Computed once per slot, which keeps them, and once per kept cell
    while its entries fit the budget.
    """
    cell = slot.cell
    masks = cell.masks
    if masks is None:
        realized = fan.memo(
            "bounded_masks",
            lambda: cache(
                partial(
                    _realized_subset,
                    _unbounded_patterns(fan.rays, fan.dim, fan.memo),
                    len(fan.rays),
                )
            ),
        )
        tables: dict = {}
        for vertex in cell.vertices:
            _, above, tight = vertex
            sub = tight
            while sub >= 0:  # every submask of tight, down to 0
                mask = above | sub
                if mask in tables:
                    tables[mask].append(vertex)
                elif realized(mask) is not None:
                    tables[mask] = [vertex]
                sub = (sub - 1) & tight if sub else -1
        masks = tuple((mask, realized(mask), tuple(vertices)) for mask, vertices in tables.items())
        if cell.kept and slot.arrangement.admit(sum(len(entry[2]) for entry in masks)):
            cell.masks = masks
    slot.masks = masks
    return masks


def region_sum(fan: Fan, d: Divisor, weight, measure) -> tuple:
    """Sum of weight(W) * measure(region of W) over the bounded subsets W.

    ``weight`` maps a ray subset to a tuple of integers, of the same
    length for every subset.  ``measure`` is a kernel that measures a
    region off its divisor's slot, called as measure(fan, slot, mask,
    vertices) with the region's weak mask and its closure's vertex
    triples: ``_slot_count`` for lattice counts, ``_slot_volume`` for
    normalized volumes.  Only the regions D realizes are visited: a
    nonempty bounded region's closure has a vertex, which is an
    arrangement vertex P, and the regions whose closure holds P are
    exactly the W with above(P) <= W <= above(P) | tight(P).

    The fan keeps the last divisor summed in one slot (``_DivisorSlot``)
    under the ``"last_divisor"`` memo, keyed by the cleared divisor (the
    integers q * d and their q), so 2 and Fraction(4, 2) share it.  The
    slot reads its realized masks off the divisor's type cell and solves
    the vertices of the regions it measures, once each.  A new divisor
    replaces it in one assignment, so concurrent calls need no lock; a
    divisor whose cell visits more than 2^SUBSET_CAP candidate subsets
    raises CapExceededError before it is stored, on every call.  The
    slot also keeps the amount of every (mask, measure) pair measured so
    far, so a second question about one divisor (``cech_oracle`` or
    ``euler_char`` after ``h_all``, ``self_intersection`` after
    ``hhat``) measures no region the first one did.  The amounts are
    keyed by the measure object, so a measure must be a pure function of
    its region.

    Weights are asked per call: realized subsets with an all-zero weight
    are skipped, so a caller that weights by a slice of the rank vectors
    measures only the regions that slice reads, and only the nonzero
    entries of a weight are added.  A region is measured only when its
    amount is missing, and no region object is built.  This wrapper
    checks the length and clears d once; ``_cleared_sum`` is the loop.
    """
    _check_length(fan, d)
    return _cleared_sum(fan, *to_integers(d), weight, measure)


def _cleared_sum(fan: Fan, coefficients, q: int, weight, measure) -> tuple:
    """``region_sum`` of the divisor cleared to integers: ``coefficients`` / q.

    The pair must be the one ``linalg.to_integers`` gives (q > 0 and no
    common factor of q and every coefficient), since it keys the slot.
    """
    slot = _divisor_slot(fan.rays, fan.dim, fan.memo, coefficients, q, keep=True)
    visits = slot.cell.visits
    if visits > 1 << SUBSET_CAP:
        raise CapExceededError(f"region sum needs {visits} ray subsets; the cap is 2^{SUBSET_CAP}")
    masks = slot.masks
    if masks is None:
        masks = _realized_masks(fan, slot)
    amounts = slot.amounts
    # The weight length is read off the first realized subset, else the empty one.
    total = [0] * len(weight(masks[0][1] if masks else frozenset()))
    for mask, subset, vertices in masks:
        w = weight(subset)
        if not any(w):
            continue
        amount = amounts.get((mask, measure))
        if amount is None:
            amount = amounts[mask, measure] = measure(fan, slot, mask, vertices)
        if amount:
            for i, x in enumerate(w):
                if x:
                    total[i] += x * amount
    return tuple(total)


def _slot_count(fan: Fan, slot: _DivisorSlot, mask: int, vertices) -> int:
    """The lattice count of the weak mask's region, read off the divisor slot.

    The rows' bounds ceil(-d_i) are cleared once per slot, and the
    closure's vertices are the slot's solved points of ``vertices``, the
    mask's vertex triples; ``_lattice_count`` counts.
    """
    if slot.bounds is None:
        coefficients, q = slot.key
        slot.bounds = _ceilings([-x for x in coefficients], q)
    rows = _integer_rows(fan.rays, fan.memo, slot.bounds, mask)
    return _lattice_count(rows, [slot.point(b) for b, _, _ in vertices], slot.scale, fan.dim)


def _slot_volume(fan: Fan, slot: _DivisorSlot, mask: int, vertices) -> Fraction:
    """The normalized volume of the weak mask's region, read off the divisor slot.

    The closure's vertices are the slot's solved points of ``vertices``,
    the mask's vertex triples, and its triangulation the one the type
    cell keeps under the mask (``_cell_simplices``).
    """
    points = [slot.point(b) for b, _, _ in vertices]
    simplices = _cell_simplices(slot, mask, vertices, points, fan.dim)
    return _volume(points, simplices, slot.scale, fan.dim)


def _cell_simplices(slot: _DivisorSlot, mask: int, vertices, points, dim: int):
    """The pulling triangulation of the mask's closure, as the slot's type cell keeps it.

    On a miss it is made from the closure's vertex triples ``vertices``
    and their solved ``points``, in basis order, and kept under the mask
    on a kept cell while the budget lasts: one entry per simplex and one
    for an empty triangulation.
    """
    cell = slot.cell
    simplices = cell.simplices.get(mask)
    if simplices is None:
        simplices = _triangulation(points, [tight for _, _, tight in vertices], dim)
        room = max(len(simplices), 1)
        if cell.kept and mask not in cell.simplices and slot.arrangement.admit(room):
            cell.simplices[mask] = simplices
    return simplices


def _volume_partial(fan: Fan, slot: _DivisorSlot, rays) -> Fraction:
    """The mixed partial along the distinct ``rays`` of the section polytope's normalized volume.

    The slot's divisor must lie in an open chamber, where the section
    polytope (all rows weak) is simple: each vertex is tight on one
    basis B, read off the cell's vertex triple, and P_B = A_B . (-d_B) /
    common is linear in d, with dP_B / dd_rho = -(column j of A_B) /
    common when rho = B_j and 0 when rho is not in B.  Each simplex S of
    the polytope's pulling triangulation, the one the cell keeps under
    the all-weak mask (``_cell_simplices``, which ``_slot_volume`` reads
    too), keeps the sign of its determinant near d, so the volume is the
    polynomial sum_S sign_S det(edges_S) and its r-th mixed partial
    replaces r edge rows by their derivative differences, summed over
    every injective choice of rows.  Every determinant is an integer
    elimination; one ``Fraction`` is built, over scale^(n - r) common^r.
    """
    k, n, r = len(fan.rays), fan.dim, len(rays)
    weak = (1 << k) - 1
    vertices = tuple(vertex for vertex in slot.cell.vertices if vertex[1] | vertex[2] == weak)
    points = [slot.point(b) for b, _, _ in vertices]
    bases = slot.arrangement.bases
    # columns[v][rho] is column j of A_B for rho = B_j: -common * dP_B / dd_rho.
    columns = [dict(zip(bases[b][0], zip(*bases[b][1]))) for b, _, _ in vertices]
    zero = (0,) * n
    total = 0
    for simplex in _cell_simplices(slot, weak, vertices, points, n):
        apex = simplex[0]
        edges = [[a - b for a, b in zip(points[v], points[apex])] for v in simplex[1:]]
        sign = integer_eliminate(list(edges), n)[2]
        for rows in permutations(range(n), r):
            matrix = list(edges)
            for rho, row in zip(rays, rows):
                tip, base = columns[simplex[row + 1]].get(rho, zero), columns[apex].get(rho, zero)
                matrix[row] = [a - b for a, b in zip(tip, base)]
            pivots, denom, s = integer_eliminate(matrix, n)
            if len(pivots) == n:
                total += sign * s * denom
    # Each of the r replaced rows is -common times a derivative difference.
    return Fraction((-1) ** r * total, slot.scale ** (n - r) * slot.arrangement.common**r)


def ehrhart_probe(fan: Fan, d: Divisor, weak_rays, m_max: int):
    """Scaled lattice counts of the dilated regions, for m = 1..m_max.

    Row m holds (m, count(region of m*d) * n! / m^n); the values converge
    to the normalized volume of the region of d.  Raises ValueError
    unless m_max is an int (not a bool) of at least 1.
    """
    if isinstance(m_max, bool) or not isinstance(m_max, int) or m_max < 1:
        raise ValueError(f"m_max must be an integer of at least 1, got {m_max!r}")
    if m_max > 50:
        raise CapExceededError("ehrhart probe is capped at m_max = 50")
    _check_length(fan, d)
    coefficients, q = to_integers(d)
    n = fan.dim
    factorial = math.factorial(n)
    table = []
    for m in range(1, m_max + 1):
        scaled = tuple(Fraction(m * c, q) for c in coefficients)
        count = lattice_count(region(fan, scaled, weak_rays))
        table.append((m, Fraction(count * factorial, m**n)))
    return table

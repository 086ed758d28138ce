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
its divisor realizes, never all 2^k, and each of them once per normal
set.

Everything that depends on the normals alone lives in two objects per
normal set, each kept once in its memo: the normals' configuration
(``fan._Configuration``: kernels, basis inverses and cocircuit
patterns, a fan's from its construction) and the ``_Arrangement`` built
on it, which holds the patterns, each weak mask's boundedness, the type
cells below and the held divisor.  The memo is bound to its normals by
the configuration (``fan._configuration``), so a memo that serves other
normals is refused.  Region code takes an arrangement, or a slot on
it, never the normals, their dimension and a memo as three arguments.

Everything here is exact.  Vertex enumeration runs in integers: it
reads the integer inverse of every rank-n basis of normals over one
common denominator (the configuration's ``table``, which the Cartier
data of ``divisor`` and the chamber systems of ``gkz`` read too).  The
levels are cleared once to integers L over their lcm q, and each row's
lattice bound ceil(L_i / q) is one floor division of them.
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
linear equivalence and positive scaling.  Each arrangement keeps the cells it
meets (``_TypeCell``) under one least-recently-used bound of
``CELL_BUDGET`` entries over whole cells: every lookup marks its cell,
and past the bound the cells used longest ago are dropped with all they
hold.  A cell holds, each filled on first use, one vertex per tight set
with its basis and masks, classified from the signs alone with no point
solved, the located chamber of ``gkz.locate_chamber`` and its volume
tables; a simple cell (below), which a degenerate cell finds under its
own lowered key, also holds its realized table and count plans.
``_DivisorSlot`` keeps what one divisor adds: its row bounds, its
lattice counts by mask and the powers its volumes take (the vertices
P_B = A_B . L_B its vertex tables read are solved on each read), and
each fan's arrangement holds
the slot of its last divisor, found again by the identity of its entries
with no clearing (``_held_slot``).  ``region_sum`` counts a realized
region's lattice points straight off that slot and the count plan of
the region's weak mask, with no region object (``_slot_count``).  A
standalone ``HalfOpenRegion`` takes the same path: its count, listing
and volume read its weak mask's entry in the realized table of its
slot's simple cell (below), with the entry's kept plan and its box,
and every closure-vertex table, a region's or a polytope's, is read by
one function (``_closure_table``).

Counts and volumes sum over the regions of one simple cell.  Lowering
the levels by theta_i = eps^(i + 1), eps -> 0+, makes every circuit
value nonzero (simulation of simplicity, Edelsbrunner and Muecke 1990):
a zero value takes the sign of -lam at its least ray index with
lam != 0.  On that simple cell each basis B is its own vertex, and its
2^n orthant masks W = above(P_B) | s+ are the regions around it; one
table lists the bounded ones with their vertices (``_realized_masks``).
At a lattice point every <v_i, m> is an integer, so lowering moves no
lattice point across a row and the lowered regions hold exactly the
lattice points of the divisor's own: counts read the table with the
divisor's row bounds, and a region sum visits at most 2^n candidate
masks per basis, however many rows meet at one vertex.

Volumes are Lawrence vertex sums (Lawrence 1991).  With xi = (1, t, ...,
t^(n - 1)) pairing nonzero with every column of every basis inverse,
g_B = A_B^T xi and N_B = |det A_B| / prod_j (-g_B[j]), the closure of
a bounded region W has

    nvol(W) = sum over its vertices P_B of (prod_j s_j) N_B <g_B, L_B>^n / (q common)^n,

so a weighted sum over the regions is sum_B c_B N_B <g_B, L_B>^n with
c_B = sum_s (prod_j s_j) w(above(P_B) | s+) over the table's masks at
B.  The coefficients depend on the cell alone, so each type cell keeps
the nonzero ones of its simple cell as one integer table per weight
(``_lawrence_columns``), and a divisor of a known cell pays one dot
product and one power per basis in the table.  Volumes are continuous
in the levels, so the table of the lowered levels' cell gives the exact
sums at the levels themselves; the same polynomial, differentiated,
gives the mixed partials of the section polytope's volume
(``_h0_partial``).  No ``Fraction`` is built inside a volume but its
answer.

Lattice points are counted one plane at a time, by one core
(``_lattice_count``) that reads a count plan (``_CountPlan``).  A plan
holds what does not depend on the divisor: the facet rows of the region,
each oriented to one weak integer inequality, split once into the lower,
upper and flat lines of a 2-D slice in the last two coordinates, and
per axis k < n - 1 the box rows of two vertices of the closure, the
least in x_k and the greatest, told apart by the signs of their basis
inverses alone.  On the simple cell a row tight at no vertex of the
closure holds strictly on it, so the facet rows alone cut out the
region (``_cell_plan``); each simple cell keeps the plan of every
realized mask it counts.  A count then only clears the bounds, reads
each of the first n - 1 ranges of the bounding box off its two vertices
with two dot products, and sums slices: one function builds each
(``_plan_slice``) from the facets' bounds shifted to its integer point
of the box's first n - 2 coordinates, the flat rows narrow it, and
``_slice_count`` walks its lower and upper envelopes along the
second-to-last coordinate, adding each run between envelope changes
with two floor sums (the lattice points under a segment, by the
Euclid-like recursion of ``floor_sum``).  A slice costs
O(k^2 + k log m) for k facets, independent of its width.  Dimension 2
is one slice, read straight off the row bounds.  In dimension n >= 3
the slice counts are summed slab by slab (``_slab_count``), once per
integer point of the first n - 3 ranges: there the rest is a 3-D
polytope in the last three coordinates, and between the points where
three of its facet planes meet, each residue class of coordinate n - 2
modulo the plan's period has a slice count quadratic in it, read off
three slices and checked on a fourth, and short ranges and slabs are
summed slice by slice.  So a region of m*D costs a number of slices
bounded by its plan in dimension 3, about m^(n-3) times that in
dimension n >= 4, and one of a 2-D fan a bounded number of integer
steps for every m.
Listing points, and counting them in dimension 1, keeps the fibers of
the last coordinate: above each integer point of the first n - 1
coordinates the facets cut the line to one integer interval, found with
integer floor divisions (``_fibers``).  A box of more than
``FIBER_BUDGET`` prefixes, the integer points of its first n - 2
coordinates (for a count) or n - 1 (for a listing), raises
CapExceededError before any is visited, and so does a listing of more
than ``FIBER_BUDGET`` points, counted first.
"""

from __future__ import annotations

import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations, count, product
from operator import is_, itemgetter, mul, or_
from threading import Lock
from typing import Callable

from .divisor import Divisor, _check_length
from .errors import CapExceededError, NotCompleteError, ToricError, UnboundedRegionError
from .fan import Fan, _Configuration, _check_rays, _configuration, _is_int
from .linalg import _lowest_terms, _point_integers, dot, to_integers


# Fixed work caps; past either one, CapExceededError.  The sweep
# ``bounded_subsets`` takes at most SUBSET_CAP rays (a region sum needs no
# such cap: it visits at most 2^n masks per basis of the simple cell),
# and a region's bounding box may hold at most FIBER_BUDGET integer
# prefixes, counted before any is visited: of the first n - 2
# coordinates for a count (the heads of its 2-D slices), of the first
# n - 1 for a listing (its fibers); a listing may hold at most
# FIBER_BUDGET points, counted before any is listed.  Slab sums
# (``_slab_count``) evaluate fewer slices than a box's prefixes, but the
# cap is the box's.
SUBSET_CAP = 20
FIBER_BUDGET = 10**7
# The type cells of each normal set share one bound of CELL_BUDGET entries
# (``_Arrangement.cell``): one per circuit sign of a cell's key, one per
# vertex it classifies, one per (region, vertex) incidence of its realized
# table, one per facet row, box axis and breakpoint of each count plan, one per
# weighted entry of a region sum, one per row of each volume table column
# and one for a located chamber.  Each lookup marks its cell the most
# recently used; past the bound the least recently used cells are dropped
# whole, and a cell larger than the bound is used but not kept.  Sized
# from measured traffic: h_all, cech_oracle and euler_char on divisors of
# bl3_p2 (6 rays, 20 circuits) drawn from [-4, 4]^6 (seed 0), as the
# sections benchmark draws them, met 464 cells holding 20 787 entries
# after 800 draws (153 simple cells with 749 count plans) and 689 cells,
# 25 820 entries, after 3000, so 2^15 keeps every cell such a run meets;
# the other fixtures' cells stay under 2 000 entries.  Those 800 draws
# leave ~1.2 MB allocated (tracemalloc, after a collection).
CELL_BUDGET = 2**15
# The zero rate, shared by every volume sum that adds up to nothing.
_ZERO = Fraction(0)


def _own_memo():
    """A memo of one normal set outside a fan: each fact computed once, kept in its own dict.

    A standalone region's default memo, and the memo a nef region's
    arrangement is built on (``gkz._NefPlan``).
    """
    kept: dict = {}

    def memo(key, compute):
        if key not in kept:
            kept[key] = compute()
        return kept[key]

    return memo


@dataclass(frozen=True)
class HalfOpenRegion:
    """One mixed weak/strict linear system, one constraint per ray.

    ``memo`` stores the facts that depend only on the normals: their
    ``fan._Configuration`` and the one ``_Arrangement`` built on it.
    Regions of a fan carry the fan's memo, so those facts are computed
    once per fan; the default is a memo of the region's own, so they are
    computed once per region object.  A memo serves the one normal set
    its configuration holds (``fan._configuration``; a fan's memo from
    the start, any other on first use) and is refused
    for others with ValueError when the region's ``slot`` is first
    read, so a region made by ``dataclasses.replace`` with other normals
    needs a memo of its own, and so does a region whose normals are not
    its fan's rays.  The integer data the measures read, ``slot`` (with its
    row bounds) and ``vertex_table``, is computed at most once per
    region object, on first use.  ``region_sum`` builds no region: it
    counts off its divisor's slot.  Raises ValueError unless ``dim`` is
    an int of at least 1, every normal entry an int (``fan._is_int``,
    so no bool), ``normals``, ``levels`` and ``weak`` have one entry
    per row and every normal has ``dim`` entries.
    """

    normals: tuple[tuple[int, ...], ...]
    levels: tuple[Fraction, ...]
    weak: tuple[bool, ...]
    dim: int
    memo: Callable = field(default_factory=_own_memo, compare=False, repr=False)

    def __post_init__(self):
        if not _is_int(self.dim) or self.dim < 1 or not all(_is_int(x) for v in self.normals for x in v):
            raise ValueError(
                f"a region needs an int dim >= 1 and int normals, got {self.dim!r} and {self.normals!r}"
            )
        k = len(self.normals)
        if len(self.levels) != k or len(self.weak) != k or set(map(len, self.normals)) - {self.dim}:
            raise ValueError(
                f"a region needs one level and one weak flag per normal and {self.dim} entries "
                f"per normal; got {k} normals, {len(self.levels)} levels, {len(self.weak)} flags"
            )

    def contains(self, point) -> bool:
        """Whether the point, read at its exact value (``linalg._point_integers``), lies inside.

        With x = c / p and the levels L / q cleared once (``_cleared``),
        each row compares q <v, c> with p L_i in integers.  Raises
        ValueError unless the point has ``dim`` coordinates, and as the
        measures do, ValueError on a bool and TypeError on a string,
        in the point or in the levels.
        """
        if len(point) != self.dim:
            raise ValueError(f"point has {len(point)} coordinates, region has dimension {self.dim}")
        coordinates, p = _point_integers(point)
        levels, q = self._cleared
        for normal, level, is_weak in zip(self.normals, levels, self.weak):
            value = q * dot(normal, coordinates)
            if is_weak:
                if value < p * level:
                    return False
            elif value >= p * level:
                return False
        return True

    @cached_property
    def _cleared(self) -> tuple[list[int], int]:
        """The levels cleared to integers L over their lcm q (``linalg.to_integers``), once per object."""
        return to_integers(self.levels)

    @cached_property
    def vertex_table(self):
        """The closure's integer vertices ({P: tight}, scale) of ``_closure_table`` on the region's slot."""
        return _closure_table(self.slot, _weak_mask(self.weak))

    @cached_property
    def slot(self) -> _DivisorSlot:
        """The ``_DivisorSlot`` of the levels, keyed once per region object.

        It is the held slot of the memo's arrangement when the levels
        are its divisor's; every measure reads it.  Raises ValueError
        when the memo serves other normals (``fan._configuration``).
        """
        levels, q = self._cleared
        return _divisor_slot(_arrangement(self.normals, self.dim, self.memo), [-x for x in levels], q)


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


def _bounded_mask(patterns, weak: int) -> bool:
    """Whether every pattern (pos, neg) has pos outside or neg inside the weak mask."""
    return all(pos & ~weak or neg & weak for pos, neg in patterns)


def _is_bounded(arrangement: _Arrangement, weak: int) -> bool:
    """Whether the closure of the weak mask's region of the arrangement's normals is bounded.

    The recession cone is {u : <u, r> >= 0} over the rows r = v on weak
    rays and r = -v off them.  If the normals do not span the space it
    holds a line.  Otherwise it is pointed, so it is {0} unless it has
    an extreme ray, which lies on n - 1 independent tight rows: a
    cocircuit direction u with <u, v> >= 0 on W and <= 0 off W, i.e.
    pos(u) inside W and neg(u) outside.  One mask test per cocircuit
    pattern (``fan._Configuration.patterns``), held by the arrangement,
    decides it, with no LP.
    """
    return _bounded_mask(arrangement.patterns, weak)


def is_bounded_subset(fan: Fan, weak_rays) -> bool:
    """Whether the region of this subset is bounded (for every divisor).

    One mask test against the fan's cocircuit patterns; raises
    ValueError unless every entry of the subset is a ray index.
    """
    subset = _check_rays(fan, weak_rays)
    return _bounded_mask(fan.configuration.patterns, sum(1 << i for i in subset))


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
    patterns = fan.configuration.patterns
    return tuple(
        frozenset(combo)
        for size in range(k + 1)
        for combo in combinations(range(k), size)
        if _bounded_mask(patterns, sum(1 << i for i in combo))
    )


class _Arrangement:
    """Everything one normal set knows without a divisor, built once per memo.

    It is the one holder of that state: region code takes an
    arrangement, or a slot on one, never the normals, dimension and memo
    apart.  ``normals`` and ``dim`` are the set of the configuration it
    was built on, and ``patterns`` its cocircuit patterns, read
    by ``_is_bounded`` and by ``subset``, which decides each weak mask
    of a realized table once and keeps the answer in ``subsets``.
    ``held`` is the slot of the last divisor a complete fan was asked
    about, a triple (key, slot, entries) replaced whole in one
    assignment (``_held_slot``); None until then, and always on the
    arrangement of a standalone region or of a nef region.

    ``bases`` has one entry (combo, adjugate, basis, bits, codes) per
    invertible n-subset of the normals, in the order of the
    configuration's ``table``: ``adjugate`` is its integer inverse over
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
    being the negated sign.  ``ties`` holds per circuit the sign a zero
    value takes on the lowered levels (``_simple_cell``).  ``cells``
    holds the type cells kept, least recently used first, and
    ``entries`` the entries they hold, at most ``CELL_BUDGET``: one
    bound over whole cells (``cell``, ``grow``).  Cells are added,
    counted and evicted only under ``lock``, so threads sharing a memo
    never pop a cell twice nor lose a count.  The data of the volumes,
    ``lawrence``, ``den`` and ``weights``, is computed on first use, so
    that a normal set whose regions are only counted never pays for it.
    """

    def __init__(self, configuration: _Configuration):
        self.common, inverses, self.sizes = configuration.table
        normals = self.normals = configuration.vectors
        self.dim = configuration.dim
        self.patterns = configuration.patterns
        self.subsets: dict = {}
        self.held = None
        found: dict = {}
        circuits, ties = [], []
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
                    # A zero value takes the sign of -lam at its least ray index with lam != 0.
                    ties.append(-1 if min((j, x) for j, x in zip(indices, lam) if x)[1] > 0 else 1)
                code, negative = circuit
                bits.append(bit)
                codes.append(code if negative & bit else code + 1)
            self.bases.append((combo, adjugate, basis, tuple(bits), tuple(codes)))
        self.circuits, self.ties = tuple(circuits), tuple(ties)
        # Per row i the facet triples (i, False, -v_i) and (i, True, v_i) of ``_CountPlan``.
        self.oriented = tuple(((i, False, tuple(-x for x in v)), (i, True, v)) for i, v in enumerate(normals))
        self.cells: OrderedDict = OrderedDict()
        self.entries = 0
        self.lock = Lock()
        self.shared: dict = {}

    @cached_property
    def lawrence(self) -> tuple:
        """One pair (combo, g_B) per basis, g_B = A_B^T xi.

        xi = (1, t, ..., t^(n - 1)) for the least t >= 1 at which no entry
        of any g_B is zero: each entry is a nonzero polynomial in t, so
        some t works.
        """
        for t in count(1):
            xi = [t**j for j in range(self.dim)]
            pairs = tuple(
                (combo, tuple(sum(map(mul, xi, column)) for column in zip(*adjugate)))
                for combo, adjugate, *_ in self.bases
            )
            if all(all(g) for _, g in pairs):
                return pairs

    @cached_property
    def corners(self) -> tuple:
        """One pair (getter, rows) per basis: coordinate j < n - 1 of P_B is <rows[j], getter(q d)>.

        ``getter`` reads the basis's entries of the cleared divisor q d
        and ``rows`` are the first n - 1 rows of the adjugate, negated,
        since P_B = A_B . L_B with L = -q d.  Only these coordinates
        feed a count's bounding box, and only the rows of the two
        vertices per axis that a count plan keeps (``_cell_plan``).
        """
        return tuple(
            (itemgetter(*combo), tuple(tuple(-x for x in row) for row in adjugate[:-1]))
            for combo, adjugate, *_ in self.bases
        )

    @cached_property
    def den(self) -> int:
        """The least common multiple of the |prod_j g_B[j]|."""
        return math.lcm(*(abs(math.prod(g)) for _, g in self.lawrence))

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """N_B * ``den`` per basis, N_B = |det A_B| / prod_j (-g_B[j]).

        |det A_B| = common^n / |det V_B|, the basis sizes ``sizes`` of
        the configuration's ``table``.
        """
        return tuple(
            self.common**self.dim // self.sizes[combo] * (self.den // math.prod(-x for x in g))
            for combo, g in self.lawrence
        )

    def subset(self, mask: int) -> frozenset[int] | None:
        """The ray subset of a weak mask, or None if its region is unbounded; decided once per mask."""
        if mask not in self.subsets:
            rays = frozenset(i for i in range(len(self.normals)) if mask >> i & 1)
            self.subsets[mask] = rays if _bounded_mask(self.patterns, mask) else None
        return self.subsets[mask]

    def share(self, value: tuple) -> tuple:
        """The one object held for this value, in ``shared``.

        The slice lines of ``_count_plan`` (O(k^2) values for k rows) and
        the weight pairs of ``_weighted_entries`` (one per distinct
        weight) repeat across cells and plans; each value is held once.
        """
        return self.shared.setdefault(value, value)

    def cell(self, key) -> _TypeCell:
        """The type cell of the circuit signs ``key``, marked the most recently used.

        A key met for the first time gets a new cell, with nothing
        classified yet, counted by its key.  A cell found is moved with
        no lock: if another thread evicts it meanwhile, it serves this
        divisor unkept.
        """
        cell = self.cells.get(key)
        if cell is not None:
            try:
                self.cells.move_to_end(key)
            except KeyError:
                pass
            return cell
        with self.lock:
            cell = self.cells.get(key)
            if cell is None:
                cell = self.cells[key] = _TypeCell(key)
                self._count(cell, len(key))
            return cell

    def grow(self, cell: _TypeCell, size: int) -> None:
        """Count ``size`` more entries held by the cell, unless it was dropped."""
        with self.lock:
            if cell.size is not None:
                self._count(cell, size)

    def _count(self, cell: _TypeCell, size: int) -> None:
        """Add the entries to the kept cell, then evict within ``CELL_BUDGET``; under ``lock``.

        The least recently used cells go first, each with everything it
        holds; a cell larger than the whole bound goes first, alone.  A
        dropped cell's size becomes None, so it is never counted again
        and ``grow`` hashes no key.
        """
        cell.size += size
        self.entries += size
        if cell.size > CELL_BUDGET:
            self.cells.move_to_end(cell.key, last=False)
        while self.entries > CELL_BUDGET:
            dropped = self.cells.popitem(last=False)[1]
            self.entries -= dropped.size
            dropped.size = None


def _arrangement(normals, dim: int, memo) -> _Arrangement:
    """The ``_Arrangement`` of the normals, kept once in the memo.

    Raises ValueError when the memo serves other normals (``fan._configuration``).
    """
    configuration = _configuration(normals, dim, memo)
    return memo("arrangement", lambda: _Arrangement(configuration))


@dataclass(eq=False, slots=True)
class _TypeCell:
    """What every divisor of one type cell shares: its arrangement combinatorics.

    ``key`` is the cell's circuit signs and ``size`` the entries it
    holds while kept, None once dropped (``_Arrangement.cell``).  Filled on first use, once:
    ``vertices``, one triple (basis, above, tight) per distinct
    arrangement vertex, the first basis in basis order that meets it,
    with the bitmasks of the rows above it and tight at it
    (``_cell_vertices``; on a simple cell, ``_simple_cell``, every basis
    is a vertex tight on its own rows alone); ``masks``, the realized
    table of ``_realized_masks`` (a simple cell's only); ``plans``, the
    count plan of each realized mask counted so far (``_cell_plan``);
    ``weighted``, the table entries with a nonzero weight per
    region-sum weight (``_weighted_entries``); ``chamber``, the located
    chamber of ``gkz.locate_chamber``; and ``columns``, the cell's volume
    table per weight (``_lawrence_columns``).  A cell no longer kept
    still serves the divisors that hold it.
    """

    key: tuple
    size: int | None = 0
    vertices: tuple | None = None
    masks: tuple | None = None
    plans: dict = field(default_factory=dict)
    weighted: dict = field(default_factory=dict)
    chamber: object = None
    columns: dict = field(default_factory=dict)


def _cell_key(arrangement: _Arrangement, integers) -> tuple[int, ...]:
    """The type cell of the integer levels L: the sign of every circuit value <lam, L_S>.

    It does not change under L -> L + q div(chi^u), since lam is a
    dependency of its rays, nor under positive scaling.
    """
    values = [sum(map(mul, lam, get(integers))) for get, lam in arrangement.circuits]
    return tuple((value > 0) - (value < 0) for value in values)


def _cell_vertices(arrangement: _Arrangement, cell: _TypeCell) -> tuple:
    """The cell's vertex triples (``_TypeCell``), classified from its key on first use.

    Every basis's vertex is placed from the signs alone, with no point
    solved, and one vertex is kept per tight set: a tight set holds a
    basis, so it fixes its point.  A degenerate cell classifies only
    when a closure table or a chamber asks; region sums and volumes read
    its simple cell.
    """
    if cell.vertices is not None:
        return cell.vertices
    key = cell.key
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
    cell.vertices = tuple(vertices)
    arrangement.grow(cell, len(vertices))
    return cell.vertices


def _simple_cell(arrangement: _Arrangement, cell: _TypeCell) -> _TypeCell:
    """The cell of the levels lowered by theta_i = eps^(i + 1), eps -> 0+.

    A nonzero circuit value keeps its sign, and a zero one <lam, L_S>
    becomes -sum_i lam_i eps^(i + 1), the sign of -lam at its least ray
    index with lam != 0, the circuit's tie sign (``_Arrangement``).  So
    no circuit sign is zero: no n + 1 rows meet in a point, and each
    basis is a vertex tight on its own rows alone.  A cell with no zero
    sign is its own simple cell; another finds it under its lowered key,
    read off its own key with no new dot product.
    """
    key = cell.key
    if 0 not in key:
        return cell
    return arrangement.cell(tuple([x or tie for x, tie in zip(key, arrangement.ties)]))


def _levels(coefficients, q: int):
    """The exact levels -d_i of the cleared divisor q * d: ints when q = 1."""
    if q == 1:
        return tuple(-x for x in coefficients)
    return tuple(Fraction(-x, q) for x in coefficients)


@dataclass(eq=False, slots=True)
class _DivisorSlot:
    """One divisor's view of its type cell: its row bounds, counts and powers.

    ``key`` is (q * d, q), the divisor cleared to integers.  ``point``
    solves a vertex P_B = A_B . L_B on every call: a slot seldom reads
    one vertex twice, so none is kept.  ``_slot_simple`` fills its
    cell's simple cell, ``region_sum`` its lattice counts by mask,
    ``_slot_bounds`` its row bounds, and the volume sums ``powers``,
    <g_B, L_B>^n by basis, on first use.  The slot holds its cells, kept
    or not.
    """

    key: tuple
    arrangement: _Arrangement
    cell: _TypeCell
    simple: _TypeCell | None = None
    amounts: dict = field(default_factory=dict)
    bounds: tuple | None = None
    powers: dict = field(default_factory=dict)

    @property
    def scale(self) -> int:
        return self.arrangement.common * self.key[1]

    def point(self, b: int):
        """The integer point of basis b; the vertex is point / scale."""
        combo, adjugate, *_ = self.arrangement.bases[b]
        coefficients = self.key[0]
        rhs = [-coefficients[i] for i in combo]
        return tuple(sum(map(mul, row, rhs)) for row in adjugate)

    def level(self, b: int) -> int:
        """<g_B, L_B> of basis b for the levels L = -q * d: scale times <xi, P_B>."""
        combo, g = self.arrangement.lawrence[b]
        coefficients = self.key[0]
        return -sum(x * coefficients[i] for x, i in zip(g, combo))


def _divisor_slot(arrangement: _Arrangement, coefficients, q: int) -> _DivisorSlot:
    """The slot of the cleared divisor q * d = ``coefficients``: the arrangement's held one if it matches.

    Otherwise a new slot, on the type cell of the levels -q * d, which
    does not replace the held one (``_held_slot`` does that).
    """
    key = (tuple(coefficients), q)
    held = arrangement.held
    if held is not None and held[0] == key:
        return held[1]
    cell = arrangement.cell(_cell_key(arrangement, [-x for x in coefficients]))
    return _DivisorSlot(key, arrangement, cell)


def _held_slot(fan: Fan, d: Divisor, cleared=None) -> _DivisorSlot:
    """The slot of d on a complete fan (``_divisor_slot``), held as the fan's last divisor.

    The fan's arrangement holds (key, slot, entries) as ``held``,
    ``entries`` a tuple copy of the divisor held.  A divisor whose
    entries are the same objects is that divisor: its slot is returned
    with no clearing and no key.  Identity, not ``==``, so True never stands for 1
    (``linalg.to_integers`` rejects bools) and a list mutated in place
    is cleared again.  Any other divisor is cleared (``to_integers``)
    and its key compared with the held one; either way it becomes the
    held divisor, in one assignment, so that concurrent calls need no
    lock.  The held slot points back at the arrangement, so the first
    one held registers a finalizer that drops it with the fan: reference
    counting alone then frees the fan's memo, arrangement and all.
    Region sums, support functions, chamber steps and growth rates read
    it.  A caller that has cleared d already passes the pair as
    ``cleared`` and d is not cleared again.  Raises NotCompleteError
    unless the fan is complete, and ValueError unless d has one
    coefficient per ray.
    """
    if not fan.complete:
        raise NotCompleteError("region sums, support functions and growth rates need a complete fan")
    _check_length(fan, d)
    # ``_arrangement`` inlined, and ``fan`` bound as a default rather than a closure cell: the
    # held divisor's hit takes one memo lookup and no extra call.
    arrangement = fan.memo("arrangement", lambda fan=fan: _Arrangement(fan.configuration))
    held = arrangement.held
    if held is not None and all(map(is_, d, held[2])):
        return held[1]
    entries = tuple(d)
    slot = _divisor_slot(arrangement, *(cleared or to_integers(entries)))
    if held is None:
        weakref.finalize(fan, setattr, arrangement, "held", None)
    arrangement.held = (slot.key, slot, entries)
    return slot


def _closure_table(slot: _DivisorSlot, weak: int):
    """({P: tight}, scale) for the vertices of the weak mask's closure on the slot, in the cell's order.

    Those are the vertices P with above(P) <= W <= above(P) | tight(P):
    every row above is weak and every row below strict.  Only the
    vertices kept are solved.  This is the one reader of closure
    tables: a region's ``vertex_table``, the section polytope of
    ``gkz`` (all rows weak) and the two polytopes of its nef splits.
    Raises on an unbounded closure.
    """
    arrangement = slot.arrangement
    if not _is_bounded(arrangement, weak):
        raise UnboundedRegionError("region closure is unbounded")
    point = slot.point
    table = {
        point(b): tight
        for b, above, tight in _cell_vertices(arrangement, slot.cell)
        if not above & ~weak and not weak & ~(above | tight)
    }
    return table, slot.scale


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


def _region_entry(reg: HalfOpenRegion):
    """(slot, weak, vertices): the region's slot and weak mask, and the mask's realized table entry.

    ``vertices`` are the vertex triples of the mask's entry in the table
    of the slot's simple cell (``_realized_masks``), the table every
    region sum reads, or None when the mask has none.  Lowering moves no
    lattice point across a row (``region_sum``), so a bounded mask with
    no entry holds no lattice point, and volumes are continuous in the
    levels, so its closure has volume zero.  Raises on systems with
    unbounded closure.
    """
    weak = _weak_mask(reg.weak)
    slot = reg.slot
    if not _is_bounded(slot.arrangement, weak):
        raise UnboundedRegionError("region closure is unbounded")
    return slot, weak, next((vertices for mask, _, vertices in _realized_masks(slot) if mask == weak), None)


def normalized_volume(reg: HalfOpenRegion) -> Fraction:
    """n! times the Euclidean volume of the region's weak closure.

    The strict boundary parts have measure zero, and an empty half-open
    region forces its closure onto a strict hyperplane, hence a
    lower-dimensional closure and volume zero either way.  The volume
    is the signed Lawrence sum over the vertices P_B of the mask's entry
    in its simple cell's table (``_region_entry``), each basis B signed
    by its rows off W, as ``_lawrence_columns`` sums them for every
    region at once.  Raises on systems with unbounded closure.
    """
    slot, weak, vertices = _region_entry(reg)
    arrangement = slot.arrangement
    total = 0
    for b, _, basis in vertices or ():
        term = arrangement.weights[b] * slot.level(b) ** reg.dim
        total += -term if (basis & ~weak).bit_count() & 1 else term
    return Fraction(total, arrangement.den * slot.scale**reg.dim)


@dataclass(slots=True)
class _CountPlan:
    """The divisor-free half of a lattice count: its rows, oriented and split once.

    ``facets`` holds one triple (i, weak, a) per facet row i, in row
    order, with a = v_i on a weak row and a = -v_i on a strict one: at
    a lattice point a weak row <v, x> >= L is <v, x> >= ceil(L) and a
    strict row <v, x> < L is <-v, x> >= 1 - ceil(L), so every facet is
    one weak integer inequality <a, x> >= c.  In dimension n >= 2 the
    facets are split once by their last two entries (alpha, beta): a
    facet j with beta > 0 is a lower line (j, -alpha, beta) of the
    slice, t >= (-alpha*s + c_j)/beta, one with beta < 0 an upper line
    (j, alpha, -beta), t <= (alpha*s - c_j)/-beta, and one with beta = 0
    a flat row (j, alpha) that narrows s.  ``ends`` holds one pair
    (least, greatest) per axis k < n - 1, each a pair (getter, row) of
    ``_Arrangement.corners`` that reads coordinate k of the vertex
    least, or greatest, in it (``_cell_plan``): two dot products give
    the axis's range of the box.

    In dimension n >= 3 the plan also keeps what slab sums
    (``_slab_count``) need of the rows alone, read off the facets' last
    three entries, the coordinates a slab sum leaves free once the first
    n - 3 are fixed.  ``period`` is the lcm p of the nonzero 2 x 2 minors
    of the facets' last two entries: every vertex of a slice x_(n-2) = x
    solves two facets, so it moves by an integer vector when x moves by
    p.  ``breaks`` is None until a count first reads it
    (``_plan_breaks``), on a range of x of more than 4p integers; then it
    holds, per facet triple whose last three entries have a nonzero
    3 x 3 determinant, the x where the three planes meet, x = <form, c>
    / D for the rows' bounds c shifted to the fixed prefix (Cramer's
    rule: ``form`` the cofactors of the first of the three columns,
    D > 0 the determinant, all divided by their gcd), as one tuple
    (j, m_j, k, m_k, l, m_l, D) of facet indices and cofactors, padded
    with zero terms; a form met by several triples is kept once.
    """

    facets: tuple
    lower: tuple
    upper: tuple
    flat: tuple
    ends: tuple
    period: int = 1
    breaks: tuple | None = None


def _count_plan(arrangement: _Arrangement, facets: int, weak: int, ends) -> _CountPlan:
    """The plan of the rows in the ``facets`` mask, weak on the ``weak`` mask, with its box ``ends`` (``_CountPlan``).

    Its facet triples are the arrangement's ``oriented`` rows and its
    lines one object per value (``_Arrangement.share``).
    """
    rows = tuple(pair[weak >> i & 1] for i, pair in enumerate(arrangement.oriented) if facets >> i & 1)
    split = [(j, a[-2], a[-1]) for j, (_, _, a) in enumerate(rows) if len(a) > 1]
    share = arrangement.share
    return _CountPlan(
        rows,
        tuple(share((j, -alpha, beta)) for j, alpha, beta in split if beta > 0),
        tuple(share((j, alpha, -beta)) for j, alpha, beta in split if beta < 0),
        tuple(share((j, alpha)) for j, alpha, beta in split if not beta),
        ends,
        *((_period(rows),) if arrangement.dim >= 3 else ()),
    )


def _period(rows) -> int:
    """The period of a plan's facet triples (i, weak, a), off their last two entries, as ``_CountPlan`` keeps it."""
    minors = {abs(a[-2] * b[-1] - a[-1] * b[-2]) for (_, _, a), (_, _, b) in combinations(rows, 2)}
    return math.lcm(*minors - {0})


def _plan_breaks(plan: _CountPlan) -> tuple:
    """The breakpoint forms of a plan of dimension >= 3 (``_CountPlan.breaks``), off the facets' last three entries.

    Built on the first read and kept.
    """
    if plan.breaks is not None:
        return plan.breaks
    normals = [a[-3:] for _, _, a in plan.facets]
    breaks = set()
    for (i, a), (j, b), (k, c) in combinations(enumerate(normals), 3):
        cofactors = (b[1] * c[2] - b[2] * c[1], c[1] * a[2] - c[2] * a[1], a[1] * b[2] - a[2] * b[1])
        det = a[0] * cofactors[0] + b[0] * cofactors[1] + c[0] * cofactors[2]
        if det:
            g = math.gcd(det, *cofactors) * (1 if det > 0 else -1)
            # Zero cofactors are dropped before triples are compared, so equal forms are kept once.
            form = tuple(sorted((index, x // g) for index, x in zip((i, j, k), cofactors) if x))
            breaks.add((form, det // g))
    # Each break padded to three terms, (j, m_j, k, m_k, l, m_l, D), for one fixed-shape dot product.
    plan.breaks = tuple(sum(form + ((0, 0),) * (3 - len(form)), ()) + (den,) for form, den in sorted(breaks))
    return plan.breaks


def _cell_plan(arrangement: _Arrangement, mask: int, vertices) -> _CountPlan:
    """The count plan of a realized mask of a simple cell, from its table entry's vertex triples.

    The facet rows are the union of the vertex bases.  On the simple
    cell of the lowered levels the closure Q of the mask's region is a
    nonempty polytope whose vertices are the table's, each tight on its
    basis alone.  A row tight at no vertex holds strictly at every
    vertex, so strictly on Q, their convex hull.  Such a row is
    redundant: if some x satisfied the other rows but not it, the
    segment from a point of Q to x would meet, inside those rows, a
    first point where a dropped row is tight, a point of Q.  So the
    region is cut out by its facet rows alone, weak and strict as they
    are, and cuts no lattice point with the others; lowering moves no
    lattice point (``region_sum``), so the plan counts the divisor's own
    region.

    The ends are, per axis k < n - 1, the box rows of the vertex least
    in x_k and of the one greatest.  Every vertex P_B of the simple
    closure is tight on its basis B alone, with oriented normals s_j v_j
    (s_j = 1 on a weak row, -1 on a strict one), so P_B is least in x_k
    exactly when e_k lies in their cone (LP optimality at a simple
    vertex; Schrijver 1986, ch. 8): when s_j A_B[k][j] >= 0 on every row
    j of B, A_B the basis's integer inverse, and greatest when every
    product is <= 0.  The test reads signs alone, no divisor; some
    vertex of a polytope passes it, and vertices that both pass share
    the coordinate.  The vertices are linear in the levels, so the same
    bases bound the box at the unlowered levels a count reads.  Raises
    ToricError if no vertex passes.
    """
    facets = reduce(or_, (basis for _, _, basis in vertices))
    ends = []
    for k in range(arrangement.dim - 1):
        pair = []
        for sign in (1, -1):  # the least vertex, then the greatest
            for b, _, _ in vertices:
                combo, adjugate, *_ = arrangement.bases[b]
                if all(sign * x * (1 if mask >> i & 1 else -1) >= 0 for i, x in zip(combo, adjugate[k])):
                    get, rows = arrangement.corners[b]
                    pair.append((get, rows[k]))
                    break
            else:
                raise ToricError("internal: no vertex of a simple cell's region is extreme along an axis")
        ends.append(tuple(pair))
    return _count_plan(arrangement, facets, mask, tuple(ends))


def _check_prefixes(box) -> None:
    """Raise CapExceededError when the box's ranges hold more than ``FIBER_BUDGET`` integer points.

    The points are counted (``math.prod``), never listed.
    """
    prefixes = math.prod(map(len, box))
    if prefixes > FIBER_BUDGET:
        raise CapExceededError(
            f"lattice scan needs {prefixes} fibers (integer points of the first {len(box)}"
            f" coordinates); it is capped at {FIBER_BUDGET}"
        )


def _bounds(plan: _CountPlan, ceilings):
    """(a, c) per facet: the weak integer row <a, x> >= c of the row bounds ceil(L_i)."""
    return [(a, ceilings[i] if weak else 1 - ceilings[i]) for i, weak, a in plan.facets]


def _fibers(rows, box):
    """Yield (prefix, lo, hi) for each nonempty fiber along the last axis.

    ``rows`` are the weak integer rows (a, c) of ``_bounds`` and ``box``
    the integer ranges of the first n - 1 coordinates; above each of
    their integer points, in lexicographic order, the region holds
    exactly the lattice points whose last coordinate is one of the
    integers lo..hi, each bound a floor division of integers.  A plan's
    rows cut out a bounded closure, so rows with a positive and with a
    negative last entry bound every fiber (else e_n or -e_n would
    recede).  Raises CapExceededError past ``FIBER_BUDGET`` prefixes.
    """
    _check_prefixes(box)
    for prefix in product(*box):
        # Each row is last * x_n >= rest: a ceiling, a floor, or all or nothing.
        rests = [(a[-1], c - sum(map(mul, a, prefix))) for a, c in rows]
        if any(rest > 0 for last, rest in rests if not last):
            continue
        lo = max(-(-rest // last) for last, rest in rests if last > 0)
        hi = min(rest // last for last, rest in rests if last < 0)
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


def _slice_count(lower, upper, lo: int, hi: int) -> int:
    """The lattice points (s, t) with lo <= s <= hi between the lower and the upper lines.

    A line (p, q, r), r > 0, has value (p*s + q)/r; ``lower`` bounds t
    from below and ``upper`` from above, and both are nonempty.  Above
    s lie U(s) - L(s) + 1 points, U the floor of the upper envelope and
    L the ceiling of the lower, when the real gap between the envelopes
    is nonnegative, and none otherwise.  The walk jumps from s past the
    last integer before an envelope changes line or the real gap changes
    sign, and adds each run with two ``floor_sum`` calls.  The gap at
    the first s of a run is evaluated directly, so a slice that is a
    segment or a point is counted exactly.  The real gap is concave, so
    once it is negative and not growing no point lies further right.
    This is the one walk of every lattice count.
    """
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


def _lattice_count(plan: _CountPlan, ceilings, box) -> int:
    """The number of lattice points of a plan's region: the one count core.

    ``ceilings`` are the rows' bounds ceil(L_i) and ``box`` the integer
    ranges of the first n - 1 coordinates of the closure, each read off
    its two extreme vertices (``_slot_plan``), the last of them the range
    of s.  In dimension 1, where the box has no coordinate, the count
    sums the region's one fiber; in dimension 2 it is one slice
    (``_plan_slice``) on the facets' bounds, read straight off the
    ceilings with no row pairs built and no prefix counted; in dimension
    n >= 3 the slices of range n - 2 are summed slab by slab
    (``_slab_count``) once per integer point of the first n - 3 ranges,
    each facet's bound shifted by its head <a, prefix>: a number of
    slices bounded by the plan for every m*D in dimension 3, and about
    m^(n-3) times that in dimension n.  Dimension 3 has no prefix and
    builds no product.  A slice with k facets costs O(k) envelope steps
    of O(k) work each plus O(log m) per floor sum, independent of its
    width.  A box of more than ``FIBER_BUDGET`` integer points of the
    first n - 2 ranges raises CapExceededError before any count.
    """
    if len(box) == 1:
        c = [ceilings[i] if weak else 1 - ceilings[i] for i, weak, _ in plan.facets]
        return _plan_slice(plan, c, box[0].start, box[0].stop - 1)
    rows = _bounds(plan, ceilings)
    if not box:
        return sum(hi - lo + 1 for _, lo, hi in _fibers(rows, box))
    heads = box[:-1]
    _check_prefixes(heads)
    lo, hi = box[-1].start, box[-1].stop - 1
    if len(heads) == 1:
        return _slab_count(plan, rows, heads[0], lo, hi)
    return sum(
        _slab_count(plan, [(a, bound - sum(map(mul, a, prefix))) for a, bound in rows], heads[-1], lo, hi)
        for prefix in product(*heads[:-1])
    )


def _plan_slice(plan: _CountPlan, c, lo: int, hi: int) -> int:
    """The lattice count of one 2-D slice of a plan, on which facet j reads alpha*s + beta*t >= c[j].

    Every slice of every count is built here, from the facets' bounds c
    shifted to the slice's head.  The flat rows narrow the range lo..hi
    of s or empty it, and the plan's lower and upper lines, with the
    bounds c, are walked by ``_slice_count``.  Both envelopes are
    nonempty, as the fibers of ``_fibers`` are bounded.
    """
    for j, alpha in plan.flat:
        if alpha > 0:
            lo = max(lo, -(-c[j] // alpha))
        elif alpha < 0:
            hi = min(hi, c[j] // alpha)
        elif c[j] > 0:
            return 0
    return _slice_count([(p, c[j], r) for j, p, r in plan.lower], [(p, -c[j], r) for j, p, r in plan.upper], lo, hi)


def _slab_count(plan: _CountPlan, rows, xs: range, lo: int, hi: int) -> int:
    """The slices of a count over the range ``xs`` of coordinate n - 2, summed by slab.

    ``rows`` are the plan's weak integer rows (a, c), their bounds
    shifted to a fixed integer point of the first n - 3 coordinates, so
    that they cut a 3-D polytope in the last three, and lo..hi is the
    range of s; the slice at x has the bounds c - a[-3] * x.  The slice
    count f(x) changes its form only where three facet planes meet:
    between two consecutive breakpoints x = <form, c> / D of
    ``_CountPlan.breaks`` every slice polygon has one combinatorial
    type, its vertices affine in x, and moving x by the plan's period p
    moves each vertex by an integer vector.  So on each open slab and
    each residue class x0 + k p the slices are P + kZ for one lattice
    polygon Z, and f is a polynomial of degree <= 2 in k (McMullen 1978;
    the parametric Ehrhart theorem of Clauss and Loechner 1998).  A
    range of at most 4p integers is summed slice by slice, with no
    breakpoint read.  Otherwise an integer breakpoint is counted
    directly, and so is every integer of a slab of at most 4p.  On a
    longer slab each class of N integers is evaluated at k = 0, 1, 2,
    which fixes f = f0 + D1 k + D2 C(k, 2), and adds N f0 + D1 C(N, 2) +
    D2 C(N, 3); its last integer is evaluated too and must agree, or
    ToricError.  Such a slab takes 4p slices for more than 4p integers,
    so no count evaluates more slices than ``xs`` holds.
    """
    p = plan.period
    start, stop = xs.start, xs.stop
    # Position 2x stands for the integer x and 2x + 1 for the open interval (x, x + 1).
    walls = []
    if len(xs) > 4 * p:
        for j, mj, k, mk, l, ml, den in _plan_breaks(plan):
            x, rest = divmod(mj * rows[j][1] + mk * rows[k][1] + ml * rows[l][1], den)
            if start <= x < stop:
                walls.append(2 * x + (rest > 0))
        walls.sort()
    walls.append(2 * stop - 1)
    total, u = 0, 2 * start - 1
    for v in walls:
        first, last = u // 2 + 1, (v - 1) // 2
        wide = last - first >= 4 * p
        # Every slice of the slab or, on a wide one, k = 0, 1, 2 and the last k of each class x0 + k p;
        # then an integer wall's.
        if wide:
            nodes = [x0 + k * p for x0 in range(first, first + p) for k in (0, 1, 2, (last - x0) // p)]
        else:
            nodes = list(range(first, last + 1))
        if v != u and not v & 1:
            nodes.append(v // 2)
        f = [_plan_slice(plan, [bound - a[-3] * x for a, bound in rows], lo, hi) for x in nodes]
        if wide:
            for i, x0 in enumerate(range(first, first + p)):
                f0, f1, f2, f3 = f[4 * i : 4 * i + 4]
                n = (last - x0) // p + 1
                d1, d2 = f1 - f0, f2 - 2 * f1 + f0
                if f3 != f0 + d1 * (n - 1) + d2 * math.comb(n - 1, 2):
                    raise ToricError(f"internal: slice counts on the slab {first}..{last} are not quadratic")
                total += n * f0 + d1 * math.comb(n, 2) + d2 * math.comb(n, 3)
        total += sum(f[4 * p :] if wide else f)
        u = v
    return total


def lattice_count(reg: HalfOpenRegion) -> int:
    """The number of integer points of the half-open region.

    The mask's entry in its simple cell's table (``_region_entry``) is
    counted as ``region_sum`` counts it (``_slot_count``), on the
    entry's kept plan, its box off two vertices per axis and the row
    bounds of the region's slot: 2-D slices counted with no point
    listed, or in dimension 1 the one fiber; a mask with no entry holds
    no point.  Raises on systems with unbounded closure and
    CapExceededError past ``FIBER_BUDGET`` prefixes, the integer points
    of the box's first n - 2 coordinates.
    """
    slot, weak, vertices = _region_entry(reg)
    return 0 if vertices is None else _slot_count(slot, weak, vertices)


def lattice_points(reg: HalfOpenRegion) -> list[tuple[int, ...]]:
    """All integer points of the half-open region, in lexicographic order.

    Membership honors the mixed weak/strict system exactly; the points
    are the fibers of ``_fibers`` on the plan and box of the mask's
    table entry (``_slot_plan``, two vertices per axis) and the row
    bounds of the region's slot, expanded one by one.  They are counted first on the
    same plan (``_slot_count``), and more than ``FIBER_BUDGET`` of them
    raise CapExceededError before any is listed.
    """
    slot, weak, vertices = _region_entry(reg)
    if vertices is None:
        return []
    total = _slot_count(slot, weak, vertices)
    if total > FIBER_BUDGET:
        raise CapExceededError(f"region has {total} lattice points; listing is capped at {FIBER_BUDGET}")
    plan, box = _slot_plan(slot, weak, vertices)
    fibers = _fibers(_bounds(plan, _slot_bounds(slot)), box)
    return [prefix + (x,) for prefix, lo, hi in fibers for x in range(lo, hi + 1)]


def _slot_simple(slot: _DivisorSlot) -> _TypeCell:
    """The simple cell of the slot's cell (``_simple_cell``), kept on the slot."""
    if slot.simple is None:
        slot.simple = _simple_cell(slot.arrangement, slot.cell)
    return slot.simple


def _slot_bounds(slot: _DivisorSlot) -> tuple[int, ...]:
    """The row bounds ceil(-d_i) of the slot's divisor (``_ceilings``), cleared once per slot."""
    if slot.bounds is None:
        coefficients, q = slot.key
        slot.bounds = _ceilings([-x for x in coefficients], q)
    return slot.bounds


def _realized_masks(slot: _DivisorSlot):
    """The realized bounded masks of the slot's simple cell, as (mask, subset, vertices).

    On the simple cell of the lowered levels (``_simple_cell``) each
    basis B is a vertex tight on B alone, and the regions whose closure
    holds it are the 2^n orthant masks W = above(P_B) | S, S any submask
    of B.  Each one the arrangement finds bounded (``_Arrangement.subset``) is kept with the
    vertex triples (b, above, basis) of its closure, in basis order.
    Lowering the levels changes no lattice count (``region_sum``) and,
    by continuity, no volume, so this one table feeds both.  Built once
    per simple cell (``_realized_table``) and kept on it.
    """
    cell = _slot_simple(slot)
    if cell.masks is None:
        arrangement = slot.arrangement
        cell.masks = _realized_table(arrangement, _cell_vertices(arrangement, cell))
        arrangement.grow(cell, sum(len(entry[2]) for entry in cell.masks))
    return cell.masks


def _realized_table(arrangement: _Arrangement, vertices):
    """The table of ``_realized_masks`` from a simple cell's vertex triples."""
    realized = arrangement.subset
    tables: dict = {}
    for vertex in vertices:
        _, above, basis = vertex
        sub = basis
        while sub >= 0:  # every submask of the basis, down to 0
            mask = above | sub
            if mask in tables:
                tables[mask].append(vertex)
            elif realized(mask) is not None:
                tables[mask] = [vertex]
            sub = (sub - 1) & basis if sub else -1
    return tuple((mask, realized(mask), tuple(vertices)) for mask, vertices in tables.items())


def region_sum(fan: Fan, d: Divisor, weight) -> tuple:
    """Sum of weight(fan, W) * (lattice points in the region of W) over the bounded subsets W.

    ``weight`` maps (fan, ray subset) to a tuple of integers, of the
    same length for every subset, as the weights of the volume tables
    do (``_lawrence_columns``).  Only the regions D realizes are
    visited, read off the table of ``_realized_masks``, at most 2^n per
    basis.  Lowering every level L_i by an infinitesimal theta_i > 0
    moves no lattice point across a row: at a lattice point m, <m, v_i>
    is an integer, so <m, v_i> >= L_i - theta_i exactly when <m, v_i> >=
    L_i, and the strict rows likewise.  So each region of D holds the
    lattice points of its lowered region, and on the lowered levels a
    nonempty bounded region's closure has a vertex P_B, whose regions
    are the table's orthant masks.  Each is counted off the divisor's
    slot by ``_slot_count``, with the row bounds of D itself.

    The fan's arrangement holds the last divisor asked about in one slot
    (``_DivisorSlot``) as ``held`` (``_held_slot``): the same divisor
    object finds it by the identity
    of its entries, with no clearing, and any other divisor is cleared
    and compared by its key, the integers q * d and their q, so 2 and
    Fraction(4, 2) share it.  The slot reads its realized masks off the
    simple cell of the divisor's type cell.  A new divisor replaces it
    in one assignment, so concurrent calls need no lock.  The slot also
    keeps the count of every mask counted so far, so a second question
    about one divisor (``cech_oracle`` or ``euler_char`` after
    ``h_all``) counts no region the first one did.

    Only the table entries with a nonzero weight are visited
    (``_weighted_entries``, kept per weight on the simple cell), so a
    caller that weights by a slice of the rank vectors counts only the
    regions that slice reads, and only the nonzero entries of a weight
    are added.  A region is counted only when its count is missing, and
    no region object is built.
    """
    slot = _held_slot(fan, d)
    size, entries = _weighted_entries(fan, slot, weight)
    amounts = slot.amounts
    total = [0] * size
    for mask, nonzero, vertices in entries:
        amount = amounts.get(mask)
        if amount is None:
            amount = amounts[mask] = _slot_count(slot, mask, vertices)
        if amount:
            for i, x in nonzero:
                total[i] += x * amount
    return tuple(total)


def _weighted_entries(fan: Fan, slot: _DivisorSlot, weight):
    """(size, entries): the weight's length and the realized table entries it weights.

    One entry (mask, nonzero, vertices) per entry of ``_realized_masks``
    whose weight is not all zero, with ``nonzero`` the pairs (i, w_i)
    with w_i != 0, one object per value (``_Arrangement.share``).  The
    length is read off the first realized subset, else the empty one.
    Kept on the slot's simple cell under the weight object, one entry
    per entry.
    """
    simple = _slot_simple(slot)
    found = simple.weighted.get(weight)
    if found is None:
        arrangement = slot.arrangement
        table = [(mask, weight(fan, rays), vertices) for mask, rays, vertices in _realized_masks(slot)]
        entries = tuple(
            (mask, arrangement.share(tuple((i, x) for i, x in enumerate(w) if x)), vertices)
            for mask, w, vertices in table
            if any(w)
        )
        found = simple.weighted[weight] = len(table[0][1] if table else weight(fan, frozenset())), entries
        arrangement.grow(simple, len(entries))
    return found


def _slot_plan(slot: _DivisorSlot, mask: int, vertices):
    """(plan, box) of a realized mask's region on the divisor slot.

    The mask's count plan (``_cell_plan``, from its vertex triples
    ``vertices``) is built on its first use and kept on the slot's
    simple cell.  The box holds the integer ranges of the first n - 1
    coordinates of the vertices: range k runs from the ceiling of the
    least vertex's x_k to the floor of the greatest's, each one dot
    product off the plan's ``ends``, so no other vertex is solved.
    """
    arrangement, simple = slot.arrangement, _slot_simple(slot)
    plan = simple.plans.get(mask)
    if plan is None:
        plan = simple.plans[mask] = _cell_plan(arrangement, mask, vertices)
        arrangement.grow(simple, len(plan.facets) + len(plan.ends))
    c, scale = slot.key[0], slot.scale
    return plan, [
        range(-(-sum(map(mul, low, least(c))) // scale), sum(map(mul, high, most(c))) // scale + 1)
        for (least, low), (most, high) in plan.ends
    ]


def _slot_count(slot: _DivisorSlot, mask: int, vertices) -> int:
    """The lattice count of a realized mask's region, read off the divisor slot.

    The plan and box of ``_slot_plan`` and the rows' bounds ceil(-d_i),
    cleared once per slot (``_slot_bounds``); ``_lattice_count`` counts.
    """
    plan, box = _slot_plan(slot, mask, vertices)
    breaks = plan.breaks
    count = _lattice_count(plan, _slot_bounds(slot), box)
    if plan.breaks is not breaks:  # this count built the plan's breakpoints (``_plan_breaks``)
        slot.arrangement.grow(slot.simple, len(plan.breaks))
    return count


def _lawrence_columns(fan: Fan, slot: _DivisorSlot, weight):
    """The volume table of the slot's type cell for a weight: one column per weight entry.

    ``weight`` maps (fan, ray subset) to a tuple of integers of one
    length.  Each basis B of the simple cell adds c_B = sum_W
    (-1)^|B - W| weight(W) over the entries (W, subset, vertices) of the
    realized table (``_realized_masks``) whose vertices hold B.  Column i
    holds the pairs (b, c_B[i] * N_B * den) with c_B[i] != 0, in basis
    order, so that the weighted normalized volumes sum to sum_b entry *
    <g_B, L_B>^n / (den (q common)^n).  Kept on the slot's own cell, one
    entry per pair, under the weight object, so a later divisor of the
    cell reads it with no key of its simple cell.
    """
    arrangement, cell = slot.arrangement, slot.cell
    columns = cell.columns.get(weight)
    if columns is not None:
        return columns
    size, weights = len(weight(fan, frozenset())), arrangement.weights
    totals = [[0] * size for _ in weights]
    for mask, subset, vertices in _realized_masks(slot):
        w = weight(fan, subset)
        for b, _, basis in vertices:
            sign = -1 if (basis & ~mask).bit_count() & 1 else 1
            totals[b] = [c + sign * x for c, x in zip(totals[b], w)]
    rows = list(enumerate(zip(weights, totals)))
    columns = cell.columns[weight] = tuple(
        tuple((b, m * c[i]) for b, (m, c) in rows if c[i]) for i in range(size)
    )
    arrangement.grow(cell, sum(map(len, columns)))
    return columns


def _lawrence_sum(fan: Fan, slot: _DivisorSlot, weight, degrees: slice) -> tuple[Fraction, ...]:
    """sum_W weight(W)[i] * nvol(W) over the bounded regions of the slot's divisor, i in ``degrees``.

    Read off ``_lawrence_columns``: each basis in a column costs one
    power <g_B, L_B>^n, kept on the slot, so ``self_intersection`` after
    ``hhat`` takes none twice, and each nonzero entry of the answer is
    one ``Fraction``; a zero entry, such as every higher rate of an
    ample cell, is the shared ``_ZERO``.
    """
    n = fan.dim
    powers = slot.powers
    scale = slot.arrangement.den * slot.scale**n
    answer = []
    for column in _lawrence_columns(fan, slot, weight)[degrees]:
        total = 0
        for b, m in column:
            power = powers.get(b)
            if power is None:
                power = powers[b] = slot.level(b) ** n
            total += m * power
        answer.append(Fraction(total, scale) if total else _ZERO)
    return tuple(answer)


def _h0_partial(fan: Fan, slot: _DivisorSlot, weight, rays) -> Fraction:
    """The mixed partial along the distinct ``rays`` of column 0 of the slot's volume sum.

    With L = -q d, <g_B, L_B> / q = -<g_B, d_B> is linear in d, so the
    degree-0 column is the polynomial sum_B m_B (-<g_B, d_B>)^n /
    (den common^n), and its r-th mixed partial takes the bases B that
    hold every ray rho = B_j: n! / (n - r)! (-<g_B, d_B>)^(n - r)
    prod_rho (-g_B[j]).  It is the partial of the volume sum wherever
    that sum is this polynomial near d, as on an open chamber.  One
    ``Fraction`` is built.
    """
    arrangement = slot.arrangement
    n, r = fan.dim, len(rays)
    total = 0
    for b, m in _lawrence_columns(fan, slot, weight)[0]:
        combo, g = arrangement.lawrence[b]
        found = dict(zip(combo, g))
        if all(rho in found for rho in rays):
            total += m * slot.level(b) ** (n - r) * math.prod(-found[rho] for rho in rays)
    scale = arrangement.den * arrangement.common**n * slot.key[1] ** (n - r)
    return Fraction(math.perm(n, r) * total, scale)


def ehrhart_probe(fan: Fan, d: Divisor, weak_rays, m_max: int):
    """Scaled lattice counts of the dilated regions, for m = 1..m_max.

    Row m holds (m, count(region of m*d) * n! / m^n); the values converge
    to the normalized volume of the region of d.  Positive scaling keeps
    every circuit sign, so m*d lies in d's type cell for every m: d's
    table entry is found once (``_region_entry``), and each m is counted
    as ``lattice_count`` counts it, on a slot of m*d in lowest terms that
    shares d's cell and simple cell, so no m keys a cell or builds a
    realized table again, kept by the arrangement or not.  Raises
    ValueError unless m_max is an int (not a bool) of at least 1.
    """
    if isinstance(m_max, bool) or not isinstance(m_max, int) or m_max < 1:
        raise ValueError(f"m_max must be an integer of at least 1, got {m_max!r}")
    if m_max > 50:
        raise CapExceededError("ehrhart probe is capped at m_max = 50")
    slot, weak, vertices = _region_entry(region(fan, d, weak_rays))
    coefficients, q = slot.key
    n = fan.dim
    table = []
    for m in range(1, m_max + 1):
        scaled, p = _lowest_terms([m * c for c in coefficients], q)
        dilated = _DivisorSlot((tuple(scaled), p), slot.arrangement, slot.cell, simple=slot.simple)
        count = 0 if vertices is None else _slot_count(dilated, weak, vertices)
        table.append((m, Fraction(count * math.factorial(n), m**n)))
    return table

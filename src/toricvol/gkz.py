"""Chamber decomposition of the effective cone of a complete toric variety.

The effective cone decomposes into finitely many rational polyhedral
cones (the secondary / GKZ decomposition): a chamber is indexed by a
(possibly degenerate) fan refining behavior together with a set of rays
carrying strict slack.  Within a chamber the combinatorics of the
section polytope is constant, which is what makes the asymptotic
functions piecewise polynomial.

This module computes, exactly:

* the min-style support function of a divisor's section polytope and
  the rays where its inequality is strict,
* the possibly degenerate normal fan of the section polytope,
* explicit inequality systems for chamber cones and membership tests,
* the located chamber of a divisor class (with an interior flag),
* the full list of maximal chambers in dimension 2 (dimension 3 behind
  an opt-in flag), by one facet-filling search over the ray subsets for
  both dimensions, each candidate fan certified complete by the fan
  validator's integer test and projective by one capped-gap LP over
  its own condition system (the inequalities sharing one gap, the
  equalities held at 0), whose point is the chamber's sample divisor,
* nef decompositions of chamber members, pushforwards, and the chamber
  polynomial of the section growth rate,
* the ampleness test through neighborhood vanishing of the higher
  asymptotic functions.

Chamber facts depend on the ray configuration alone (Gelfand, Kapranov
and Zelevinsky), so they are computed once per fan.  The fan's
``Fan.configuration`` keeps, per ray basis, the coordinates of every
ray in it (a column of the basis's integer inverse dotted with the
ray) and the inside mask (the rays in its cone).  The per-fan memo
keeps four kinds: the condition system of each chamber cone
(``"gkz_system"``) and the plan of its nef splits (``"nef_plan"``), the
list of maximal chambers (``"maximal_chambers"``) and the standalone
fan of each chamber that ``hhat0_on_chamber`` evaluates on
(``"sigma_fan"``).  The rays inside a cone and the extreme subset of a
tight ray set are a few ORs of inside masks, computed where they are
read and not kept.  Every ray-in-cone fact
of the chamber search, the condition systems, the normal fans and the
owner rows of the nef plans read those coordinates and masks, and the
region vertices and the Cartier data of ``divisor`` read the same
table of basis inverses, so none of them runs an elimination or an LP
of its own.  The located chamber of a divisor is constant on its
type cell (``regions``: the divisors with the same circuit signs), so it
is kept on the cell, and a divisor of a cell met before is located by
its cell key alone.

Every decision reads integers.  A condition system holds its rows as
primitive int tuples, once per fan, and membership, the chamber step
(``GKZCone.step``, the step rule of the ampleness probes) and the
interior-sample LP read those rows as they are; the chamber search
takes a ray's side of a facet from its coordinates in a basis.  The
growth path clears each divisor to integers at most once per call
(``linalg.to_integers``) and stays there; on a complete fan the cleared
divisor is the key of its held slot (``regions._held_slot``), so the
calls of a chamber step on one divisor object clear it once in all, and
``hhat0_on_chamber`` hands the pair it tests membership on to the held
slot.
The ampleness test reads an ample class of an open type cell off the
volume table of its cell, with no probe.  Only a class on a cell wall
is probed: ``GKZCone.slacks`` takes the cleared divisor, so the test
reads the step for every ray off one set of slacks, builds each probe
d +- (a / b) e_rho as integers over q b in lowest terms, tests it with
integer dots and hands it to the cleared rates
(``asymptotics._cleared_rates``).  A nef decomposition reads its ray
values off a plan kept once per fan and chamber (``_NefPlan``, which
also holds the nef region's arrangement) and computes its parts and its
two vertex tables as integers over one scale.  A ``Fraction`` is built
only for an answer: support function values, sample divisors, nef
parts, shifts and growth rates.  The memo
holds none of them as a ``GKZCone`` or as anything else that
references the ambient fan (a chamber's fan is built on copies of its
rays); every call builds fresh ``GKZCone`` objects around the memoized
data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul

from .asymptotics import _cleared_rates, self_intersection
from .divisor import Divisor, _basis_functional, _check_length, _coefficient
from .errors import (
    ChamberMembershipError,
    EffectiveConeError,
    NotCompleteError,
    NotSimplicialError,
    ToricError,
    UnsupportedDimensionError,
)
from .fan import Fan, _check_rays, _glued_cover_once, make_fan
from .homology import _local_ranks
from .linalg import _lowest_terms, _point_integers, dot, nullspace, rank, solve, to_integers
from .lp import gap_lp, relative_interior_functional
from .regions import _Arrangement, _arrangement, _closure_table, _divisor_slot, _held_slot
from .regions import _lawrence_columns, _lawrence_sum, _own_memo


# ---------------------------------------------------------------------------
# Support function and normal fan


@dataclass(frozen=True)
class SupportFunction:
    """Minimum of the pairing over the section polytope's vertices."""

    vertices: tuple[tuple[Fraction, ...], ...]
    ray_values: tuple[Fraction, ...]

    def __call__(self, vector) -> Fraction:
        """The minimum of the pairing with ``vector``, read at its exact value (``linalg._point_integers``).

        Raises ValueError unless it has ``dim`` entries, and on a bool
        entry; TypeError on a string.
        """
        dim = len(self.vertices[0])
        if len(vector) != dim:
            raise ValueError(f"vector has {len(vector)} entries, the section polytope has dimension {dim}")
        coordinates, p = _point_integers(vector)
        return min(dot(v, coordinates) for v in self.vertices) / p


@dataclass(frozen=True)
class PossiblyDegenerateFan:
    """Cone list that may share a positive-dimensional lineality space.

    Maximal cones are recorded by generating ray indices of the ambient
    fan; when the lineality space is zero the generator sets are reduced
    to extreme rays.
    """

    dim: int
    max_cones: tuple[frozenset[int], ...]
    lineality_basis: tuple[tuple[Fraction, ...], ...]

    @property
    def degenerate(self) -> bool:
        return bool(self.lineality_basis)

    def ray_set(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for cone in self.max_cones:
            out |= cone
        return out


# The error of an empty section polytope, and the located chamber of a
# type cell where it is empty.
_NOT_EFFECTIVE = "section polytope is empty: class not effective"


def _section_vertices(fan: Fan, slot):
    """The section polytope's vertices as sorted integer points, their scale, and tight rays.

    Returns (points, scale, tight): the vertices are P / scale for the
    integer points P in sorted order, read off the slot's type cell
    with all rays weak, and ``tight`` holds each vertex's tight rays,
    those whose inequality holds with equality there, turned from the
    cell's bitmasks into ray sets once.  No ``Fraction`` is built here.
    The lists are empty when the polytope is.
    """
    k = len(fan.rays)
    table, scale = _closure_table(slot, (1 << k) - 1)
    points = sorted(table)
    return points, scale, [frozenset(i for i in range(k) if table[point] >> i & 1) for point in points]


def _strict_rays(fan: Fan, tight) -> frozenset[int]:
    """The rays tight at no vertex: their minimum beats the level strictly."""
    return frozenset(range(len(fan.rays))).difference(*tight)


def support_function(fan: Fan, d: Divisor) -> tuple[SupportFunction, frozenset[int]]:
    """The support function of the section polytope and its strict rays.

    The strict rays are those where the function value at the ray beats
    the divisor's own level strictly; they never generate cones of the
    normal fan.
    """
    points, scale, tight = _section_vertices(fan, _held_slot(fan, d))
    if not points:
        raise EffectiveConeError(_NOT_EFFECTIVE)
    vertices = tuple(tuple(Fraction(x, scale) for x in point) for point in points)
    values = tuple(min(dot(v, ray) for v in vertices) for ray in fan.rays)
    return SupportFunction(vertices, values), _strict_rays(fan, tight)


def _cone_members(fan: Fan, cone: frozenset[int]) -> frozenset[int]:
    """The rays lying in the closed cone spanned by ``cone``.

    By the conic Carathéodory theorem a ray lies in a full-dimensional
    cone, pointed or not, exactly when it lies in the cone of some ray
    basis inside it, so the members are the union of the inside masks
    (``fan._Configuration.inside``) of the cone's n-subsets.  A
    lower-dimensional cone has no basis and gets no member.  No LP runs,
    and the answer is a few ORs of masks the configuration keeps, so it
    is not kept itself: its callers' results are.
    """
    configuration = fan.configuration
    inside = 0
    for basis in combinations(sorted(cone), fan.dim):
        inside |= configuration.inside(basis)
    return frozenset(rho for rho in range(len(fan.rays)) if inside >> rho & 1)


def _extreme_subset(fan: Fan, rays: frozenset[int]) -> frozenset[int]:
    """The rays of a spanning set that no other ray of the set spans.

    Ray i is dropped when the inside mask of some basis among the other
    rays holds it (conic Carathéodory, as in ``_cone_members``).  The set
    must span: the one caller, ``_normal_fan`` with no lineality, passes
    the tight set of a vertex of a full-dimensional section polytope.
    Then when the other rays do not span, i lies off their span and is
    kept.  No LP runs, and the answer is not kept: the located chamber
    that reads it is, on its type cell.
    """
    configuration = fan.configuration
    covered = 0
    for basis in combinations(sorted(rays), fan.dim):
        covered |= configuration.inside(basis) & ~sum(1 << b for b in basis)
    return frozenset(i for i in rays if not covered >> i & 1)


def _normal_fan(fan: Fan, points, tight) -> PossiblyDegenerateFan:
    """The normal fan of the vertices P / scale given by their integer points P.

    The lineality space is the kernel of the vertex differences, which
    no positive scale changes, so it comes from the integer differences.
    """
    base = points[0]
    diffs = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    if diffs:
        lineality = tuple(nullspace(diffs))
    else:
        lineality = tuple(
            tuple(Fraction(int(i == j)) for j in range(fan.dim)) for i in range(fan.dim)
        )
    if not lineality:
        tight = [_extreme_subset(fan, rays) for rays in tight]
    return PossiblyDegenerateFan(fan.dim, tuple(sorted(tight, key=sorted)), lineality)


def normal_fan(fan: Fan, d: Divisor) -> PossiblyDegenerateFan:
    """Possibly degenerate normal fan of the section polytope.

    Maximal cones correspond to the polytope's vertices and are
    positively spanned by the rays whose constraints are tight there;
    the lineality space appears exactly when the polytope is not
    full-dimensional.  It is the located chamber's, so it is computed
    once per type cell.
    """
    return locate_chamber(fan, d).sigma


@dataclass(frozen=True)
class LocatedChamber:
    sigma: PossiblyDegenerateFan
    strict_rays: frozenset[int]
    interior: bool


def locate_chamber(fan: Fan, d: Divisor) -> LocatedChamber:
    """The unique chamber cone whose relative interior holds the class.

    The interior flag is the maximal-chamber criterion: nondegenerate,
    simplicial, and strict rays complementary to the normal fan's rays.
    Everything it reads is constant on the divisor's type cell (the
    tight sets of the section polytope's vertices, and the span of
    their differences, which is the kernel of the rows tight at all of
    them), so the answer, or the mark of an empty section polytope that
    raises EffectiveConeError, is kept on the cell
    (``regions._TypeCell.chamber``): a divisor of a cell met before
    solves no vertex.
    """
    return _slot_chamber(fan, _held_slot(fan, d))


def _slot_chamber(fan: Fan, slot) -> LocatedChamber:
    """``locate_chamber`` of the slot's divisor, read off its type cell and kept there."""
    cell = slot.cell
    if cell.chamber is None:
        cell.chamber = _located_chamber(fan, slot)
        slot.arrangement.grow(cell, 1)
    if cell.chamber is _NOT_EFFECTIVE:
        raise EffectiveConeError(_NOT_EFFECTIVE)
    return cell.chamber


def _located_chamber(fan: Fan, slot):
    """The located chamber of the slot's cell, or ``_NOT_EFFECTIVE``."""
    points, _, tight = _section_vertices(fan, slot)
    if not points:
        return _NOT_EFFECTIVE
    sigma = _normal_fan(fan, points, tight)
    strict = _strict_rays(fan, tight)
    interior = (
        not sigma.degenerate
        and all(len(cone) == fan.dim for cone in sigma.max_cones)
        and len(strict) == len(fan.rays) - len(sigma.ray_set())
    )
    return LocatedChamber(sigma, strict, interior)


# ---------------------------------------------------------------------------
# Chamber cones: the explicit inequality system


@dataclass(frozen=True)
class GKZCone:
    """One chamber cone with its explicit linear condition system.

    Conditions are vectors c acting on coefficient vectors d by c . d;
    equalities demand zero, inequalities demand nonnegativity.  The
    system is assembled from all expansions of rays in independent ray
    bases inside each cone, so membership is a finite exact check.
    The conditions ``gkz_cone`` builds are primitive integer vectors,
    held as int tuples once per fan, and an instance keeps no other copy
    of them.  ``slacks`` dots them with a divisor already cleared to
    integers (times q > 0, which keeps every sign); membership and the
    step rule ``step`` read those dots.
    """

    fan: Fan
    sigma_cones: tuple[frozenset[int], ...]
    strict_rays: frozenset[int]
    lineality_basis: tuple[tuple[Fraction, ...], ...]
    equalities: tuple[tuple[int, ...], ...]
    inequalities: tuple[tuple[int, ...], ...]
    members: tuple[frozenset[int], ...]  # rays lying in each cone
    bases: tuple[tuple[int, ...], ...]  # one independent ray basis per cone
    sample_divisor: Divisor | None = None

    def slacks(self, coefficients):
        """(equality dots, inequality dots) of a divisor cleared to integers.

        ``coefficients`` is q * d for some q > 0 (``linalg.to_integers``),
        so each dot over q is the slack of d at its row and has its sign.
        The dots are integers for the integer rows ``gkz_cone`` builds; a
        copy with rational rows gets rational dots.  Raises ValueError
        unless there is one coefficient per ray.
        """
        _check_length(self.fan, coefficients)
        return (
            [sum(map(mul, row, coefficients)) for row in self.equalities],
            [sum(map(mul, row, coefficients)) for row in self.inequalities],
        )

    def contains(self, d: Divisor) -> bool:
        return _in_closed(self.slacks(to_integers(d)[0]))

    def contains_strictly(self, d: Divisor) -> bool:
        return _in_open(self.slacks(to_integers(d)[0]))

    def step(self, slacks, q: int, rho: int) -> tuple[int, int]:
        """A step a / b that moves a strict member along ray rho without leaving.

        ``slacks`` are this cone's ``slacks`` of q * d.  The step is
        min(1, slack / (2 |row_rho|)) over the inequality rows with
        row_rho nonzero.  Moving d by one step either way along rho
        changes a row's slack by at most half of it, so both points lie
        strictly inside when d does.  The minimum is taken by
        cross-multiplying, and (a, b) is returned with b > 0 as found,
        not in lowest terms.
        """
        a, b = 1, 1
        for row, value in zip(self.inequalities, slacks[1]):
            den = 2 * abs(row[rho]) * q
            if den and value * b < a * den:
                a, b = value, den
        return a, b

    def class_cone_dim(self) -> int:
        """Dimension of the solution cone modulo linear equivalence."""
        rows = list(self.inequalities)
        for eq in self.equalities:
            rows.append(eq)
            rows.append(tuple(-v for v in eq))
        if not rows:
            return len(self.fan.rays) - self.fan.dim
        _, implicit = relative_interior_functional(rows)
        implicit_rows = [rows[i] for i in implicit]
        free = len(self.fan.rays) - (rank(implicit_rows) if implicit_rows else 0)
        return free - self.fan.dim


def _in_closed(slacks) -> bool:
    """Whether ``GKZCone.slacks`` put the divisor in the closed cone."""
    equal, slack = slacks
    return not any(equal) and all(v >= 0 for v in slack)


def _in_open(slacks) -> bool:
    """Whether ``GKZCone.slacks`` put the divisor strictly inside the cone."""
    equal, slack = slacks
    return not any(equal) and all(v > 0 for v in slack)


def _condition_system(fan: Fan, cones, strict):
    """(members, bases, owners, equalities, inequalities) of a chamber cone.

    For every independent ray basis B inside a cone and off the strict
    set, each ray rho gives the condition e_rho - sum_b c_b e_b with
    v_rho = sum_b c_b v_b: an equality when rho lies in the cone and
    off the strict set, an inequality otherwise.  B is independent
    exactly when the fan's table of basis inverses
    (``fan._Configuration.table``) holds it, and the condition times
    common is the integer vector common * e_rho - sum_b x_b e_b, x the
    coordinates of v_rho in B (``fan._Configuration.coordinates``),
    stored as its primitive part, an int tuple; no ``Fraction`` is
    built.  An equality is stored once, its first nonzero entry
    positive, and an inequality equal to either sign of it is dropped.
    The first basis of each cone is its recorded basis, and a ray's
    owner is the first cone holding it (None if none does), whose
    functional values it in a nef decomposition.  The entries are taken as ray indices of the fan, as
    ``gkz_cone`` checks them and the chamber searches make them.
    """
    n = fan.dim
    configuration = fan.configuration
    common, inverses, _ = configuration.table
    members = []
    bases = []
    equalities: set[tuple[int, ...]] = set()
    inequalities: set[tuple[int, ...]] = set()
    for cone in cones:
        inside = _cone_members(fan, cone)
        members.append(inside)
        independent = [b for b in combinations(sorted(inside - strict), n) if b in inverses]
        if not independent:
            raise ValueError("cone has no independent ray basis outside the strict set")
        bases.append(independent[0])
        for basis in independent:
            for rho, values in enumerate(configuration.coordinates(basis)):
                ints = [0] * len(fan.rays)
                ints[rho] = common
                for b, x in zip(basis, values):
                    ints[b] -= x
                if not any(ints):
                    continue
                g = math.gcd(*ints)
                equality = rho in inside and rho not in strict
                if equality and next(filter(None, ints)) < 0:
                    g = -g
                (equalities if equality else inequalities).add(tuple(v // g for v in ints))
    inequalities -= equalities | {tuple(-v for v in row) for row in equalities}
    owners = tuple(
        next((c for c, inside in enumerate(members) if rho in inside), None)
        for rho in range(len(fan.rays))
    )
    return (
        tuple(members),
        tuple(bases),
        owners,
        tuple(sorted(equalities)),
        tuple(sorted(inequalities)),
    )


def _gkz_system(fan: Fan, cones, strict):
    """``_condition_system``, once per fan."""
    return fan.memo(("gkz_system", cones, strict), lambda: _condition_system(fan, cones, strict))


def _cone_key(sigma_cones) -> tuple[frozenset[int], ...]:
    """The cones as frozensets in one canonical order, as the chamber memo keys them."""
    return tuple(sorted((frozenset(c) for c in sigma_cones), key=sorted))


def gkz_cone(fan: Fan, sigma_cones, strict_rays, lineality_basis=()) -> GKZCone:
    """Build the chamber cone for a cone list and strict-ray set.

    The condition system depends on the fan, the cones and the strict
    rays only, so it is computed once per fan; each call wraps it in a
    fresh ``GKZCone``.  Raises ValueError unless every entry of every
    cone and of the strict rays is a ray index of the fan, checked on
    the raw entries on every call, before any sort or set union could
    fail on an entry or merge True into 1, and unless every vector of
    ``lineality_basis`` has one entry per dimension, each read by
    ``divisor._coefficient``.
    """
    lineality = tuple(tuple(_coefficient(v) for v in b) for b in lineality_basis)
    if any(len(b) != fan.dim for b in lineality):
        raise ValueError(f"every lineality vector needs {fan.dim} entries, got {lineality}")
    sigma_cones = list(sigma_cones)
    strict = tuple(strict_rays)
    _check_rays(fan, [i for cone in (strict, *sigma_cones) for i in cone])
    cones = _cone_key(sigma_cones)
    strict = frozenset(strict)
    for cone in cones:
        if cone & strict:
            raise ValueError("cone generators must avoid the strict-ray set")
    return GKZCone(fan, *_cone_fields(fan, cones, strict, lineality))


def _cone_fields(fan: Fan, cones, strict: frozenset[int], lineality) -> tuple:
    """The ``GKZCone`` fields after ``fan`` of a checked cone key, strict set and lineality.

    The condition system comes from the per-fan ``_gkz_system``, so a
    caller that keeps these fields builds a fresh ``GKZCone`` from them
    with no check, sort or system lookup.
    """
    members, bases, _, equalities, inequalities = _gkz_system(fan, cones, strict)
    return cones, strict, lineality, equalities, inequalities, members, bases


def _check_fan(fan: Fan, cone: GKZCone) -> None:
    """Raise ValueError unless the chamber cone was built on this fan."""
    if cone.fan is not fan:
        raise ValueError("chamber cone belongs to a different fan")


def gkz_membership(fan: Fan, cone: GKZCone, d: Divisor) -> bool:
    """Whether the divisor class lies in the (closed) chamber cone."""
    _check_fan(fan, cone)
    return cone.contains(d)


def located_cone(fan: Fan, location: LocatedChamber) -> GKZCone:
    """The chamber cone of a located chamber, a fresh ``GKZCone`` from ``gkz_cone`` on every call.

    Its condition system is kept per fan (``_gkz_system``); the checks of
    ``gkz_cone`` run on every call.
    """
    sigma = location.sigma
    return gkz_cone(fan, sigma.max_cones, location.strict_rays, lineality_basis=sigma.lineality_basis)


# ---------------------------------------------------------------------------
# Enumeration of maximal chambers


def _interior_sample(fan: Fan, cones, strict) -> Divisor | None:
    """A divisor strictly inside the candidate's chamber, or None if it has no interior.

    A complete simplicial candidate is a chamber exactly when a strictly
    convex piecewise linear function lives on it (GKZ 1994, ch. 7), that
    is, when its own condition system has a point with every equality at
    0 and every inequality positive, at 1 or more after scaling.  One
    capped-gap LP over the system's integer rows, handed over as they
    are, the inequalities sharing one gap and each equality kept at 0
    from both sides, finds that point or proves it absent.
    The system is built afresh and kept in the per-fan memo of
    ``_gkz_system`` only when the candidate is a chamber, so a rejected
    candidate leaves nothing behind.
    """
    cones = _cone_key(cones)
    system = _condition_system(fan, cones, strict)
    *_, equalities, inequalities = system
    rows = [*inequalities, *equalities, *([-v for v in row] for row in equalities)]
    sample, t = gap_lp(rows, [0] * len(inequalities) + [None] * (2 * len(equalities)), len(fan.rays))
    if not all(t):
        return None
    fan.memo(("gkz_system", cones, strict), lambda: system)
    return sample


def _fans_on_rays(fan: Fan, subset) -> set[frozenset[frozenset[int]]]:
    """The complete simplicial fans on exactly the rays of ``subset``.

    A cone of a simplicial fan holds no ray of the fan but its own, so
    the candidate cones are the bases B of the subset whose inside mask
    (``fan._Configuration.inside``) meets the subset in B alone.  From
    each candidate on the subset's least ray the search fills the least
    open facet F = sigma - {x} with each candidate on F's other side, one
    whose ray off F has a negative coordinate on v_x in sigma (zero on F
    and positive at v_x).  In the plane that is the angular neighbour,
    one candidate per facet.  A facet of three cones ends a branch, and
    ``_glued_cover_once`` certifies each cone set with no open facet, on
    the fan's configuration.
    """
    n = fan.dim
    configuration = fan.configuration
    idx = sorted(subset)
    bits = sum(1 << i for i in idx)

    def facets_of(cone):
        return [cone[:j] + cone[j + 1 :] for j in range(n)]

    # Cones and facets are sorted index tuples, and the facet of a cone
    # that lacks its ray at position j is its facet j.  A basis's own rays
    # are in its mask, so it is a candidate when no other ray is.  A state
    # is (cones, open facets, closed facets), a closed facet being one of
    # two cones; the seeds hold the least ray.
    across: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}  # facet -> (cone, j)
    stack = []
    for basis in combinations(idx, n):
        if (configuration.inside(basis) & bits).bit_count() == n:
            facets = facets_of(basis)
            for j, facet in enumerate(facets):
                across.setdefault(facet, []).append((basis, j))
            if basis[0] == idx[0]:
                stack.append(((basis,), frozenset(facets), frozenset()))
    found: set[frozenset[frozenset[int]]] = set()
    seen: set[frozenset[tuple[int, ...]]] = set()
    while stack:
        chosen, opens, closed = stack.pop()
        state = frozenset(chosen)
        if state in seen:
            continue
        seen.add(state)
        if not opens:
            cones = frozenset(map(frozenset, chosen))
            if _glued_cover_once(configuration, cones):
                found.add(cones)
            continue
        facet = min(opens)
        owner, j = next((cone, j) for cone, j in across[facet] if cone in chosen)
        coordinates = configuration.coordinates(owner)
        for cone, i in across[facet]:
            if coordinates[cone[i]][j] < 0:
                facets = facets_of(cone)
                if closed.isdisjoint(facets):
                    glued = opens.intersection(facets)
                    stack.append((chosen + (cone,), opens.symmetric_difference(facets), closed | glued))
    return found


def _chambers(fan: Fan) -> list[list[frozenset[int]]]:
    """The sorted cone list of every complete simplicial fan on a subset of the rays.

    The ray subsets are visited by size, in ``combinations`` order, so in
    the plane, where a subset carries at most one fan, the list is in
    subset order; in space it is sorted by the cone lists.
    """
    k = len(fan.rays)
    found = []
    for size in range(fan.dim + 1, k + 1):
        for subset in combinations(range(k), size):
            found.extend(sorted(fs, key=sorted) for fs in _fans_on_rays(fan, subset))
    if fan.dim == 3:
        found.sort(key=lambda cones: [sorted(c) for c in cones])
    return found


def enumerate_maximal_chambers(fan: Fan, *, allow_dim3: bool = False) -> list[GKZCone]:
    """Every maximal chamber cone, as (fan, strict-ray) pairs with systems.

    Maximal chambers correspond to the complete simplicial projective
    fans whose rays come from the ambient ray list.  One exhaustive
    facet-filling search (``_chambers``) finds them on every ray subset
    in both dimensions; dimension 3 is behind the ``allow_dim3`` flag and
    capped at 8 rays.  A candidate is kept only when
    ``fan._glued_cover_once`` certifies it a complete fan, in integers
    and with no LP, and its own condition system has a point strictly
    inside (``_interior_sample``): one LP per certified candidate, which
    decides projectivity and gives the sample divisor, and no other LP,
    as the search and the systems read which rays lie in which cone off
    the fan's configuration.  The chamber list depends on the fan
    only: the search runs once per fan and keeps every chamber's
    ``GKZCone`` fields, and every call returns a new list of fresh
    ``GKZCone`` objects built from them with no check.
    """
    if not fan.complete:
        raise NotCompleteError("chamber enumeration needs a complete fan")
    if fan.dim == 3 and not allow_dim3:
        raise UnsupportedDimensionError(
            "dimension-3 enumeration is opt-in: pass allow_dim3=True"
        )
    if fan.dim not in (2, 3):
        raise UnsupportedDimensionError("chamber enumeration supports dimensions 2 and 3")
    if fan.dim == 3 and len(fan.rays) > 8:
        raise UnsupportedDimensionError("dimension-3 chamber search is capped at 8 rays")

    def compute():
        found = []
        for cones in _chambers(fan):
            strict = frozenset(range(len(fan.rays))).difference(*cones)
            sample = _interior_sample(fan, cones, strict)
            if sample is not None:
                found.append((*_cone_fields(fan, tuple(cones), strict, ()), sample))
        return tuple(found)

    return [GKZCone(fan, *fields) for fields in fan.memo("maximal_chambers", compute)]


# ---------------------------------------------------------------------------
# Pushforward, nef decomposition, chamber polynomial, ampleness


def sigma_to_fan(fan: Fan, sigma_cones) -> Fan:
    """A standalone Fan on the subset of ambient rays used by the cones.

    Raises ValueError on an entry that is no ray index of the fan,
    checked on the raw entries before they are sorted or merged.
    """
    ray_list = sorted(_check_rays(fan, [i for cone in sigma_cones for i in cone]))
    remap = {old: new for new, old in enumerate(ray_list)}
    return make_fan(
        fan.dim,
        [fan.rays[i] for i in ray_list],
        [{remap[i] for i in cone} for cone in sigma_cones],
    )


def pushforward(fan: Fan, sigma_fan: Fan, d: Divisor) -> Divisor:
    """Restrict the coefficient vector along a ray-subset birational map.

    Raises ValueError unless d has one coefficient per ray of ``fan``.
    """
    _check_length(fan, d)
    index = {ray: i for i, ray in enumerate(fan.rays)}
    out = []
    for ray in sigma_fan.rays:
        if ray not in index:
            raise ValueError(f"ray {ray} is not a ray of the ambient fan")
        out.append(d[index[ray]])
    return tuple(out)


@dataclass(frozen=True)
class NefDecomposition:
    """Shift, nef part, and effective remainder of a chamber member."""

    shifted: Divisor
    shift: tuple[Fraction, ...]
    nef_coeffs: dict[int, Fraction]  # ambient ray index -> coefficient
    remainder: Divisor


@dataclass(frozen=True, slots=True)
class _NefPlan:
    """The divisor-free half of a chamber's nef splits, kept once per fan and chamber.

    ``rows`` holds one sparse integer row per ray, pairs (b, m) with
    xi_rho = sum m * (q d)_b: the value on v_rho of the functional of the
    ray's owner cone, U = A_B . (-q d_B) over its recorded basis B, as
    ``divisor._basis_functional`` computes it.  ``support`` lists the
    rays of the cones and ``arrangement`` is the nef region's
    (``regions._Arrangement``), on the rays of ``support``: the fan's
    own when every ray generates one of the cones, else one built on
    the support rays with a memo of its own, so a second split on the
    chamber builds none.  Neither points back at the fan.
    """

    rows: tuple
    support: tuple[int, ...]
    arrangement: _Arrangement


def _nef_plan(fan: Fan, cones, strict) -> _NefPlan | None:
    """The ``_NefPlan`` of a chamber, or None when a ray lies in none of its cones; once per fan.

    Kept beside ``_gkz_system`` under the same cones and strict rays.
    """

    def compute():
        _, bases, owners, *_ = _gkz_system(fan, cones, strict)
        if None in owners:
            return None
        rows = []
        for rho, owner in enumerate(owners):
            basis = bases[owner]
            values = fan.configuration.coordinates(basis)[rho]
            rows.append(tuple((b, -x) for b, x in zip(basis, values) if x))
        support = tuple(sorted(frozenset().union(*cones)))
        if len(support) == len(fan.rays):
            arrangement = _arrangement(fan.rays, fan.dim, fan.memo)
        else:
            arrangement = _arrangement(tuple(fan.rays[rho] for rho in support), fan.dim, _own_memo())
        return _NefPlan(tuple(rows), support, arrangement)

    return fan.memo(("nef_plan", cones, strict), compute)


def nef_decomposition(fan: Fan, cone: GKZCone, d: Divisor) -> NefDecomposition:
    """Split a chamber member into a nef part plus a remainder on strict rays.

    With d cleared once to coefficients / q (on a complete fan the key
    of its held slot, ``regions._held_slot``), the functional of each
    cone is U / (common q), agreeing with -d on the cone's recorded basis B:
    U = A_B . (-q d_B) for B's integer inverse A_B / common in the fan's
    table.  Each ray's value on its owner cone, xi = <U, v> / (common q),
    is one sparse integer row of the chamber's ``_NefPlan`` dotted with
    q d.  With the shift T / t (zero unless the chamber has a
    lineality space, which solves for it from the first cone's
    functional, ``divisor._basis_functional``) and its values
    <T, v> / t, every part is an integer vector over the one scale
    M = common * q * t: remainder = xi + d, shifted = d + <shift, v> and
    nef = <shift, v> - xi.  A ``Fraction`` is built only for these
    answers.

    All four postconditions are recomputed and enforced: the remainder
    is nonnegative and supported on the strict rays, the shifted divisor
    has exactly the nef part's section polytope, and on each strict ray
    the remainder is what that polytope leaves there, shifted_rho +
    min_P <P, v_rho> over its vertices (in integers, for vertices P / s,
    s * remainder_rho = s * shifted_rho + M * min <P, v_rho>).  The polytopes
    are compared on their integer vertex tables, the shifted one read
    off its divisor slot on the fan's arrangement (the held slot of d
    when the shift is zero) and the nef one off the plan's arrangement:
    with points P / s and Q / r, the vertex sets agree exactly when
    {r P} = {s Q}.  When the plan's arrangement is the fan's and the nef
    vector equals the shifted one (a zero remainder on a chamber whose
    cones hold every ray), both tables are one table: it is read once
    and the comparison, which could not fail, is skipped.  Raises
    ValueError unless the cone was built on ``fan`` and its cones hold
    every ray.
    """
    _check_fan(fan, cone)
    coefficients, q = _held_slot(fan, d).key if fan.complete else to_integers(d)
    if not _in_closed(cone.slacks(coefficients)):
        raise ChamberMembershipError("divisor class is not in this chamber cone")
    plan = _nef_plan(fan, cone.sigma_cones, cone.strict_rays)
    if plan is None:
        raise ValueError("the chamber's cones must hold every ray")
    n = fan.dim
    common = fan.configuration.table[0]
    xi = [sum([m * coefficients[b] for b, m in row]) for row in plan.rows]
    if cone.lineality_basis:
        base = _basis_functional(fan, cone.bases[0], coefficients)
        rhs = [Fraction(sum(map(mul, base, b)), common * q) for b in cone.lineality_basis]
        shift = solve([list(b) for b in cone.lineality_basis], rhs)
        if shift is None:
            raise ToricError("internal: no shift matches the chamber's lineality space")
        moved, t = to_integers(shift)
        lifts = [common * q * sum(map(mul, moved, ray)) for ray in fan.rays]
    else:
        shift, t, lifts = (Fraction(0),) * n, 1, [0] * len(coefficients)
    scale = common * q * t
    remainder = [t * (x + common * c) for x, c in zip(xi, coefficients)]
    if any(e < 0 for e in remainder):
        raise ToricError("internal: remainder picked up a negative coefficient")
    if any(e > 0 and rho not in cone.strict_rays for rho, e in enumerate(remainder)):
        raise ToricError("internal: remainder escaped the strict-ray support")
    shifted = [common * t * c + lift for c, lift in zip(coefficients, lifts)]
    support = plan.support
    nef = [lifts[rho] - t * xi[rho] for rho in support]
    own = _arrangement(fan.rays, n, fan.memo)
    shifted_table, s = _closure_table(_divisor_slot(own, *_lowest_terms(shifted, scale)), (1 << len(shifted)) - 1)
    # An equal vector on the same arrangement reads the same table: nothing to compare.
    if plan.arrangement is not own or nef != shifted:
        nef_slot = _divisor_slot(plan.arrangement, *_lowest_terms(nef, scale))
        nef_table, r = _closure_table(nef_slot, (1 << len(nef)) - 1)
        shifted_points = {tuple(r * x for x in p) for p in shifted_table}
        if shifted_points != {tuple(s * x for x in p) for p in nef_table}:
            raise ToricError("internal: nef part's polytope differs from the shifted one")
    for rho in cone.strict_rays:
        # The remainder is what the section polytope leaves on the ray: shifted_rho + min_P <P, v_rho>.
        low = min(sum(map(mul, point, fan.rays[rho])) for point in shifted_table)
        if s * remainder[rho] != s * shifted[rho] + scale * low:
            raise ToricError("internal: remainder on a strict ray differs from the section polytope's")
    return NefDecomposition(
        tuple(Fraction(x, scale) for x in shifted),
        shift,
        {rho: Fraction(x, scale) for rho, x in zip(support, nef)},
        tuple(Fraction(x, scale) for x in remainder),
    )


def hhat0_on_chamber(fan: Fan, cone: GKZCone, d: Divisor) -> Fraction:
    """Section growth rate of a chamber member via pushforward.

    Nondegenerate chambers evaluate the top self-intersection of the
    pushforward on the chamber's own fan and cross-check against the
    direct volume computation; degenerate chambers are identically zero.
    The chamber's fan is built once per ambient fan and kept in its
    memo, so its own memo stays warm across calls.  The divisor is
    cleared once: membership is tested on the cleared pair, which then
    keys the held slot (``regions._held_slot``).  Raises ValueError
    unless the cone was built on ``fan``.
    """
    _check_fan(fan, cone)
    cleared = to_integers(d)
    if not _in_closed(cone.slacks(cleared[0])):
        raise ChamberMembershipError("divisor class is not in this chamber cone")
    direct = _lawrence_sum(fan, _held_slot(fan, d, cleared), _local_ranks, slice(1))[0]
    if cone.lineality_basis:
        if direct != 0:
            raise ToricError("internal: degenerate chamber with nonzero growth")
        return Fraction(0)
    sigma_fan = fan.memo(
        ("sigma_fan", cone.sigma_cones), lambda: sigma_to_fan(fan, cone.sigma_cones)
    )
    value = self_intersection(sigma_fan, pushforward(fan, sigma_fan, d))
    if value != direct:
        raise ToricError("internal: pushforward power disagrees with volume sum")
    return value


def ample_via_asymptotics(fan: Fan, d: Divisor) -> bool:
    """Ampleness through neighborhood vanishing of higher growth rates.

    True exactly when the located chamber is the ambient fan's own open
    chamber.  On a positive answer the vanishing of ĥ^1..ĥ^n near the
    class is additionally verified.  The class is cleared to integers
    once, for its held slot, and its chamber is read off its type cell.
    When no circuit sign of the cell is zero, the cell is open, so it
    holds a neighborhood of the class, and on it each ĥ^i is the cell's
    polynomial sum_B c_{B,i} N_B <g_B, L_B>^n (``regions._lawrence_columns``):
    empty columns of degrees 1..n prove the vanishing there, with no
    probe.  A class on a cell wall, or a cell with a higher column, is
    probed at the class itself and at 2k perturbed classes inside the
    chamber, one step each way along every ray, the step of
    ``GKZCone.step`` for that ray, so both probes lie strictly inside:
    every step is read off the class's one set of slacks, and each probe
    is built and tested as integers over q b, and its ĥ^1..ĥ^n read off
    the volume table of its type cell (``_cleared_rates``), keyed
    without replacing the class's held slot.  Only the table columns of
    degrees 1..n are read.  A complete simplicial fan makes every
    divisor Q-Cartier, so no Cartier test runs.
    """
    if not fan.complete:
        raise NotCompleteError("ampleness test needs a complete fan")
    if not fan.simplicial:
        raise NotSimplicialError(
            "complete non-simplicial fans can carry no nontrivial line bundles at "
            "all, where neighborhood vanishing holds with nothing ample; this "
            "test refuses them"
        )
    slot = _held_slot(fan, d)
    try:
        location = _slot_chamber(fan, slot)
    except EffectiveConeError:
        return False
    if not location.interior:
        return False
    if set(location.sigma.max_cones) != set(fan.max_cones) or location.strict_rays:
        return False
    if 0 not in slot.cell.key and not any(_lawrence_columns(fan, slot, _local_ranks)[1:]):
        # An open cell: its polynomials, with no higher term, hold on a neighborhood.
        return True

    coefficients, q = slot.key
    chamber = located_cone(fan, location)
    slacks = chamber.slacks(coefficients)
    higher = slice(1, None)
    if any(_cleared_rates(fan, coefficients, q, higher)):
        raise ToricError("internal: ample class with nonzero higher growth")
    for rho in range(len(fan.rays)):
        a, b = chamber.step(slacks, q, rho)
        for sign in (1, -1):
            # d + sign (a / b) e_rho, as integers over q b in lowest terms.
            probe = [b * c for c in coefficients]
            probe[rho] += sign * a * q
            probe, scale = _lowest_terms(probe, q * b)
            if not _in_open(chamber.slacks(probe)):
                raise ToricError("internal: perturbation left the open chamber")
            if any(_cleared_rates(fan, probe, scale, higher)):
                raise ToricError("internal: higher growth appeared inside the chamber")
    return True

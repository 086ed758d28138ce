"""Referees for the type-cell tables of ``toricvol.regions``.

``arrangement_vertices`` is the one-pass vertex classification that
region sums ran on every divisor before the tables were kept per type
cell: every basis's vertex is solved and dotted with every row outside
the basis.  It shares only the per-fan basis inverses with the
production path, never a circuit, a sign or a cell.

``lowered_levels`` lowers a divisor's levels by eps^(i + 1) on row i
at a concrete eps small enough that every vertex of the lowered levels
lies against every row as it does for eps -> 0+; the vertex pass at
those levels referees the simple cell that counts and volumes read.  It
derives its own bound on eps and never reads a circuit, a cell key or
a volume table.

Two volume referees read a region's integer vertex table and never a
volume table, a raised level or a Lawrence weight:

* ``pulling_volume`` is the volume that ``normalized_volume`` took of
  every region before volumes became Lawrence vertex sums: the pulling
  triangulation in the vertex table's basis order, each face's first
  vertex its apex, its facets read off the tight masks, with integer
  affine ranks and determinants (``toricvol.linalg``);
* ``sorted_apex_volume`` is the volume it took before that: the pulling
  triangulation from the region's vertices sorted by their coordinates,
  each face's least vertex its apex, with the affine ranks and
  determinants taken over ``Fraction`` (``fraction_linalg``).

``weighted_volumes`` sums either over the bounded regions a divisor
realizes, found by this module's own vertex pass, as ``hhat`` and
``self_intersection`` sum over every bounded region.

``own_plan_count`` is the count a standalone region took before it read
its divisor's realized table: the count core on a plan of the rows
tight at the vertices of the region's own vertex table, in a box of
those vertices.  Given a scanned vertex table, it counts with no type
cell, realized table or kept plan.
"""

from fractions import Fraction
from functools import reduce
from operator import mul, or_

import fraction_linalg
from toricvol import regions
from toricvol.fan import _configuration
from toricvol.linalg import integer_eliminate, rank, to_integers
from toricvol.regions import is_bounded_subset, region


def arrangement_vertices(normals, dim, memo, levels, q):
    """Every distinct arrangement vertex at the integer levels L / q, classified.

    Returns ({P: (above, tight)}, scale): each vertex is P / scale, with
    scale = common * q, and P = A . L for one basis inverse A, in the
    order of the bases.  ``above`` and ``tight`` are bitmasks of the rows
    with <v, P> > common * L_i and with equality; the basis rows are tight
    by construction.  A point found from several bases is classified once.
    """
    common, inverses, _ = _configuration(normals, dim, memo).table
    scaled = [common * level for level in levels]
    found = {}
    for combo, adjugate in inverses.items():
        rhs = [levels[i] for i in combo]
        point = tuple(sum(map(mul, row, rhs)) for row in adjugate)
        if point in found:
            continue
        above, tight = 0, sum(1 << i for i in combo)
        for i, normal in enumerate(normals):
            if i in combo:
                continue
            value = sum(map(mul, normal, point))
            if value > scaled[i]:
                above |= 1 << i
            elif value == scaled[i]:
                tight |= 1 << i
        found[point] = (above, tight)
    return found, common * q


def divisor_vertices(fan, d):
    """``arrangement_vertices`` of the divisor's levels -d on the fan's rays."""
    levels, q = to_integers([-c for c in d])
    return arrangement_vertices(fan.rays, fan.dim, fan.memo, levels, q)


def lowered_levels(normals, dim, memo, levels, q):
    """The integer levels L / q with row i lowered by eps^(i + 1), at one concrete eps > 0.

    At the vertex P_B = A_B . L_B of a basis B, row i off B compares
    <v_i, P_B> with common * L_i.  Lowering L_j by eps^(j + 1) turns the
    difference into a polynomial in eps with integer coefficients:
    <v_i, A_B L_B> - common * L_i at eps^0, -(v_i . A_B)_j at
    eps^(B_j + 1) and common at eps^(i + 1).  With H the largest
    |coefficient| above eps^0 over every basis and row, each such
    polynomial has the sign of its lowest nonzero term for any
    0 < eps < 1 / (H + 1), so eps = 1 / (H + 2) places every vertex
    against every row as eps -> 0+ does.  Returns the lowered levels as
    integers over their own denominator, for ``arrangement_vertices``.
    """
    common, inverses, _ = _configuration(normals, dim, memo).table
    bound = common
    for combo, adjugate in inverses.items():
        for i, normal in enumerate(normals):
            if i not in combo:
                bound = max(bound, *(abs(sum(map(mul, normal, column))) for column in zip(*adjugate)))
    eps = Fraction(1, bound + 2)
    lowered, p = to_integers([level - eps ** (i + 1) for i, level in enumerate(levels)])
    return lowered, p * q


def lowered_divisor(fan, d):
    """The divisor whose levels are those of d lowered by ``lowered_levels``, as Fractions."""
    levels, q = to_integers([-c for c in d])
    lowered, p = lowered_levels(fan.rays, fan.dim, fan.memo, levels, q)
    return tuple(Fraction(-x, p) for x in lowered)


def filtered(found, weak):
    """{P: tight} of the vertices with above(P) <= W <= above(P) | tight(P), in order."""
    return {
        point: tight
        for point, (above, tight) in found.items()
        if not above & ~weak and not weak & ~(above | tight)
    }


def realized_tables(found, bounded):
    """{W: {P: tight}} for every bounded weak mask W some vertex's closure holds.

    The masks come in the order the vertices meet them, each vertex's
    candidates W = above | S for the submasks S of tight, largest first.
    """
    tables = {}
    for point, (above, tight) in found.items():
        sub = tight
        while True:
            mask = above | sub
            if mask not in tables and bounded(mask):
                tables[mask] = filtered(found, mask)
            if not sub:
                break
            sub = (sub - 1) & tight
    return tables


def _sorted_apex_simplices(face, tight, face_dim):
    """Pulling triangulation of a face given by its sorted vertex list, from its least vertex."""
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
        facet = [v for v in face if tight[v] & bit]
        key = frozenset(facet)
        if key in seen or fraction_linalg.affine_rank(facet) != face_dim - 1:
            continue
        seen.add(key)
        for simplex in _sorted_apex_simplices(facet, tight, face_dim - 1):
            yield [apex] + simplex


def sorted_apex_volume(reg):
    """n! times the volume of the region's closure, from its sorted integer vertices."""
    points, scale = reg.vertex_table
    n = reg.dim
    vertices = sorted(points)
    if fraction_linalg.affine_rank(vertices) < n:
        return Fraction(0)
    total = Fraction(0)
    for simplex in _sorted_apex_simplices(vertices, points, n):
        base = simplex[0]
        total += abs(fraction_linalg.det([[a - b for a, b in zip(v, base)] for v in simplex[1:]]))
    return total / scale**n


def affine_rank(points):
    """Dimension of the affine hull of a point set (-1 for none), by ``toricvol.linalg.rank``."""
    if not points:
        return -1
    return rank([[a - b for a, b in zip(p, points[0])] for p in points[1:]])


def _pulling_simplices(vertices, tight, face, face_dim):
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
        for simplex in _pulling_simplices(vertices, tight, facet, face_dim - 1):
            yield (apex, *simplex)


def pulling_volume(reg):
    """n! times the volume of the region's closure, pulled in the vertex table's order.

    Each simplex adds |det| of its integer edge vectors, the final
    denominator of their fraction-free elimination; a closure of lower
    dimension has volume zero.
    """
    points, scale = reg.vertex_table
    n = reg.dim
    vertices, tight = tuple(points), tuple(points.values())
    if affine_rank(vertices) < n:
        return Fraction(0)
    total = 0
    for simplex in _pulling_simplices(vertices, tight, tuple(range(len(vertices))), n):
        base = vertices[simplex[0]]
        edges = [[a - b for a, b in zip(vertices[v], base)] for v in simplex[1:]]
        total += integer_eliminate(edges, n)[1]
    return Fraction(total, scale**n)


def weighted_volumes(fan, d, weight, volume):
    """sum_W weight(W) * volume(region of W) over the bounded W that d realizes.

    The realized masks come from ``divisor_vertices`` and
    ``realized_tables``; every unrealized region is empty, with volume
    zero.  ``weight`` maps a ray subset to a tuple of integers.
    """
    k = len(fan.rays)
    found, _ = divisor_vertices(fan, d)

    def bounded(mask):
        return is_bounded_subset(fan, [i for i in range(k) if mask >> i & 1])

    total = None
    for mask in realized_tables(found, bounded):
        subset = frozenset(i for i in range(k) if mask >> i & 1)
        w = weight(subset)
        amount = volume(region(fan, d, subset)) if any(w) else 0
        terms = [x * amount for x in w]
        total = terms if total is None else [a + b for a, b in zip(total, terms)]
    return tuple(total or ())


def own_plan_count(reg):
    """The region's lattice count on the rows tight at its closure's vertices, in their box.

    The closure's vertices come from ``reg.vertex_table`` with their
    tight masks.  On the closure a row tight at no vertex holds strictly,
    so the tight rows cut out the region; they are oriented and split by
    ``regions._count_plan`` and counted by the core ``regions._lattice_count``
    in the integer ranges of the vertices' first n - 1 coordinates, with
    the row bounds ceil(L_i / q) of the region's own levels.
    """
    points, scale = reg.vertex_table
    if not points:
        return 0
    arrangement = regions._arrangement(reg.normals, reg.dim, reg.memo)
    weak = sum(1 << i for i, is_weak in enumerate(reg.weak) if is_weak)
    plan = regions._count_plan(arrangement, reduce(or_, points.values()), weak, ())
    box = [
        range(-(-min(column) // scale), max(column) // scale + 1) for column in list(zip(*points))[: reg.dim - 1]
    ]
    levels, q = to_integers(reg.levels)
    return regions._lattice_count(plan, [-(-x // q) for x in levels], box)

"""Referees for the type-cell tables of ``toricvol.regions``.

``arrangement_vertices`` is the one-pass vertex classification that
region sums ran on every divisor before the tables were kept per type
cell: every basis's vertex is solved and dotted with every row outside
the basis.  It shares only the per-fan basis inverses with the
production path, never a circuit, a sign or a cell.

``sorted_apex_volume`` is the volume that ``normalized_volume`` took of
every region before the triangulations were kept per type cell: the
pulling triangulation from the region's vertices sorted by their
coordinates, each face's least vertex its apex, with the affine ranks
and determinants taken over ``Fraction`` (``fraction_linalg``).
"""

from fractions import Fraction
from operator import mul

import fraction_linalg
from toricvol.fan import _basis_inverses
from toricvol.linalg import to_integers


def arrangement_vertices(normals, dim, memo, levels, q):
    """Every distinct arrangement vertex at the integer levels L / q, classified.

    Returns ({P: (above, tight)}, scale): each vertex is P / scale, with
    scale = common * q, and P = A . L for one basis inverse A, in the
    order of the bases.  ``above`` and ``tight`` are bitmasks of the rows
    with <v, P> > common * L_i and with equality; the basis rows are tight
    by construction.  A point found from several bases is classified once.
    """
    common, inverses = _basis_inverses(normals, dim, memo)
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

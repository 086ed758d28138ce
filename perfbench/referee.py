"""Independent referees for benchmark results.

Nothing here imports toricvol: vertices come from Cramer's rule on
2x2 and 3x3 systems, lattice points from a weak-inequality test over
the bounding box, areas from the shoelace formula.  The production path
shares none of this code, so agreement is evidence, not tautology.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations, product


def _det(m):
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _cramer(rows, rhs):
    """Unique solution of the square system, or None when singular."""
    den = _det(rows)
    if den == 0:
        return None
    n = len(rows)
    out = []
    for j in range(n):
        m = [list(r) for r in rows]
        for i in range(n):
            m[i][j] = rhs[i]
        out.append(Fraction(_det(m), den))
    return tuple(out)


def section_vertices(rays, coeffs):
    """Vertices of {u : <u, v_rho> >= -d_rho for every ray rho}."""
    levels = [-Fraction(c) for c in coeffs]
    n = len(rays[0])
    found = set()
    for combo in combinations(range(len(rays)), n):
        point = _cramer([rays[i] for i in combo], [levels[i] for i in combo])
        if point is None:
            continue
        if all(sum(a * b for a, b in zip(ray, point)) >= lvl for ray, lvl in zip(rays, levels)):
            found.add(point)
    return sorted(found)


def h0_count(rays, coeffs):
    """Lattice points of the section polytope, by scanning its bounding box."""
    vertices = section_vertices(rays, coeffs)
    if not vertices:
        return 0
    n = len(rays[0])
    lows = [math.ceil(min(v[j] for v in vertices)) for j in range(n)]
    highs = [math.floor(max(v[j] for v in vertices)) for j in range(n)]
    denom = math.lcm(*(Fraction(c).denominator for c in coeffs))
    scaled = [int(-Fraction(c) * denom) for c in coeffs]
    tests = [(tuple(denom * x for x in ray), lvl) for ray, lvl in zip(rays, scaled)]
    count = 0
    for point in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        for normal, lvl in tests:
            if sum(a * b for a, b in zip(normal, point)) < lvl:
                break
        else:
            count += 1
    return count


def _ccw(vertices):
    """Vertices of a convex polygon in counter-clockwise order, exactly."""
    cx = sum(v[0] for v in vertices) / len(vertices)
    cy = sum(v[1] for v in vertices) / len(vertices)
    offsets = {v: (v[0] - cx, v[1] - cy) for v in vertices}

    def half(v):
        x, y = offsets[v]
        return 0 if y > 0 or (y == 0 and x > 0) else 1

    def compare(p, q):
        if half(p) != half(q):
            return half(p) - half(q)
        (px, py), (qx, qy) = offsets[p], offsets[q]
        cross = px * qy - py * qx
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return sorted(vertices, key=functools.cmp_to_key(compare))


def twice_area(rays, coeffs):
    """Twice the area of a 2-D section polygon, by the shoelace formula."""
    vertices = section_vertices(rays, coeffs)
    if len(vertices) < 3:
        return Fraction(0)
    ring = _ccw(vertices)
    total = Fraction(0)
    for (x0, y0), (x1, y1) in zip(ring, ring[1:] + ring[:1]):
        total += x0 * y1 - x1 * y0
    return abs(total)


def edge_lattice_length(rays, coeffs, ray_index):
    """Lattice length of the section polygon's edge on one ray's line.

    For a primitive normal v the edge direction (-v_y, v_x) is primitive
    too, so the lattice length is the Euclidean length over |v|.
    """
    vertices = section_vertices(rays, coeffs)
    a, b = rays[ray_index]
    level = -Fraction(coeffs[ray_index])
    tight = [p for p in vertices if a * p[0] + b * p[1] == level]
    if len(tight) < 2:
        return Fraction(0)
    (x0, y0), (x1, y1) = tight[0], tight[-1]
    return abs(x1 - x0) / abs(b) if b else abs(y1 - y0) / abs(a)


def strictly_inside(equalities, inequalities, coeffs):
    """Whether the coefficient vector satisfies a chamber system strictly."""

    def value(row):
        return sum(Fraction(r) * Fraction(c) for r, c in zip(row, coeffs))

    return all(value(row) == 0 for row in equalities) and all(value(row) > 0 for row in inequalities)

"""Named fan fixtures used across tests, demos, and documentation.

Each constructor returns one shared validated instance, so the per-fan
memo (cocircuit patterns, rank vectors, Cech ranks) is reused everywhere.
"""

from __future__ import annotations

import functools

from .fan import Fan, make_fan


@functools.cache
def p1() -> Fan:
    return make_fan(1, [(1,), (-1,)], [{0}, {1}])


@functools.cache
def p2() -> Fan:
    return make_fan(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {2, 0}])


@functools.cache
def p1xp1() -> Fan:
    rays = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    return make_fan(2, rays, [{0, 2}, {2, 1}, {1, 3}, {3, 0}])


@functools.cache
def f1() -> Fan:
    """The Hirzebruch surface F1, the blow-up of P2 at one fixed point."""
    rays = [(1, 0), (0, 1), (-1, -1), (1, 1)]
    return make_fan(2, rays, [{0, 3}, {3, 1}, {1, 2}, {2, 0}])


@functools.cache
def weighted_p112() -> Fan:
    """P(1,1,2); the cone on rays 2 and 0 has multiplicity 2."""
    return make_fan(2, [(1, 0), (0, 1), (-1, -2)], [{0, 1}, {1, 2}, {2, 0}])


@functools.cache
def bl2_p2() -> Fan:
    """P2 blown up at two torus-fixed points."""
    rays = [(1, 0), (0, 1), (-1, -1), (1, 1), (0, -1)]
    return make_fan(2, rays, [{0, 3}, {3, 1}, {1, 2}, {2, 4}, {4, 0}])


@functools.cache
def bl3_p2() -> Fan:
    """The del Pezzo surface of degree 6 (hexagonal fan)."""
    rays = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    cones = [{i, (i + 1) % 6} for i in range(6)]
    return make_fan(2, rays, cones)


@functools.cache
def p1_cubed() -> Fan:
    """P1 x P1 x P1: the complete simplicial octant fan."""
    rays = [
        (1, 0, 0), (-1, 0, 0),
        (0, 1, 0), (0, -1, 0),
        (0, 0, 1), (0, 0, -1),
    ]
    cones = [{a, b, c} for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    return make_fan(3, rays, cones)


@functools.cache
def bl1_p3() -> Fan:
    """Projective 3-space blown up at one fixed point; two chambers."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)]
    cones = [
        {0, 1, 4}, {0, 2, 4}, {1, 2, 4},  # subdivided positive octant
        {0, 1, 3}, {0, 2, 3}, {1, 2, 3},
    ]
    return make_fan(3, rays, cones)


@functools.cache
def cube_fan() -> Fan:
    """Complete but non-simplicial: the fan over the faces of a cube."""
    rays = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
    idx = {r: i for i, r in enumerate(rays)}

    def face(fixed_axis, sign):
        return {idx[r] for r in rays if r[fixed_axis] == sign}

    cones = [face(a, s) for a in range(3) for s in (1, -1)]
    return make_fan(3, rays, cones)


@functools.cache
def quadrant_fan() -> Fan:
    """A single 2-dimensional cone; the standard non-complete example."""
    return make_fan(2, [(1, 0), (0, 1)], [{0, 1}])


@functools.cache
def square_cone_fan() -> Fan:
    """One non-simplicial 3-cone over a square base."""
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
    return make_fan(3, rays, [{0, 1, 2, 3}])


ALL_COMPLETE_2D = {"p1xp1": p1xp1, "p2": p2, "f1": f1, "bl2_p2": bl2_p2, "bl3_p2": bl3_p2}

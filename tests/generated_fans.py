"""Seeded generators of complete simplicial fans, as raw (dim, rays, cones) data.

Raw data, not a Fan, so that a test can validate it, perturb it first or
hand it to a referee.

* ``star_fan_data(splits, seed, dim)``: the ``starS`` fans, P^3 split
  ``splits`` times at the primitive ray sum of a random maximal cone,
  and with ``dim=4`` the ``star4d_S`` fans, the same splits of P^4;
* ``polygon_fan_data(rng)``: the inner normal fan of a random lattice
  polygon.
"""

import math
import random
from itertools import combinations


def star_fan_data(splits, seed=1, dim=3):
    """P^dim with ``splits`` star splits, each of a cone picked by ``random.Random(seed)``.

    A split adds the primitive sum of the cone's ``dim`` rays and
    replaces the cone by the ``dim`` cones on that ray and dim - 1 of
    the old ones.
    """
    rays = [tuple(int(i == j) for j in range(dim)) for i in range(dim)] + [(-1,) * dim]
    cones = [frozenset(c) for c in combinations(range(dim + 1), dim)]
    rng = random.Random(seed)
    for _ in range(splits):
        cone = rng.choice(cones)
        total = [sum(rays[i][j] for i in cone) for j in range(dim)]
        g = math.gcd(*total)
        rays.append(tuple(x // g for x in total))
        cones.remove(cone)
        cones += [cone - {i} | {len(rays) - 1} for i in sorted(cone)]
    return dim, rays, cones


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def polygon_fan_data(rng, points=7, bound=4):
    """The inner normal fan of the hull of ``points`` random lattice points in [-bound, bound]^2.

    The hull comes from Andrew's monotone chain, counterclockwise and
    without collinear vertices; it is redrawn until it is a polygon.
    Cone i is the normal cone of vertex i, on the normals of its two
    edges.
    """
    while True:
        pts = {(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(points)}
        pts = sorted(pts)
        hull = []
        for chain in (pts, pts[::-1]):
            start = len(hull)
            for p in chain:
                while len(hull) >= start + 2 and _cross(hull[-2], hull[-1], p) <= 0:
                    hull.pop()
                hull.append(p)
            hull.pop()
        if len(hull) >= 3:
            break
    k = len(hull)
    rays = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        g = math.gcd(x1 - x0, y1 - y0)
        rays.append(((y0 - y1) // g, (x1 - x0) // g))
    return 2, rays, [{(i - 1) % k, i} for i in range(k)]

"""Per-subset constructions the library no longer runs: test-only referees.

The library triangulates each fan once and reads the sphere complex of
every ray subset off that one triangulation by filtering carriers
(``toricvol.homology``), and its Cech nerve intersects ray sets
(``toricvol.cohomology``).  This module keeps the older constructions
once, so that tests can check the production answers against them:

* ``per_subset_sphere_complex``: the subfan of W, its maximal cones by
  an all-pairs scan, a pulling triangulation of each from a chosen ray
  order, and the face closure of the result;
* ``intersection_ray_set``: the ray set of an intersection of fan cones
  as the largest cone of the fan whose rays lie in all of them.
"""

from toricvol import fixtures
from toricvol.fan import all_cones, subfan
from toricvol.homology import SphereComplex

# Every fixture fan, the incomplete and non-simplicial ones included.
EVERY_FIXTURE = (
    fixtures.p1, fixtures.p2, fixtures.p1xp1, fixtures.f1, fixtures.weighted_p112,
    fixtures.bl2_p2, fixtures.bl3_p2, fixtures.p1_cubed, fixtures.bl1_p3,
    fixtures.cube_fan, fixtures.quadrant_fan, fixtures.square_cone_fan,
)


def subfan_max_cones(fan, weak_rays):
    """Cones of the subfan on ``weak_rays`` not contained in a bigger one."""
    every = [c for bucket in subfan(fan, weak_rays).cones_by_dim for c in bucket]
    return [c for c in every if not any(c.ray_indices < e.ray_indices for e in every)]


def pulling_triangulation(fan, cone, pull_key):
    """Maximal simplices of the pulling triangulation from ``min(rays, key=pull_key)``."""
    rays = sorted(cone.ray_indices)
    if len(rays) == cone.dim:
        return {frozenset(rays)}
    apex = min(rays, key=pull_key)
    simplices = set()
    for facet in all_cones(fan)[cone.dim - 1]:
        if facet.ray_indices < cone.ray_indices and apex not in facet.ray_indices:
            for simplex in pulling_triangulation(fan, facet, pull_key):
                simplices.add(simplex | {apex})
    return simplices


def per_subset_sphere_complex(fan, weak_rays, pull_key=lambda i: i) -> SphereComplex:
    """The sphere complex of W, triangulated afresh from W's subfan."""
    simplices = {frozenset()}
    for cone in subfan_max_cones(fan, weak_rays):
        if cone.dim:
            simplices |= pulling_triangulation(fan, cone, pull_key)
    closed = set()
    stack = [sorted(s) for s in simplices]
    while stack:
        face = stack.pop()
        if frozenset(face) not in closed:
            closed.add(frozenset(face))
            stack.extend(face[:i] + face[i + 1 :] for i in range(len(face)))
    return SphereComplex(frozenset(closed), fan.dim)


def intersection_ray_set(fan, ray_sets) -> frozenset:
    """Ray set of the intersection of fan cones given by their ray sets.

    Valid fans intersect pairwise in common faces, so the intersection
    of any collection of cones is the unique largest cone of the fan
    whose rays lie in every one of them.
    """
    common = None
    for rs in ray_sets:
        common = frozenset(rs) if common is None else common & frozenset(rs)
    if common is None:
        raise ValueError("need at least one cone")
    best = frozenset()
    for bucket in all_cones(fan):
        for cone in bucket:
            if cone.ray_indices <= common and len(cone.ray_indices) > len(best):
                best = cone.ray_indices
    return best

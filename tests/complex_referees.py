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
  as the largest cone of the fan whose rays lie in all of them;
* ``uncleared_homology_ranks`` and ``uncleared_cech_ranks``: the chain
  complex ranks with each map ranked on its own, every row kept, where
  the library clears the rows that the map above proves dependent
  (``toricvol.linalg._chain_ranks``); the Cech complex is the cochain
  complex of the tuples of cones whose shared rays lie in W, its
  coboundary rows built here from an index of the tuples
  (``coboundary_row``), where the library ranks the complex of the
  tuples that share a ray off W on one cover table per fan.
"""

from itertools import combinations

from toricvol import fixtures
from toricvol.fan import all_cones, subfan
from toricvol.homology import SphereComplex, _boundary_row
from toricvol.linalg import _sparse_rank

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


def uncleared_homology_ranks(complex_) -> tuple:
    """``reduced_homology_ranks`` with every boundary map ranked in full."""
    n = complex_.ambient_dim
    by_size = [complex_.by_size(s) for s in range(n + 1)]
    dims = [len(b) for b in by_size]
    boundary_ranks = [0] * (n + 2)  # rank of d_s : C_s -> C_(s-1), sizes
    for s in range(1, n + 1):
        if dims[s] and dims[s - 1]:
            boundary_ranks[s] = _sparse_rank(map(_boundary_row, by_size[s]))
    return tuple(dims[s] - boundary_ranks[s] - boundary_ranks[s + 1] for s in range(n + 1))


def coboundary_row(small):
    """The Cech coboundary from the tuples ``small``, one sparse row per larger tuple.

    The function returned maps a tuple to its ``{column: entry}`` row,
    the face that drops position j entering with (-1)^j; ``combinations``
    lists the faces from the last position dropped to the first.  With
    repeated cones two deletions can give one face: their entries are
    summed and zeros dropped.
    """
    index = {t: k for k, t in enumerate(small)}

    def row_of(big):
        m = len(big) - 1
        sign = -1 if m & 1 else 1
        row = {}
        for face in combinations(big, m):
            col = index.get(face)
            if col is not None:
                row[col] = row.get(col, 0) + sign
                if not row[col]:
                    del row[col]
            sign = -sign
        return row

    return row_of


def uncleared_cech_ranks(fan, weak_rays, tuples=combinations) -> tuple:
    """``cech_ranks`` with every coboundary ranked in full, its tuples listed afresh.

    The Cech complex on the cover by maximal cones: its cochains of
    degree i live on the tuples ``tuples(cones, i + 1)`` of cone indices
    whose cones meet in a cone with every ray in W, the alternating
    complex by default.
    """
    n, weak = fan.dim, frozenset(weak_rays)
    cones = fan.max_cones
    layers = [
        [t for t in tuples(range(len(cones)), size) if frozenset.intersection(*(cones[j] for j in t)) <= weak]
        for size in range(1, n + 3)
    ]
    ranks_of_d = [0] * (n + 2)  # rank of delta^i : C^i -> C^(i+1); delta^(-1) = 0 at the end
    for i in range(n + 1):
        if layers[i] and layers[i + 1]:
            ranks_of_d[i] = _sparse_rank(map(coboundary_row(layers[i]), layers[i + 1]))
    return tuple(len(layers[i]) - ranks_of_d[i] - ranks_of_d[i - 1] for i in range(n + 1))

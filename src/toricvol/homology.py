"""Local cohomology ranks of fan supports, via sphere sections.

The rank vector attached to a ray subset W measures the topological
local cohomology of the ambient space with support on the cones whose
rays lie in W.  It is computed as reduced simplicial homology (over the
rationals) of the complex cut out on a small sphere around the origin:
a cone of dimension j meets the sphere in a cell of dimension j - 1.

Each fan is triangulated once and kept in the per-fan memo.
Non-simplicial cones are triangulated by pulling from their
lowest-index ray, which keeps shared faces consistent across the whole
fan and introduces no new rays, so every support and its homotopy type
are untouched.  Each simplex, faces included, is tagged with its
carrier, the rays of the least fan cone containing it; it lies in the
subfan on W exactly when its carrier lies in W, so the complex of each
W is a filter of the one triangulation.

The boundary maps are built as sparse integer rows and ranked by
``linalg._sparse_rank``, which keeps the {0, +-1} matrices sparse
instead of filling them in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .fan import Cone, Fan, _check_rays, all_cones
from .linalg import _sparse_rank


@dataclass(frozen=True)
class SphereComplex:
    """Abstract simplicial complex on ray indices, the empty face included."""

    simplices: frozenset[frozenset[int]]
    ambient_dim: int

    def by_size(self, size: int) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(s)) for s in self.simplices if len(s) == size)

    @property
    def is_empty(self) -> bool:
        return all(len(s) == 0 for s in self.simplices)


def _cone_facets(fan: Fan, cone: Cone) -> list[Cone]:
    out = []
    for candidate in all_cones(fan)[cone.dim - 1]:
        if candidate.ray_indices < cone.ray_indices:
            out.append(candidate)
    return out


def _triangulate_cone(fan: Fan, cone: Cone) -> set[frozenset[int]]:
    """Maximal simplices (as ray sets) of the pulling triangulation."""
    rays = sorted(cone.ray_indices)
    if len(rays) == cone.dim:
        return {frozenset(rays)}
    apex = rays[0]
    simplices: set[frozenset[int]] = set()
    for facet in _cone_facets(fan, cone):
        if apex in facet.ray_indices:
            continue
        for simplex in _triangulate_cone(fan, facet):
            simplices.add(simplex | {apex})
    return simplices


def _carriers(fan: Fan) -> tuple[tuple[frozenset[int], frozenset[int]], ...]:
    """Every simplex of the fan's triangulation with its carrier, once per fan.

    Cones are visited by increasing dimension.  A pulling triangulation
    restricts to the pulling triangulation of each face, so a simplex
    first appears among the faces of its least containing cone; the
    carrier is the first cone that produces it.
    """

    def compute():
        carrier: dict[frozenset[int], frozenset[int]] = {}
        for bucket in all_cones(fan):
            for cone in bucket:
                for top in _triangulate_cone(fan, cone):
                    for size in range(len(top) + 1):
                        for face in combinations(sorted(top), size):
                            carrier.setdefault(frozenset(face), cone.ray_indices)
        return tuple(carrier.items())

    return fan.memo("triangulation", compute)


def sphere_complex(fan: Fan, weak_rays) -> SphereComplex:
    """The simplicial complex of the subfan's section with a sphere.

    It keeps the simplices of the fan's triangulation whose carrier lies
    in ``weak_rays``.  Raises ValueError on an entry that is no ray
    index of the fan, checked on the raw entries on every call.
    """
    return _sphere_complex(fan, _check_rays(fan, weak_rays))


def _sphere_complex(fan: Fan, subset: frozenset[int]) -> SphereComplex:
    """``sphere_complex`` of a frozenset of ray indices; no check."""
    return SphereComplex(
        frozenset(simplex for simplex, carrier in _carriers(fan) if carrier <= subset),
        fan.dim,
    )


def _boundary_rows(smaller: list[tuple[int, ...]], larger: list[tuple[int, ...]]):
    """The boundary map from simplices of size s to size s-1 (s >= 1), as sparse rows.

    One ``{face index: +-1}`` row per simplex of ``larger``: the
    transpose of the boundary matrix, which has the same rank.
    """
    index = {simplex: i for i, simplex in enumerate(smaller)}
    return [
        {index[simplex[:i] + simplex[i + 1 :]]: -1 if i & 1 else 1 for i in range(len(simplex))}
        for simplex in larger
    ]


def reduced_homology_ranks(complex_: SphereComplex) -> tuple[int, ...]:
    """Reduced rational homology ranks, degrees -1 through n-1.

    Computed from exact ranks of the augmented chain complex; the empty
    complex reports rank 1 in degree -1 and nothing else.
    """
    n = complex_.ambient_dim
    by_size = [complex_.by_size(s) for s in range(n + 1)]
    dims = [len(b) for b in by_size]
    boundary_ranks = [0] * (n + 1)  # rank of d_s : C_s -> C_(s-1), sizes
    for s in range(1, n + 1):
        if dims[s] and dims[s - 1]:
            boundary_ranks[s] = _sparse_rank(_boundary_rows(by_size[s - 1], by_size[s]))
    ranks = []
    for s in range(n + 1):  # chain degree s-1
        incoming = boundary_ranks[s + 1] if s + 1 <= n else 0
        ranks.append(dims[s] - boundary_ranks[s] - incoming)
    return tuple(ranks)


def _local_ranks(fan: Fan, subset: frozenset[int]) -> tuple[int, ...]:
    """The rank vector of a frozenset of ray indices, memoized per fan; no check.

    The region sum weighs its subsets here: it builds them from ray
    bitmasks, so every entry is a ray index of the fan.
    """

    def compute():
        tilde = reduced_homology_ranks(_sphere_complex(fan, subset))
        n = fan.dim
        # tilde[s] is reduced degree s-1, so degree j sits at tilde[j+1].
        return tuple(tilde[n - i] for i in range(n + 1))

    return fan.memo(("profile", subset), compute)


def local_cohomology_ranks(fan: Fan, weak_rays) -> tuple[int, ...]:
    """The rank vector (r_0, ..., r_n) for one ray subset, memoized per fan.

    r_i equals the reduced homology rank of the sphere complex in
    degree n - i - 1.  Raises ValueError on an index that is no ray of
    the fan, checked on the raw entries on every call, before the memo
    lookup: a frozenset would merge True into 1.
    """
    return _local_ranks(fan, _check_rays(fan, weak_rays))

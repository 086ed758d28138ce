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

The boundary maps are built as sparse integer rows and ranked together
by ``linalg._chain_ranks``, which keeps the {0, +-1} matrices sparse
instead of filling them in and skips the rows that the map above has
already proved dependent.

A complete simplicial fan of dimension n <= 3 needs no matrix
(``_component_ranks``): its triangulation is the fan itself, the
boundary of a simplicial (n-1)-sphere with the rays as vertices, and the
complex of W is the subcomplex induced on W.  Its reduced homology is
read off connected components of the graph of the fan's 2-cones, in
degree 1 by Alexander duality (Hatcher, Algebraic Topology, Thm 3.44).
Every other fan, and every call of ``reduced_homology_ranks``, takes the
sphere complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .fan import Cone, Fan, _check_rays
from .linalg import _chain_ranks


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
    for candidate in fan.faces[cone.dim - 1]:
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
        for bucket in fan.faces:
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


def _boundary_row(simplex: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The boundary of a simplex as a sparse row ``{face: +-1}``, columns keyed by the faces.

    A row of the transpose of the boundary matrix, which has the same
    rank.  Simplices of one size compare as sorted tuples, so the
    largest face of a row is its largest column in the order of
    ``SphereComplex.by_size``.
    """
    return {simplex[:i] + simplex[i + 1 :]: -1 if i & 1 else 1 for i in range(len(simplex))}


def reduced_homology_ranks(complex_: SphereComplex) -> tuple[int, ...]:
    """Reduced rational homology ranks, degrees -1 through n-1.

    Computed from exact ranks of the augmented chain complex, its
    simplices of size s in chain degree s - 1 (``_chain_ranks``); the
    empty complex reports rank 1 in degree -1 and nothing else.
    """
    by_size = [complex_.by_size(s) for s in range(complex_.ambient_dim + 1)]
    return tuple(_chain_ranks(by_size, lambda _, simplex: _boundary_row(simplex)))


def _components(edges, subset) -> int:
    """The number of components of the graph on ``subset`` with the given edges, by union-find."""
    parent = {v: v for v in subset}

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    count = len(parent)
    for a, b in edges:
        if a in parent and b in parent:
            a, b = find(a), find(b)
            if a != b:
                parent[a] = b
                count -= 1
    return count


def _component_ranks(fan: Fan, subset: frozenset[int]) -> tuple[int, ...]:
    """The rank vector of a complete simplicial fan with n <= 3, by counting components; no check.

    The complex of W is the subcomplex induced on W of a simplicial
    (n-1)-sphere K on the rays V.  Its reduced homology is 1 in degree
    -1 for W empty, 1 in degree n - 1 for W = V, and otherwise c(W) - 1
    in degree 0 and, for n = 3, c(V - W) - 1 in degree 1, where c counts
    the components of the graph of the fan's 2-cones: the complement of
    an induced subcomplex of K retracts onto the subcomplex induced on
    the other rays, so Alexander duality gives H_1(K_W) = H^0(K_(V-W)).
    No Euler characteristic enters, so the check of
    ``cohomology._euler_weight`` stays independent.  r_i is the rank in
    degree n - 1 - i.
    """
    n, rays = fan.dim, range(len(fan.rays))
    ranks = [0] * (n + 1)
    if not subset:
        ranks[n] = 1
    elif len(subset) == len(rays):
        ranks[0] = 1
    else:
        edges = [tuple(cone.ray_indices) for cone in fan.faces[2]] if n > 1 else ()
        ranks[n - 1] = _components(edges, subset) - 1
        if n == 3:
            ranks[1] = _components(edges, [v for v in rays if v not in subset]) - 1
    return tuple(ranks)


def _local_ranks(fan: Fan, subset: frozenset[int]) -> tuple[int, ...]:
    """The rank vector of a frozenset of ray indices, memoized per fan; no check.

    A complete simplicial fan of dimension at most 3 counts components
    (``_component_ranks``); every other fan ranks the boundary maps of
    its sphere complex (``reduced_homology_ranks``).  The region sum
    weighs its subsets here: it builds them from ray bitmasks, so every
    entry is a ray index of the fan.
    """

    def compute():
        n = fan.dim
        if n <= 3 and fan.complete and fan.simplicial:
            return _component_ranks(fan, subset)
        tilde = reduced_homology_ranks(_sphere_complex(fan, subset))
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

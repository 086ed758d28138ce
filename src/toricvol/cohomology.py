"""Exact sheaf cohomology dimensions of torus-invariant divisors.

The production path groups lattice points by which weak/strict region
they fall in and multiplies counts with precomputed local cohomology
rank vectors.  An independent cross-check builds, per graded piece, the
alternating Cech complex on the cover by maximal cones and takes exact
ranks of its coboundaries, built as sparse integer rows for
``linalg._chain_ranks``; agreement of the two is sheaf theory made
executable.  Each fan keeps one cover table of the complex
(``_cover_table``): every tuple of cones with its shared rays and its
signed faces, so the complex of a weak set is read off it with no
tuple listed and no index built.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import combinations
from operator import and_

from .divisor import Divisor, _check_length
from .errors import NotCompleteError, ToricError
from .fan import Fan, _check_rays, _is_int, _subfan, chi_of_fan, is_complete
from .homology import _local_ranks, local_cohomology_ranks
from .linalg import _chain_ranks, _point_integers, dot, to_integers
from .regions import region_sum

CohomologyVector = tuple[int, ...]


def weak_ray_set(fan: Fan, d: Divisor, point) -> frozenset[int]:
    """The rays whose section inequality holds weakly at the given point.

    The divisor and the point are cleared to integers once each
    (``linalg.to_integers``: d = c / q and m = x / p with q, p > 0), so
    a float counts as its exact value and <m, v_i> >= -d_i is read as
    q <x, v_i> + p c_i >= 0.  Raises ValueError unless the divisor has
    one coefficient per ray and the point one coordinate per dimension,
    none of them a bool, and TypeError on a string coefficient or
    coordinate.
    """
    _check_length(fan, d)
    if len(point) != fan.dim:
        raise ValueError(f"point has {len(point)} coordinates, fan has dimension {fan.dim}")
    coeffs, q = to_integers(d)
    x, p = _point_integers(point)
    return frozenset(i for i, ray in enumerate(fan.rays) if q * dot(x, ray) + p * coeffs[i] >= 0)


def graded_piece_dim(fan: Fan, d: Divisor, point, i: int) -> int:
    """Dimension of the degree-``point`` piece of the i-th cohomology group.

    Works on any valid fan, complete or not.  The divisor is checked and
    cleared by ``weak_ray_set``; raises ValueError unless i is an int
    (not a bool) in 0..n and the point, a character, has int (not bool)
    coordinates.
    """
    if not _is_int(i) or not 0 <= i <= fan.dim:
        raise ValueError(f"cohomology degree must be an integer in 0..{fan.dim}, got {i!r}")
    if not all(map(_is_int, point)):
        raise ValueError(f"point {tuple(point)!r} has coordinates that are not integers")
    return local_cohomology_ranks(fan, weak_ray_set(fan, d, point))[i]


def h_all(fan: Fan, d: Divisor) -> CohomologyVector:
    """All cohomology dimensions (h^0, ..., h^n) of a complete fan's divisor."""
    if not is_complete(fan):
        raise NotCompleteError(
            "h_all needs a complete fan; use graded_piece_dim for single pieces"
        )
    return region_sum(fan, d, _local_ranks)


def _euler_weight(fan: Fan, subset: frozenset[int]) -> int:
    """(-1)^n chi(subfan_W), checked against the rank vector of W, memoized per fan.

    The identity (-1)^n chi(subfan_W) = sum_i (-1)^i r_i(W) makes the
    Euler sum over regions equal the alternating sum of h_all; the
    signed volume sum of ``self_intersection`` uses the same weight.
    chi counts cones, not simplices, so the check compares two
    independent computations.
    """

    def compute():
        value = (-1) ** fan.dim * chi_of_fan(_subfan(fan, subset))
        ranks = local_cohomology_ranks(fan, subset)
        if value != sum((-1) ** i * r for i, r in enumerate(ranks)):
            raise ToricError(
                f"internal: chi of subfan {sorted(subset)} disagrees with its ranks {ranks}"
            )
        return value

    return fan.memo(("euler", subset), compute)


def _euler_weights(fan: Fan, subset: frozenset[int]) -> tuple[int]:
    """``_euler_weight`` as a one-entry weight, of ``euler_char`` and of the Euler volume column."""
    return (_euler_weight(fan, subset),)


def euler_char(fan: Fan, d: Divisor) -> int:
    """Euler characteristic via alternating cone counts.

    Each realized region's weight is checked by ``_euler_weight`` once
    per fan, the first time it is used.
    """
    if not is_complete(fan):
        raise NotCompleteError("euler_char needs a complete fan")
    (total,) = region_sum(fan, d, _euler_weights)
    return total


def _cover_table(fan: Fan, tuples) -> tuple:
    """The Cech cover table of the tuples of maximal cones ``tuples(size)``, sizes 1..n+2.

    Layer size - 1 lists each tuple, in the order ``tuples`` gives, as
    (meet, faces): ``meet`` is the ray bitmask of the intersection of
    its cones, and ``faces`` the coboundary entries (position, sign) of
    the tuples one smaller, by their position in the layer below.  The
    face that drops position j enters with (-1)^j; with repeated cones
    two deletions can give one face, and their signs are summed and
    zeros dropped.  The meet is the rays the cones share: in a valid fan
    two cones meet in a common face tau, and a ray of both lies in tau
    and, being extreme in either cone, is a ray of its face tau.  tau is
    again a cone of the fan, so the argument runs along the whole tuple.
    """
    masks = [sum(1 << i for i in cone) for cone in fan.max_cones]
    layers, index = [], {}
    for size in range(1, fan.dim + 3):
        layer, positions = [], {}
        for t in tuples(size):
            faces: dict[int, int] = {}
            sign = -1 if (size - 1) & 1 else 1
            for face in combinations(t, size - 1) if size > 1 else ():
                at = index[face]
                faces[at] = faces.get(at, 0) + sign
                sign = -sign
            positions[t] = len(layer)
            meet = reduce(and_, (masks[j] for j in t))
            layer.append((meet, tuple((at, x) for at, x in faces.items() if x)))
        layers.append(tuple(layer))
        index = positions
    return tuple(layers)


def _cech_rank_vector(subset: frozenset[int], table) -> CohomologyVector:
    """Cohomology ranks of the Cech complex of a weak set on a cover table (``_cover_table``).

    A tuple contributes a line exactly when the rays of the intersection
    of its cones all lie in the weak set W: its meet has no ray off W.
    The kept tuples are closed under supersets, so they span a
    subcomplex of the cochain complex and the transposed coboundaries
    form a chain complex.  Each kept tuple's row holds its kept faces,
    keyed by their position in the table's layer, so a weak set builds
    no index; ``_chain_ranks`` ranks the maps from delta^n down,
    clearing as on a boundary.  Positions keep the order of the kept
    tuples, so the pivots and the clearing are those of the complex
    indexed by the kept tuples alone.
    """
    n = len(table) - 2
    off = ~sum(1 << i for i in subset)
    kept = [[at for at, (meet, _) in enumerate(layer) if not meet & off] for layer in table]

    def coboundary(i):
        below, layer = set(kept[i]), table[i + 1]
        return lambda at: {face: x for face, x in layer[at][1] if face in below}

    top_down = _chain_ranks((kept[i + 1], coboundary(i)) for i in range(n, -1, -1))
    ranks_of_d = [0, *reversed(top_down)]  # rank of delta^(i-1) : C^(i-1) -> C^i at i = 0..n+1
    return tuple(len(kept[i]) - ranks_of_d[i] - ranks_of_d[i + 1] for i in range(n + 1))


def _cech_ranks(fan: Fan, subset: frozenset[int]) -> CohomologyVector:
    """The Cech ranks of a frozenset of ray indices, memoized per fan; no check.

    Every weak set reads the fan's one cover table of the alternating
    complex, its tuples the ``combinations`` of the maximal cones.  The
    oracle's region sum weighs its subsets here: it builds them from
    ray bitmasks, so every entry is a ray index of the fan.
    """

    def compute():
        cover = partial(combinations, range(len(fan.max_cones)))
        return _cech_rank_vector(subset, fan.memo("cech_cover", lambda: _cover_table(fan, cover)))

    return fan.memo(("cech", subset), compute)


def cech_ranks(fan: Fan, weak_rays) -> CohomologyVector:
    """Cohomology ranks of the alternating Cech complex for one region type.

    The complex lives on the ordered cover by maximal cones.  Memoized
    per fan and subset; raises ValueError on an index that is no ray of
    the fan, checked on the raw entries on every call, before the memo
    lookup: a frozenset would merge True into 1.
    """
    return _cech_ranks(fan, _check_rays(fan, weak_rays))


def cech_oracle(fan: Fan, d: Divisor) -> CohomologyVector:
    """Cohomology dimensions recomputed through Cech complexes.

    Graded pieces with identical weak sets share one complex, so the sum
    over lattice points collapses to counts times Cech ranks.  Every
    realized region is weighed by its own Cech ranks, so no answer here
    reads the sphere-complex rank vectors of ``h_all``; the two share
    only the region sum that picks the realized regions.
    """
    if not is_complete(fan):
        raise NotCompleteError("cech_oracle needs a complete fan")
    return region_sum(fan, d, _cech_ranks)

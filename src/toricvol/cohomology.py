"""Exact sheaf cohomology dimensions of torus-invariant divisors.

The production path groups lattice points by which weak/strict region
they fall in and multiplies counts with precomputed local cohomology
rank vectors.  An independent cross-check takes, per graded piece, the
exact cohomology of the alternating Cech complex on the cover by
maximal cones; agreement of the two is sheaf theory made executable.
The Cech complex of a weak set W is the relative cochain complex of the
full simplex on the maximal cones modulo the complex L_W of tuples of
cones that share a ray off W, so its cohomology is the reduced homology
of L_W one degree down.  Each fan keeps one cover table
(``_cover_table``): every tuple of cones that share a ray, of size at
most n + 1, with its shared rays and its signed faces, capped at
``COVER_BUDGET`` tuples.  L_W is read off it with no tuple listed and no
index built, and ranked by ``linalg._chain_ranks``, the sparse clearing
loop of the sphere complexes too.
"""

from __future__ import annotations

from math import comb

from .divisor import Divisor, _check_length
from .errors import CapExceededError, NotCompleteError, ToricError
from .fan import Fan, _check_rays, _is_int, _subfan, chi_of_fan
from .homology import _local_ranks, local_cohomology_ranks
from .linalg import _chain_ranks, _point_integers, dot, to_integers
from .regions import region_sum

CohomologyVector = tuple[int, ...]

# The Cech cover table may hold at most COVER_BUDGET tuples, by the
# bound of ``_cover_table``; past it, CapExceededError.
COVER_BUDGET = 10**5


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
    if not fan.complete:
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
    if not fan.complete:
        raise NotCompleteError("euler_char needs a complete fan")
    (total,) = region_sum(fan, d, _euler_weights)
    return total


def _cover_table(fan: Fan) -> tuple:
    """The Cech cover table: the tuples of maximal cones that share a ray, sizes 0..n+1.

    Layer s lists each tuple of s cones, in lexicographic order, as
    (meet, faces): ``meet`` is the ray bitmask of the intersection of
    its cones (-1, every bit, for the empty tuple of layer 0), and
    ``faces`` the boundary entries (position, sign) of the tuples one
    smaller, by their position in the layer below, the face that drops
    position j entering with (-1)^j.  Each layer grows the one below by
    a later cone that still shares a ray, and every face of a listed
    tuple shares that ray, so it is listed too.  The meet is the rays
    the cones share: in a valid fan two cones meet in a common face tau,
    and a ray of both lies in tau and, being extreme in either cone, is
    a ray of its face tau.  tau is again a cone of the fan, so the
    argument runs along the whole tuple.  Raises CapExceededError before
    any tuple is built when sum_rho sum_(1 <= s <= n+1) C(|star rho|, s),
    a bound on the nonempty tuples, |star rho| the cones holding the ray
    rho, passes ``COVER_BUDGET``.
    """
    masks = [sum(1 << i for i in cone) for cone in fan.max_cones]
    stars = [sum(mask >> i & 1 for mask in masks) for i in range(len(fan.rays))]
    bound = sum(comb(k, s) for k in stars for s in range(1, fan.dim + 2))
    if bound > COVER_BUDGET:
        raise CapExceededError(
            f"the Cech cover table may hold {bound} tuples of cones that share a ray; it is capped at {COVER_BUDGET}"
        )
    layers, index = [((-1, ()),)], {(): 0}
    for size in range(1, fan.dim + 2):
        layer, positions = [], {}
        for t, at in index.items():
            meet = layers[-1][at][0]
            for j in range(t[-1] + 1 if t else 0, len(masks)):
                if shared := meet & masks[j]:
                    big = (*t, j)
                    positions[big] = len(layer)
                    faces = tuple((index[big[:i] + big[i + 1 :]], -1 if i & 1 else 1) for i in range(size))
                    layer.append((shared, faces))
        layers.append(tuple(layer))
        index = positions
    return tuple(layers)


def _cech_rank_vector(subset: frozenset[int], table) -> CohomologyVector:
    """Cohomology ranks of the Cech complex of a weak set on a cover table (``_cover_table``).

    A tuple of cones contributes a line to the Cech complex of W exactly
    when the rays its cones share all lie in W.  Those tuples are the
    simplices of the full simplex Delta on the maximal cones (they all
    meet at the origin) off the subcomplex L_W of the tuples that share
    a ray off W, so the complex is the relative cochain complex of
    (Delta, L_W), and the long exact sequence of the pair gives
    H^p = H~_(p-1)(L_W), with H~_(-1) = Q when L_W holds the empty tuple
    alone.  L_W keeps every tuple whose meet has a bit off W, the empty
    one always, and every face of a kept tuple; ``_chain_ranks`` ranks
    its boundaries on the table's rows, keyed by layer position, with
    tuples of size p in degree p - 1.
    """
    off = ~sum(1 << i for i in subset)
    kept = [[at for at, (meet, _) in enumerate(layer) if meet & off] for layer in table]
    return tuple(_chain_ranks(kept, lambda s, at: dict(table[s][at][1]))[:-1])


def _cech_ranks(fan: Fan, subset: frozenset[int]) -> CohomologyVector:
    """The Cech ranks of a frozenset of ray indices, memoized per fan; no check.

    Every weak set reads the fan's one cover table.  The oracle's region
    sum weighs its subsets here: it builds them from ray bitmasks, so
    every entry is a ray index of the fan.
    """
    return fan.memo(
        ("cech", subset),
        lambda: _cech_rank_vector(subset, fan.memo("cech_cover", lambda: _cover_table(fan))),
    )


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
    if not fan.complete:
        raise NotCompleteError("cech_oracle needs a complete fan")
    return region_sum(fan, d, _cech_ranks)

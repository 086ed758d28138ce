"""Exact sheaf cohomology dimensions of torus-invariant divisors.

The production path groups lattice points by which weak/strict region
they fall in and multiplies counts with precomputed local cohomology
rank vectors.  An independent cross-check builds, per graded piece, the
alternating Cech complex on the cover by maximal cones and takes exact
ranks of its coboundaries, built as sparse integer rows for
``linalg._chain_ranks``; agreement of the two is sheaf theory made
executable.
"""

from __future__ import annotations

from itertools import combinations

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


def _cech_rank_vector(fan: Fan, subset: frozenset[int], tuples) -> CohomologyVector:
    """Cohomology ranks of the Cech complex spanned by ``tuples(size)``.

    A tuple contributes a line exactly when the rays of the intersection
    of its cones all lie in the weak set.  Those are the rays the cones
    share: in a valid fan two cones meet in a common face tau, and a ray
    of both lies in tau and, being extreme in either cone, is a ray of
    its face tau.  tau is again a cone of the fan, so the argument runs
    along the whole tuple.  Each tuple's shared rays are kept per fan,
    so a new weak set only compares them.

    The kept tuples are closed under supersets, so they span a
    subcomplex of the cochain complex and the transposed coboundaries
    form a chain complex; ``_chain_ranks`` ranks them from delta^n
    down, clearing as on a boundary.
    """
    n = fan.dim
    cones = fan.max_cones
    meets = fan.memo("cech_meets", dict)
    layers: list[list[tuple[int, ...]]] = []
    for size in range(1, n + 3):
        layer = []
        for t in tuples(size):
            meet = meets.get(t)
            if meet is None:
                meet = meets[t] = frozenset.intersection(*(cones[j] for j in t))
            if meet <= subset:
                layer.append(t)
        layers.append(layer)
    top_down = _chain_ranks((layers[i + 1], _coboundary_row(layers[i])) for i in range(n, -1, -1))
    ranks_of_d = [0, *reversed(top_down)]  # rank of delta^(i-1) : C^(i-1) -> C^i at i = 0..n+1
    return tuple(len(layers[i]) - ranks_of_d[i] - ranks_of_d[i + 1] for i in range(n + 1))


def _coboundary_row(small: list[tuple[int, ...]]):
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
        row: dict[int, int] = {}
        for face in combinations(big, m):
            col = index.get(face)
            if col is not None:
                if col in row:
                    row[col] += sign
                    if not row[col]:
                        del row[col]
                else:
                    row[col] = sign
            sign = -sign
        return row

    return row_of


def _cech_ranks(fan: Fan, subset: frozenset[int]) -> CohomologyVector:
    """The Cech ranks of a frozenset of ray indices, memoized per fan; no check.

    The oracle's region sum weighs its subsets here: it builds them from
    ray bitmasks, so every entry is a ray index of the fan.
    """
    ncones = len(fan.max_cones)
    return fan.memo(
        ("cech", subset),
        lambda: _cech_rank_vector(fan, subset, lambda size: combinations(range(ncones), size)),
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
    if not is_complete(fan):
        raise NotCompleteError("cech_oracle needs a complete fan")
    return region_sum(fan, d, _cech_ranks)

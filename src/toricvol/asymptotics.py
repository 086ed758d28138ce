"""Asymptotic growth of cohomology under divisor dilation.

The i-th asymptotic function of a divisor is the limit of
h^i(m d) / (m^n / n!).  On a complete fan it is computed exactly as a
weighted sum of normalized region volumes, never through the limit; the
limit shows up only in diagnostic probes.  The same machinery yields
the top self-intersection number as a signed volume sum and exact mixed
partial derivatives of the degree-n chamber polynomial of the section
growth function.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .cohomology import _euler_weight
from .divisor import Divisor, _check_length, is_q_cartier
from .errors import (
    ChamberWallError,
    NotCompleteError,
    NotQCartierError,
    PreconditionError,
)
from .fan import Fan, _is_int, is_complete, is_simplicial
from .homology import _local_ranks
from .linalg import _lowest_terms, to_integers
from .regions import _cleared_sum, normalized_volume, region_sum

AsymptoticVector = tuple[Fraction, ...]


def _rates(fan: Fan, d: Divisor, degrees: slice) -> AsymptoticVector:
    """The asymptotic rates of the degrees in the slice, in order.

    Checks the fan and the length and clears d once; ``_cleared_rates``
    sums the regions.
    """
    if not is_complete(fan):
        raise NotCompleteError("asymptotic functions need a complete fan")
    _check_length(fan, d)
    return _cleared_rates(fan, *to_integers(d), degrees)


def _cleared_rates(fan: Fan, coefficients, q: int, degrees: slice) -> AsymptoticVector:
    """``_rates`` of the divisor cleared to integers (``regions._cleared_sum``).

    Each region is weighted by the slice of its rank vector, so a region
    whose ranks vanish on those degrees is never measured: the section
    polytope (all rays weak) carries degree 0 alone, so leaving degree 0
    out skips the largest region.
    """
    values = _cleared_sum(
        fan, coefficients, q, lambda subset: _local_ranks(fan, subset)[degrees], normalized_volume
    )
    return tuple(Fraction(v) for v in values)


def hhat(fan: Fan, d: Divisor) -> AsymptoticVector:
    """The exact vector of asymptotic cohomology rates (index 0..n)."""
    return _rates(fan, d, slice(None))


def self_intersection(fan: Fan, d: Divisor) -> Fraction:
    """Top self-intersection number of a Q-Cartier divisor.

    The signed volume formula holds for rational divisors as they are:
    the regions of k*d are k times those of d, and both sides of the
    formula are homogeneous of degree n.  On a simplicial fan every
    divisor is Q-Cartier, so only a non-simplicial fan builds the
    Cartier data to test it.
    """
    if not is_complete(fan):
        raise NotCompleteError("self-intersection needs a complete fan")
    if not is_simplicial(fan) and is_q_cartier(fan, d) is None:
        raise NotQCartierError("divisor is not Q-Cartier")
    (total,) = region_sum(fan, d, lambda W: (_euler_weight(fan, W),), normalized_volume)
    return Fraction(total)


def asymptotic_rr_check(fan: Fan, d: Divisor) -> tuple[Fraction, Fraction]:
    """(self-intersection, alternating sum of asymptotic ranks); equal in theory."""
    lhs = self_intersection(fan, d)
    rhs = sum((-1) ** i * value for i, value in enumerate(hhat(fan, d)))
    return lhs, Fraction(rhs)


def _derivative_weights(n: int, step: Fraction) -> list[Fraction]:
    """Weights w_k with sum w_k f(k * step) = f'(0), k = 0..n, for degree <= n.

    The derivative at 0 of the Lagrange interpolant on the nodes k * step:
    w_0 = -H_n / step and w_k = (-1)^(k+1) C(n, k) / (k * step).
    """
    weights = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        weights[k] = Fraction((-1) ** (k + 1) * math.comb(n, k), k) / step
        weights[0] -= Fraction(1, k) / step
    return weights


def mixed_partial_h0(fan: Fan, d: Divisor, ray_indices) -> Fraction:
    """Exact mixed partial of the section growth rate along prime divisors.

    The growth rate restricted to an open chamber is a polynomial of
    degree at most n in the coefficients, so the derivative is read off
    from exact finite differences on the grid of 0..n steps along each
    ray, with the step a / b of ``GKZCone.step`` for these rays at reach
    n, which keeps every grid point strictly inside the chamber.  The
    divisor is cleared to integers once, q * d, when its chamber is
    located; the step is read off the chamber's slacks of q * d, and
    each grid point d + sum k_j (a / b) e_rho_j is built as the integer
    vector b (q * d) + sum k_j a q e_rho_j over q b, in lowest terms, so
    a float divisor counts as its exact value.  Each grid point measures
    ĥ^0 alone, the volume of its section polytope (``_cleared_rates``).
    Raises PreconditionError unless the ray indices are 1 to n distinct
    ints in 0..k-1 (True and 1.0 are no ray index).
    """
    from .gkz import _section_slot, _slot_chamber, located_cone

    rays = list(ray_indices)
    k = len(fan.rays)
    if not all(_is_int(i) and 0 <= i < k for i in rays):
        raise PreconditionError(f"ray indices must be ints in 0..{k - 1}, got {rays}")
    if len(set(rays)) != len(rays):
        raise PreconditionError("ray list must consist of distinct rays")
    n = fan.dim
    if not 1 <= len(rays) <= n:
        raise PreconditionError("need between 1 and n distinct rays")
    slot = _section_slot(fan, d)
    location = _slot_chamber(fan, slot)
    if not location.interior:
        raise ChamberWallError("divisor class sits on a chamber wall")
    chamber = located_cone(fan, location)
    coefficients, q = slot.key
    a, b = chamber.step(chamber.slacks(coefficients), q, rays, n)
    if a <= 0:
        raise PreconditionError("step bound underflow: no room inside the chamber")

    weights = _derivative_weights(n, Fraction(a, b))
    base = [b * c for c in coefficients]
    total = Fraction(0)
    for assignment in product(range(n + 1), repeat=len(rays)):
        point = list(base)
        coeff = Fraction(1)
        for ray, j in zip(rays, assignment):
            point[ray] += j * a * q
            coeff *= weights[j]
        total += coeff * _cleared_rates(fan, *_lowest_terms(point, q * b), slice(1))[0]
    return total

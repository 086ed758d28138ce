"""Asymptotic growth of cohomology under divisor dilation.

The i-th asymptotic function of a divisor is the limit of
h^i(m d) / (m^n / n!).  On a complete fan it is computed exactly as a
weighted sum of normalized region volumes, never through the limit; the
limit shows up only in diagnostic probes.  The same machinery yields
the top self-intersection number as a signed volume sum.  Both sums are
read off the integer volume table of the divisor's type cell
(``regions._lawrence_columns``): on the cell each ĥ^i is the explicit
polynomial sum_B c_{B,i} N_B <g_B, L_B>^n of Lawrence's vertex formula,
with one column per rank degree and one of Euler weights.  Exact mixed
partial derivatives of the section growth function on an open chamber
are that polynomial's derivatives, not finite differences.
"""

from __future__ import annotations

from fractions import Fraction

from .cohomology import _euler_weights
from .divisor import Divisor, is_q_cartier
from .errors import (
    ChamberWallError,
    NotCompleteError,
    NotQCartierError,
    PreconditionError,
)
from .fan import Fan, _is_int
from .homology import _local_ranks
from .regions import _arrangement, _divisor_slot, _h0_partial, _held_slot, _lawrence_sum

AsymptoticVector = tuple[Fraction, ...]


def _rates(fan: Fan, d: Divisor, degrees: slice) -> AsymptoticVector:
    """The asymptotic rates of the degrees in the slice, in order, off the held slot.

    Only the table columns of those degrees are read: on an ample cell
    the columns of degrees 1..n are empty.
    """
    return _lawrence_sum(fan, _held_slot(fan, d), _local_ranks, degrees)


def _cleared_rates(fan: Fan, coefficients, q: int, degrees: slice) -> AsymptoticVector:
    """``_rates`` of the divisor cleared to integers, keyed without replacing the held slot."""
    slot = _divisor_slot(_arrangement(fan.rays, fan.dim, fan.memo), coefficients, q)
    return _lawrence_sum(fan, slot, _local_ranks, degrees)


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
    if not fan.complete:
        raise NotCompleteError("self-intersection needs a complete fan")
    if not fan.simplicial and is_q_cartier(fan, d) is None:
        raise NotQCartierError("divisor is not Q-Cartier")
    return _lawrence_sum(fan, _held_slot(fan, d), _euler_weights, slice(None))[0]


def asymptotic_rr_check(fan: Fan, d: Divisor) -> tuple[Fraction, Fraction]:
    """(self-intersection, alternating sum of asymptotic ranks); equal in theory."""
    lhs = self_intersection(fan, d)
    rhs = sum((-1) ** i * value for i, value in enumerate(hhat(fan, d)))
    return lhs, Fraction(rhs)


def mixed_partial_h0(fan: Fan, d: Divisor, ray_indices) -> Fraction:
    """Exact mixed partial of the section growth rate along prime divisors.

    On an open chamber the growth rate is the normalized volume of the
    section polytope, and the degree-0 column of the volume table of its
    type cell makes it an explicit polynomial of degree n near d
    (Lawrence 1991); the partial is read off it in integers
    (``regions._h0_partial``), with no region sum.  The divisor is
    cleared to integers once, when its chamber is located, so a float
    divisor counts as its exact value.
    Raises ChamberWallError off an open chamber, and PreconditionError
    unless the ray indices are 1 to n distinct ints in 0..k-1 (True and
    1.0 are no ray index).
    """
    from .gkz import _slot_chamber

    rays = list(ray_indices)
    if not all(_is_int(i) and 0 <= i < len(fan.rays) for i in rays):
        raise PreconditionError(f"ray indices must be ints in 0..{len(fan.rays) - 1}, got {rays}")
    if len(set(rays)) != len(rays):
        raise PreconditionError("ray list must consist of distinct rays")
    if not 1 <= len(rays) <= fan.dim:
        raise PreconditionError("need between 1 and n distinct rays")
    slot = _held_slot(fan, d)
    if not _slot_chamber(fan, slot).interior:
        raise ChamberWallError("divisor class sits on a chamber wall")
    return _h0_partial(fan, slot, _local_ranks, rays)

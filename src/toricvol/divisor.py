"""Torus-invariant Weil divisors with rational coefficients.

A divisor on a fan with k rays is just a length-k tuple of Fractions,
one coefficient per ray.  Cartier data, ampleness and linear
equivalence shifts are decided exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import NotCompleteError
from .fan import Fan, _check_rays, _is_int
from .linalg import dot, solve, to_integers

Divisor = tuple[Fraction, ...]


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _coefficient(value) -> Fraction:
    """A divisor coefficient: an int, a Fraction, or a string "p" or "p/q" in ASCII digits.

    ``Fraction`` alone would take 0.1 at its binary value, read True as
    1, "1_0" as 10, "1e3" as 1000 and " 1/2 " as 1/2, and accept
    non-ASCII digits, silently changing the input.
    """
    if isinstance(value, Fraction) or _is_int(value):
        return Fraction(value)
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise ValueError(f"{value!r} is not an integer, a Fraction or a \"p/q\" string")
    numerator, denominator = match.groups()
    denominator = int(denominator) if denominator else 1
    if not denominator:
        raise ValueError(f"{value!r} has a zero denominator")
    return Fraction(int(numerator), denominator)


def divisor(coeffs) -> Divisor:
    """Coerce a sequence of ints / 'p/q' strings / Fractions to a divisor.

    Raises ValueError on any other coefficient (see ``_coefficient``).
    """
    return tuple(_coefficient(c) for c in coeffs)


def ray_divisor(fan: Fan, i: int, multiple=1) -> Divisor:
    """The divisor ``multiple * D_i`` supported on a single ray.

    Raises ValueError unless i is a ray index and ``multiple`` a
    coefficient as ``_coefficient`` reads it.
    """
    _check_rays(fan, (i,))
    coeffs = [Fraction(0)] * len(fan.rays)
    coeffs[i] = _coefficient(multiple)
    return tuple(coeffs)


def scale(d: Divisor, factor) -> Divisor:
    """The divisor ``factor * d``; the factor is read by ``_coefficient``.

    d is read at its exact values by ``to_integers``, which raises
    ValueError on a bool and TypeError on a string.
    """
    f = _coefficient(factor)
    values, q = to_integers(d)
    return tuple(f * v / q for v in values)


@dataclass(frozen=True)
class CartierData:
    """Per maximal cone, the linear functional agreeing with -d on its rays."""

    u_sigma: tuple[tuple[Fraction, ...], ...]  # parallel to fan.max_cones

    def is_integral(self, d: Divisor) -> bool:
        """Whether every u_sigma and every coefficient of d is an integer.

        d is read through ``to_integers``, so a float is its exact value.
        """
        return all(v.denominator == 1 for u in self.u_sigma for v in u) and to_integers(d)[1] == 1


def _check_length(fan: Fan, d: Divisor) -> None:
    """Raise ValueError unless the divisor has one coefficient per ray."""
    if len(d) != len(fan.rays):
        raise ValueError(f"divisor has {len(d)} coefficients, fan has {len(fan.rays)} rays")


def _basis_functional(fan: Fan, idx: tuple[int, ...], coeffs):
    """The integer U with <U, v_i> = -common * coeffs[i] for i in idx, read off the fan's inverses.

    ``idx`` is a sorted tuple of ray indices and ``coeffs / q`` a
    divisor cleared to integers (``to_integers``), so U / (common * q)
    is the functional that agrees with -d on idx, for the ``common``
    denominator of the fan's table of basis inverses
    (``fan._Configuration.table``).  None unless the rays of idx form a
    basis, that is, unless the table holds idx.
    """
    inverse = fan.configuration.table[1].get(idx)
    if inverse is None:
        return None
    rhs = [-coeffs[i] for i in idx]
    return tuple(sum(map(mul, row, rhs)) for row in inverse)


def is_q_cartier(fan: Fan, d: Divisor) -> CartierData | None:
    """Local linear data for the divisor, or None when it does not exist.

    On each maximal cone the system <u, v_rho> = -d_rho over the cone's
    rays must be solvable; on full-dimensional cones the solution is
    automatically unique, and on non-simplicial cones the consistency
    requirement across all rays is what can fail.  A full-dimensional
    simplicial cone reads its u off the integer inverse of its rays in
    the fan's table of basis inverses (``fan._Configuration.table``), applied
    to the divisor cleared to integers once per call; any other cone
    solves its system.  A cold call builds the whole table, every
    invertible n-subset of the rays, which region sums and chamber
    systems read as well.
    """
    _check_length(fan, d)
    coeffs, q = to_integers(d)
    common = fan.configuration.table[0]
    us = []
    for mc in fan.max_cones:
        idx = tuple(sorted(mc))
        u = _basis_functional(fan, idx, coeffs)
        if u is None:
            u = solve([fan.rays[i] for i in idx], [-d[i] for i in idx])
            if u is None:
                return None
        else:
            u = tuple(Fraction(x, common * q) for x in u)
        us.append(u)
    return CartierData(tuple(us))


def is_cartier(fan: Fan, d: Divisor) -> bool:
    data = is_q_cartier(fan, d)
    return data is not None and data.is_integral(d)


def is_ample(fan: Fan, d: Divisor) -> bool:
    """Strict convexity of the associated piecewise linear function.

    For every maximal cone and every ray outside it the local linear
    functional must beat the ray's own level, strictly.
    """
    if not fan.complete:
        raise NotCompleteError("ampleness is only defined here for complete fans")
    data = is_q_cartier(fan, d)
    if data is None:
        return False
    for mc, u in zip(fan.max_cones, data.u_sigma):
        for rho in range(len(fan.rays)):
            if rho in mc:
                continue
            if dot(u, fan.rays[rho]) <= -d[rho]:
                return False
    return True


def linear_equiv_shift(fan: Fan, d: Divisor, u) -> Divisor:
    """The linearly equivalent divisor obtained by adding div(chi^u).

    The coefficients of d are read at their exact values
    (``linalg.to_integers``, which raises TypeError on a string), so a
    float coefficient counts exactly.  Raises ValueError unless d has
    one coefficient per ray and u one entry per coordinate, each read
    by ``_coefficient``.
    """
    _check_length(fan, d)
    if len(u) != fan.dim:
        raise ValueError(f"character has {len(u)} entries, fan has dimension {fan.dim}")
    uu = tuple(_coefficient(v) for v in u)
    coefficients, q = to_integers(d)
    return tuple(Fraction(c, q) + dot(uu, ray) for c, ray in zip(coefficients, fan.rays))

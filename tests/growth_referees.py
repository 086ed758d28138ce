"""The growth path's nef split, ampleness probes and ĥ^0 derivatives in ``Fraction``s: test-only referees.

The library clears each divisor to integers once per call and builds a
``Fraction`` only for an answer (``toricvol.gkz``), and it reads the
derivatives of ĥ^0 off the polynomial of the volume table of a type
cell (``toricvol.regions._h0_partial``).  This module keeps the older
formulations once, as the old vertex pass became
``arrangement_referees``:

* ``nef_decomposition``: the split d = nef + remainder after a shift,
  from ``Fraction`` cone functionals (``chamber_referees``) and a
  ``Fraction`` shift, with the three postconditions checked on
  ``Fraction`` vertices;
* ``ample_probes``: the divisors ``ample_via_asymptotics`` measures
  on a cell wall, the class itself and d +- step e_rho for every ray,
  each step min(1, slack / (2 |row_rho|)) over ``Fraction`` slacks of
  the public chamber rows;
* ``circuit_minors``: the (n + 1) x (n + 1) minors of [V | d] whose
  signs fix the type cell of d, by ``Fraction`` determinants;
* ``mixed_partial_h0``: the derivative of ĥ^0 from the ``Fraction``
  grid d + sum k_j step e_rho_j, k_j = 0..n, each point's ĥ^0 from
  ``hhat``, with the step min(1, slack / (2 n pull)) over ``Fraction``
  slacks and the Lagrange weights of ``derivative_weights``.
"""

import math
from fractions import Fraction
from functools import cache
from itertools import combinations, product

import chamber_referees
import fraction_linalg
from toricvol.asymptotics import hhat
from toricvol.errors import EffectiveConeError
from toricvol.gkz import NefDecomposition, located_cone, locate_chamber
from toricvol.regions import HalfOpenRegion, closure_vertices, region


def _dot(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def nef_decomposition(fan, cone, d):
    """The nef split of a chamber member, or AssertionError if a postcondition fails."""
    us, xi = chamber_referees.piecewise_linear_data(fan, cone, d)
    n = fan.dim
    if cone.lineality_basis:
        rhs = [_dot(us[0], b) for b in cone.lineality_basis]
        shift = fraction_linalg.solve([list(b) for b in cone.lineality_basis], rhs)
        assert shift is not None
    else:
        shift = tuple(Fraction(0) for _ in range(n))
    shifted = tuple(Fraction(c) + _dot(shift, ray) for c, ray in zip(d, fan.rays))
    remainder = tuple(x + c for x, c in zip(xi, d))
    support = sorted(frozenset().union(*cone.sigma_cones))
    nef_coeffs = {rho: _dot(shift, fan.rays[rho]) - xi[rho] for rho in support}
    assert all(e >= 0 for e in remainder)
    assert all(e == 0 for rho, e in enumerate(remainder) if rho not in cone.strict_rays)
    nef_region = HalfOpenRegion(
        normals=tuple(fan.rays[rho] for rho in support),
        levels=tuple(-nef_coeffs[rho] for rho in support),
        weak=(True,) * len(support),
        dim=n,
    )
    shifted_region = region(fan, shifted, range(len(fan.rays)))
    assert closure_vertices(shifted_region) == closure_vertices(nef_region)
    return NefDecomposition(shifted, shift, nef_coeffs, remainder)


def ample_probes(fan, d):
    """The divisors whose higher rates the ampleness test reads, in order; [] when it stops early."""
    try:
        location = locate_chamber(fan, d)
    except EffectiveConeError:
        return []
    own = set(location.sigma.max_cones) == set(fan.max_cones) and not location.strict_rays
    if not (location.interior and own):
        return []
    chamber = located_cone(fan, location)
    slacks = [_dot(row, d) for row in chamber.inequalities]
    probes = [tuple(Fraction(c) for c in d)]
    for rho in range(len(fan.rays)):
        step = Fraction(1)
        for row, slack in zip(chamber.inequalities, slacks):
            if row[rho]:
                step = min(step, slack / (2 * abs(row[rho])))
        for sign in (1, -1):
            probe = list(probes[0])
            probe[rho] += sign * step
            probes.append(tuple(probe))
    return probes


def circuit_minors(fan, d):
    """The minors det [v_i | d_i] over the spanning (n + 1)-subsets of rays, in ``combinations`` order.

    A subset whose rays do not span has a zero minor for every d and is
    left out, so a class lies on a type-cell wall exactly when one of
    these is zero (McMullen 1973).
    """
    return [
        fraction_linalg.det([[*fan.rays[i], d[i]] for i in subset])
        for subset in _spanning_subsets(fan.rays, fan.dim)
    ]


@cache
def _spanning_subsets(rays, n):
    """The (n + 1)-subsets of the rays that span, in ``combinations`` order."""
    subsets = combinations(range(len(rays)), n + 1)
    return [s for s in subsets if fraction_linalg.rank([rays[i] for i in s]) == n]


def derivative_weights(n, step):
    """Weights w_k with sum w_k f(k * step) = f'(0), k = 0..n, for degree <= n.

    The derivative at 0 of the Lagrange interpolant on the nodes k * step:
    w_0 = -H_n / step and w_k = (-1)^(k+1) C(n, k) / (k * step).
    """
    weights = [Fraction(0)] * (n + 1)
    for k in range(1, n + 1):
        weights[k] = Fraction((-1) ** (k + 1) * math.comb(n, k), k) / step
        weights[0] -= Fraction(1, k) / step
    return weights


def mixed_partial_h0(fan, d, rays):
    """The mixed partial of ĥ^0 along the rays at d, from the ``Fraction`` grid; d in an open chamber."""
    location = locate_chamber(fan, d)
    assert location.interior
    chamber = located_cone(fan, location)
    n = fan.dim
    step = Fraction(1)
    for row in chamber.inequalities:
        pull = sum(abs(row[i]) for i in rays)
        if pull:
            step = min(step, _dot(row, d) / (2 * n * pull))
    assert step > 0
    weights = derivative_weights(n, step)
    total = Fraction(0)
    for assignment in product(range(n + 1), repeat=len(rays)):
        point = [Fraction(c) for c in d]
        coeff = Fraction(1)
        for ray, k in zip(rays, assignment):
            point[ray] += k * step
            coeff *= weights[k]
        total += coeff * hhat(fan, tuple(point))[0]
    return total

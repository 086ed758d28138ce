"""Chamber systems and cone functionals by ``Fraction`` solves: test-only referees.

The library reads every expansion of a ray in a ray basis, and every
cone functional of a nef decomposition, off the fan's one table of
integer basis inverses (``toricvol.fan._Configuration``).  This module
keeps the older formulation once: an independence rank per candidate
basis and one ``Fraction`` solve per ray and basis, on the Gauss-Jordan
loop of ``fraction_linalg``, so that it shares no elimination with the
production path.

* ``gkz_system``: the (members, bases, equalities, inequalities) of a
  chamber cone, as the ``toricvol.gkz.GKZCone`` fields hold them;
* ``piecewise_linear_data``: the per-cone functionals and the ray
  values on each ray's owner cone that ``toricvol.gkz.nef_decomposition``
  reads, one solve per cone basis.
"""

import math
from fractions import Fraction
from itertools import combinations

import fraction_linalg
from general_lp import cone_contains


def gkz_system(fan, cones, strict):
    """The condition system of the chamber cone of ``cones`` and ``strict``."""
    n = fan.dim
    nrays = len(fan.rays)
    members, bases = [], []
    equalities, inequalities = set(), set()
    for cone in cones:
        gens = [fan.rays[i] for i in sorted(cone)]
        inside = frozenset(rho for rho, ray in enumerate(fan.rays) if cone_contains(gens, ray))
        members.append(inside)
        base_found = None
        for basis in combinations(sorted(inside - strict), n):
            if fraction_linalg.rank([fan.rays[i] for i in basis]) != n:
                continue
            if base_found is None:
                base_found = basis
            columns = [[fan.rays[b][r] for b in basis] for r in range(n)]
            for rho in range(nrays):
                expansion = fraction_linalg.solve(columns, fan.rays[rho])
                coeffs = [Fraction(0)] * nrays
                coeffs[rho] += 1
                for b, a in zip(basis, expansion):
                    coeffs[b] -= a
                if not any(coeffs):
                    continue
                scale = math.lcm(*(c.denominator for c in coeffs))
                ints = [int(c * scale) for c in coeffs]
                g = math.gcd(*ints)
                if rho in inside and rho not in strict:
                    # One sign per equality: its first nonzero entry positive.
                    first = next(v for v in ints if v)
                    equalities.add(tuple(Fraction(v // g) * (1 if first > 0 else -1) for v in ints))
                else:
                    inequalities.add(tuple(Fraction(v // g) for v in ints))
        if base_found is None:
            raise ValueError("cone has no independent ray basis outside the strict set")
        bases.append(base_found)
    inequalities -= equalities | {tuple(-v for v in row) for row in equalities}
    return tuple(members), tuple(bases), tuple(sorted(equalities)), tuple(sorted(inequalities))


def piecewise_linear_data(fan, cone, d):
    """(us, values): one ``Fraction`` solve per cone basis, each ray valued on its owner."""
    us = [
        fraction_linalg.solve([fan.rays[i] for i in basis], [-d[i] for i in basis])
        for basis in cone.bases
    ]
    values = []
    for rho, ray in enumerate(fan.rays):
        owner = next(s for s, inside in enumerate(cone.members) if rho in inside)
        values.append(sum(a * b for a, b in zip(us[owner], ray)))
    return us, tuple(values)

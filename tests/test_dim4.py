"""Dimension-4 closed forms on P^4 and P^1 x P^3.

Lattice counts here cut regions into 2-D slices over two leading
coordinates, sphere complexes reach dimension 3 and region vertices
come from 4-subsets of the rays, none of which a 2-D or 3-D fan runs.
"""

import math
from itertools import combinations

import pytest

from toricvol.asymptotics import hhat, self_intersection
from toricvol.cohomology import cech_oracle, euler_char, h_all
from toricvol.divisor import divisor, ray_divisor, scale
from toricvol.fan import make_fan


def p4():
    rays = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)]
    return make_fan(4, rays, [set(c) for c in combinations(range(5), 4)])


def p1_x_p3():
    """Rays +-e1 of P^1, then e2, e3, e4, -(e2 + e3 + e4) of P^3."""
    rays = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, -1, -1, -1)]
    cones = [{a} | set(c) for a in (0, 1) for c in combinations(range(2, 6), 3)]
    return make_fan(4, rays, cones)


@pytest.mark.parametrize("m", [0, 1, 2, 3, -1, -4, -5, -6, -7])
def test_p4_line_bundles(m):
    fan = p4()
    d = scale(ray_divisor(fan, 0), m)
    if m >= 0:
        expected = (math.comb(m + 4, 4), 0, 0, 0, 0)
    else:
        expected = (0, 0, 0, 0, math.comb(-m - 1, 4))
    ranks = h_all(fan, d)
    assert ranks == expected
    assert euler_char(fan, d) == sum((-1) ** i * h for i, h in enumerate(ranks))
    assert cech_oracle(fan, d) == ranks


def test_p4_hyperplane_growth():
    fan = p4()
    hyperplane = ray_divisor(fan, 0)
    assert hhat(fan, hyperplane) == (1, 0, 0, 0, 0)
    assert self_intersection(fan, hyperplane) == 1


def test_p1_x_p3_products():
    fan = p1_x_p3()
    # 2 H_1 + 3 H_2: h^0 = 3 * C(6, 3), and vol = C(4, 1) * 2 * 3^3.
    d = divisor([2, 0, 3, 0, 0, 0])
    assert h_all(fan, d) == (60, 0, 0, 0, 0)
    assert hhat(fan, d)[0] == self_intersection(fan, d) == 216
    # O(-3, 1): h^1(P^1, O(-3)) * h^0(P^3, O(1)) = 2 * 4.
    d = divisor([-3, 0, 1, 0, 0, 0])
    assert h_all(fan, d) == (0, 8, 0, 0, 0)
    assert cech_oracle(fan, d) == (0, 8, 0, 0, 0)

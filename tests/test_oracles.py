"""Independent oracles for the geometry kernels.

Volumes come from Lawrence's vertex formula; these tests recheck them
against formulas that share no code with that path (shoelace areas
in the plane, box products in space), recheck the dimension-2 chamber
candidates against an angular-gap oracle with its own angular order,
and the dimension-3 chamber search against a hand-built two-chamber
example.
"""

import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

from generated_fans import polygon_fan_data
from lp_referees import max_over_cone_is_zero
from toricvol.divisor import divisor
from toricvol.fan import make_fan
from toricvol.fixtures import bl1_p3, bl2_p2, bl3_p2, f1, p1_cubed, p1xp1, p2
from toricvol.gkz import (
    _chambers,
    enumerate_maximal_chambers,
    gkz_membership,
    locate_chamber,
)
from toricvol.regions import (
    bounded_subsets,
    closure_vertices,
    is_bounded_subset,
    normalized_volume,
    region,
)


def by_angle(items, vector):
    """The items sorted by the angle of their vectors, counterclockwise from (1, 0)."""

    def compare(a, b):
        (ax, ay), (bx, by) = vector(a), vector(b)
        ha = 0 if (ay > 0 or (ay == 0 and ax > 0)) else 1
        hb = 0 if (by > 0 or (by == 0 and bx > 0)) else 1
        if ha != hb:
            return ha - hb
        cross = ax * by - ay * bx
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return sorted(items, key=cmp_to_key(compare))


def shoelace_double_area(points):
    """Twice the area of a convex planar polygon given unordered vertices."""
    if len(points) < 3:
        return Fraction(0)
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    ordered = by_angle(points, lambda p: (p[0] - cx, p[1] - cy))
    total = Fraction(0)
    for i, p in enumerate(ordered):
        q = ordered[(i + 1) % len(ordered)]
        total += p[0] * q[1] - p[1] * q[0]
    return abs(total)


def test_volume_against_shoelace():
    rng = random.Random(2024)
    for fixture in (p2, p1xp1, f1, bl2_p2, bl3_p2):
        fan = fixture()
        k = len(fan.rays)
        for _ in range(15):
            d = divisor([rng.randint(-4, 4) for _ in range(k)])
            for subset in bounded_subsets(fan):
                reg = region(fan, d, subset)
                vertices = closure_vertices(reg).vertices
                expected = shoelace_double_area(list(vertices))
                assert normalized_volume(reg) == expected, (fixture.__name__, d, sorted(subset))


def test_boundedness_against_coordinate_lps():
    # The recession cone is {0} iff every coordinate functional, in both
    # signs, stays bounded on it: 2n LPs per subset against one.
    for fixture in (p2, p1xp1, f1, bl2_p2, bl3_p2, bl1_p3):
        fan = fixture()
        n = fan.dim
        units = [tuple(s * int(i == j) for i in range(n)) for j in range(n) for s in (1, -1)]
        for mask in range(2 ** len(fan.rays)):
            subset = frozenset(i for i in range(len(fan.rays)) if mask >> i & 1)
            rows = [v if i in subset else tuple(-x for x in v) for i, v in enumerate(fan.rays)]
            expected = all(max_over_cone_is_zero(u, rows) for u in units)
            assert is_bounded_subset(fan, subset) == expected, (fixture.__name__, sorted(subset))


def test_volume_against_box_products():
    fan = p1_cubed()  # rays: +-e1, +-e2, +-e3 in that interleaved order
    rng = random.Random(2025)
    full = frozenset(range(6))
    for _ in range(20):
        sides = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(3)]
        d = divisor([sides[0][0], sides[0][1], sides[1][0], sides[1][1], sides[2][0], sides[2][1]])
        reg = region(fan, d, full)
        expected = 6 * (sides[0][0] + sides[0][1]) * (sides[1][0] + sides[1][1]) * (
            sides[2][0] + sides[2][1]
        )
        assert normalized_volume(reg) == expected


def test_dim3_chambers_on_blown_up_space():
    fan = bl1_p3()
    chambers = enumerate_maximal_chambers(fan, allow_dim3=True)
    assert len(chambers) == 2
    by_strict = {tuple(sorted(ch.strict_rays)): ch for ch in chambers}
    assert set(by_strict) == {(), (4,)}
    coarse = by_strict[(4,)]
    assert set(map(frozenset, coarse.sigma_cones)) == {
        frozenset({0, 1, 2}),
        frozenset({0, 1, 3}),
        frozenset({0, 2, 3}),
        frozenset({1, 2, 3}),
    }
    # Samples locate back into their own chambers.
    for ch in chambers:
        loc = locate_chamber(fan, ch.sample_divisor)
        assert loc.interior
        assert loc.strict_rays == ch.strict_rays
        assert ch.contains_strictly(ch.sample_divisor)
    # The pulled-back hyperplane class sits on the shared wall.
    pullback = divisor([1, 0, 0, 0, 1])
    assert gkz_membership(fan, by_strict[()], pullback)
    assert gkz_membership(fan, coarse, pullback)
    assert not locate_chamber(fan, pullback).interior


def test_partition_and_location_on_hexagon():
    # Eighteen chambers on the three-point blow-up: every effective class
    # falls strictly inside exactly one, or on a wall, and the located
    # chamber agrees with the strict membership tests.
    from toricvol.errors import EffectiveConeError
    from toricvol.gkz import support_function

    fan = bl3_p2()
    chambers = enumerate_maximal_chambers(fan)
    assert len(chambers) == 18
    rng = random.Random(606)
    sampled = 0
    while sampled < 60:
        d = divisor([rng.randint(-3, 3) for _ in range(6)])
        try:
            support_function(fan, d)
        except EffectiveConeError:
            continue
        sampled += 1
        strict = [ch for ch in chambers if ch.contains_strictly(d)]
        closed = [ch for ch in chambers if ch.contains(d)]
        assert closed
        assert len(strict) <= 1
        loc = locate_chamber(fan, d)
        if loc.interior:
            assert len(strict) == 1
            assert strict[0].strict_rays == loc.strict_rays
            assert set(strict[0].sigma_cones) == set(loc.sigma.max_cones)
        else:
            assert not strict


def gap_oracle_chambers(fan):
    """The cyclic cone lists of the ray subsets whose angular gaps all stay
    below a half turn, subsets in ``combinations`` order."""
    k = len(fan.rays)
    found = []
    for size in range(3, k + 1):
        for subset in combinations(range(k), size):
            ordered = by_angle(subset, lambda i: fan.rays[i])
            pairs = list(zip(ordered, ordered[1:] + ordered[:1]))
            if all(
                fan.rays[a][0] * fan.rays[b][1] - fan.rays[a][1] * fan.rays[b][0] > 0
                for a, b in pairs
            ):
                found.append([frozenset(pair) for pair in pairs])
    return found


def sorted_cone_lists(found):
    """Each cone list in sorted order, as the chamber search lists its cones."""
    return [sorted(cones, key=sorted) for cones in found]


def test_dim2_chamber_counts_match_gap_oracle():
    # In the plane, maximal chambers correspond to ray subsets whose
    # cyclic angular gaps all stay below a half turn.  The candidate
    # list, subset order included, is the oracle's on the fixtures and on
    # random polygon normal fans, each fan's cones listed in sorted
    # order; every candidate is a chamber.
    census = {p2: 1, p1xp1: 1, f1: 2, bl2_p2: 5, bl3_p2: 18}
    for fixture, count in census.items():
        fan = fixture()
        expected = gap_oracle_chambers(fan)
        assert _chambers(fan) == sorted_cone_lists(expected), fixture.__name__
        assert len(enumerate_maximal_chambers(fan)) == len(expected) == count
    rng = random.Random(1515)
    sizes = set()
    for _ in range(20):
        fan = make_fan(*polygon_fan_data(rng, points=10, bound=6))
        sizes.add(len(fan.rays))
        assert _chambers(fan) == sorted_cone_lists(gap_oracle_chambers(fan)), fan.rays
    assert len(sizes) >= 3

"""The cold path of a fresh fan against the LP formulations it replaced.

Boundedness of regions is read off cocircuit sign patterns, relative-
interior functionals come from a 2k-row LP, and fan validation skips
the pointedness and extreme-ray LPs on cones with independent
generators.  The referees in ``lp_referees`` run the older LPs; every
answer must be identical, and the LP counts show what the cold path
still solves.
"""

import math
import random
from itertools import combinations

import pytest

import toricvol.lp as lp
from lp_referees import all_lp_diagnostics, gordan_is_bounded, relative_interior_3k
from test_region_sum import POLY12_RAYS, p123, p1235, poly12
from toricvol import fixtures, regions
from toricvol.cohomology import h_all
from toricvol.fan import fan_diagnostics, is_simplicial, make_fan
from toricvol.gkz import enumerate_maximal_chambers, locate_chamber, located_cone, nef_decomposition
from toricvol.linalg import dot, rank
from toricvol.lp import relative_interior_functional
from toricvol.regions import HalfOpenRegion, bounded_subsets

ALL_FIXTURES = (
    fixtures.p1, fixtures.p2, fixtures.p1xp1, fixtures.f1, fixtures.weighted_p112,
    fixtures.bl2_p2, fixtures.bl3_p2, fixtures.p1_cubed, fixtures.bl1_p3,
    fixtures.cube_fan, fixtures.quadrant_fan, fixtures.square_cone_fan,
)


def gordan_bounded_subsets(fan):
    """Every ray subset, by size then lexicographically, kept when the LP says bounded."""
    k = len(fan.rays)
    return tuple(
        frozenset(combo)
        for size in range(k + 1)
        for combo in combinations(range(k), size)
        if gordan_is_bounded(fan.rays, [i in combo for i in range(k)], fan.dim)
    )


@pytest.mark.parametrize(
    "make", ALL_FIXTURES + (p123, p1235, poly12), ids=lambda make: make.__name__
)
def test_bounded_subsets_match_gordan_sweep(make):
    fan = make()
    assert bounded_subsets(fan) == gordan_bounded_subsets(fan)


def _memo():
    table = {}

    def memo(key, compute):
        if key not in table:
            table[key] = compute()
        return table[key]

    return memo


def nonzero_vector(rng, n, bound):
    while True:
        vector = tuple(rng.randint(-bound, bound) for _ in range(n))
        if any(vector):
            return vector


def random_normals(rng, n):
    """Up to 6 nonzero normals, spanning or inside a subspace of lower rank,
    with parallel and opposite repeats."""
    k = rng.randint(0, 6)
    basis = None
    if rng.random() < 0.3:
        basis = [nonzero_vector(rng, n, 2) for _ in range(rng.randint(1, max(1, n - 1)))]
    normals = []
    while len(normals) < k:
        if normals and rng.random() < 0.3:
            base = rng.choice(normals)
            normal = tuple(rng.choice((-2, -1, 1, 2)) * x for x in base)
        elif basis is not None:
            coeffs = [rng.randint(-2, 2) for _ in basis]
            normal = tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n))
        else:
            normal = nonzero_vector(rng, n, 2)
        if any(normal):
            normals.append(normal)
    return tuple(normals)


def test_boundedness_matches_gordan_on_random_normals():
    rng = random.Random(1989)
    spans = {True: 0, False: 0}
    bounded_seen = 0
    for case in range(2400):
        n = 1 + case % 3
        normals = random_normals(rng, n)
        spans[bool(normals) and rank(normals) == n] += 1
        memo = _memo()
        k = len(normals)
        if k <= 4:
            weak_sets = [[bool(mask >> i & 1) for i in range(k)] for mask in range(1 << k)]
        else:
            weak_sets = [[rng.random() < 0.5 for _ in range(k)] for _ in range(8)]
        for weak in weak_sets:
            reg = HalfOpenRegion(normals, (0,) * k, tuple(weak), n, memo)
            expected = gordan_is_bounded(normals, weak, n)
            assert regions._closure_is_bounded(reg) == expected, (normals, weak)
            bounded_seen += expected
    assert min(spans.values()) > 300
    assert bounded_seen > 300


def test_nef_region_boundedness_matches_gordan(monkeypatch):
    seen = []
    original = regions._closure_is_bounded

    def recorded(reg):
        answer = original(reg)
        seen.append((reg.normals, reg.weak, reg.dim, answer))
        return answer

    monkeypatch.setattr(regions, "_closure_is_bounded", recorded)
    fan_rays = set()
    for make in (fixtures.bl2_p2, fixtures.bl3_p2, fixtures.f1):
        fan = make()
        fan_rays.add(fan.rays)
        for chamber in enumerate_maximal_chambers(fan):
            d = chamber.sample_divisor
            nef_decomposition(fan, located_cone(fan, locate_chamber(fan, d)), d)
            nef_decomposition(fan, chamber, d)
    nef_regions = {(normals, weak, dim, answer) for normals, weak, dim, answer in seen}
    assert any(normals not in fan_rays for normals, _, _, _ in nef_regions)
    for normals, weak, dim, answer in nef_regions:
        assert answer == gordan_is_bounded(normals, weak, dim), normals


def random_rows(rng):
    dim = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 6)):
        if rows and rng.random() < 0.3:
            rows.append(tuple(-x for x in rng.choice(rows)))
        else:
            rows.append(tuple(rng.randint(-2, 2) for _ in range(dim)))
    return rows


def test_relative_interior_matches_3k_lp():
    rng = random.Random(77)
    kinds = set()
    for _ in range(400):
        rows = random_rows(rng)
        w, implicit = relative_interior_functional(rows)
        assert implicit == relative_interior_3k(rows)[1], rows
        assert all(dot(r, w) >= 1 for i, r in enumerate(rows) if i not in implicit), rows
        assert all(dot(r, w) == 0 for i, r in enumerate(rows) if i in implicit), rows
        kinds.add("none" if not implicit else "all" if len(implicit) == len(rows) else "some")
    assert kinds == {"none", "some", "all"}


def random_cone_list(rng):
    """Rays and cones: valid fixture data, parts of it, or random overlapping lists."""
    choice = rng.random()
    if choice < 0.4:
        fan = rng.choice(ALL_FIXTURES)()
        dim, rays = fan.dim, [list(r) for r in fan.rays]
        cones = [sorted(c) for c in fan.max_cones]
        if choice < 0.1:
            pass  # the valid fan itself
        elif choice < 0.2:
            cones = rng.sample(cones, rng.randint(1, len(cones)))
        elif choice < 0.3:
            j = rng.randrange(len(cones))
            cones.append(rng.sample(cones[j], rng.randint(1, len(cones[j]))))  # nested
        else:
            cones.append(rng.sample(range(len(rays)), rng.randint(1, min(4, len(rays)))))
        rng.shuffle(cones)
        return dim, rays, cones
    dim = rng.choice((2, 3))
    bound = 2 if dim == 2 else 1
    rays = [list(nonzero_vector(rng, dim, bound)) for _ in range(rng.randint(2, 6))]
    cones = [
        rng.sample(range(len(rays)), rng.randint(1, min(dim + 1, len(rays))))
        for _ in range(rng.randint(1, 4))
    ]
    return dim, rays, cones


def test_fan_diagnostics_match_all_lp_referee():
    rng = random.Random(4242)
    kinds = ("contained in", "improper intersection", "not strongly convex", "not an extreme ray")
    outcomes = set()
    for _ in range(200):
        dim, rays, cones = random_cone_list(rng)
        diags, fan = fan_diagnostics(dim, rays, cones)
        expected_diags, expected_data = all_lp_diagnostics(dim, rays, cones)
        assert diags == expected_diags, (dim, rays, cones)
        assert (None if fan is None else (fan.rays, fan.max_cones)) == expected_data
        outcomes.update(kind for kind in kinds for d in diags if kind in d)
        outcomes.add("invalid" if fan is None else "valid" if is_simplicial(fan) else "non-simplicial")
    # Valid fans, simplicial or not, nested and overlapping cones, lines
    # and redundant generators all occur.
    assert outcomes == {"valid", "non-simplicial", "invalid", *kinds}


@pytest.mark.parametrize(
    "data",
    [
        (fixtures.bl3_p2().dim, fixtures.bl3_p2().rays, fixtures.bl3_p2().max_cones),
        (2, POLY12_RAYS, [{i, (i + 1) % 12} for i in range(12)]),
    ],
    ids=["bl3_p2", "poly12"],
)
def test_cold_fan_solves_one_lp_per_cone_pair(monkeypatch, data):
    calls = []
    original = lp.solve_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counted)
    fan = make_fan(*data)
    assert len(calls) == math.comb(len(fan.max_cones), 2)
    calls.clear()
    assert bounded_subsets(fan)
    h_all(fan, (1,) * len(fan.rays))
    assert calls == []

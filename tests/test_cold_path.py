"""The cold path of a fresh fan against the LP formulations it replaced.

Boundedness of regions is read off cocircuit sign patterns, relative-
interior functionals come from a 2k-row LP, and fan validation skips
the pointedness and extreme-ray LPs on cones with independent
generators and the pair LPs on complete simplicial fans.  The referees
in ``lp_referees`` run the older LPs; every answer must be identical,
and the LP counts show what the cold path still solves.
"""

import math
import random
from itertools import combinations

import pytest

import fraction_linalg
import toricvol.fan as fan_module
import toricvol.lp as lp
from generated_fans import polygon_fan_data, star_fan_data
from lp_referees import all_lp_diagnostics, gordan_is_bounded, relative_interior_3k
from test_region_sum import POLY12_RAYS, p123, p1235, poly12
from toricvol import fixtures, regions
from toricvol.cohomology import h_all
from toricvol.fan import fan_diagnostics, is_complete, is_simplicial, make_fan
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
            mask = regions._weak_mask(reg.weak)
            arrangement = regions._arrangement(reg.normals, reg.dim, reg.memo)
            assert regions._is_bounded(arrangement, mask) == expected, (normals, weak)
            bounded_seen += expected
    assert min(spans.values()) > 300
    assert bounded_seen > 300


def referee_patterns(normals, n):
    """Every cocircuit sign pattern (pos, neg) of the normals, each kernel solved afresh over Fraction.

    ((0, 0),) when the normals span less than the space.
    """
    if not normals or fraction_linalg.rank(normals) < n:
        return ((0, 0),)
    patterns = set()
    for combo in combinations(normals, n - 1):
        kernel = fraction_linalg.nullspace(list(combo)) if combo else [(1,)]
        if len(kernel) != 1:
            continue
        values = [dot(kernel[0], normal) for normal in normals]
        pos = sum(1 << i for i, x in enumerate(values) if x > 0)
        neg = sum(1 << i for i, x in enumerate(values) if x < 0)
        patterns |= {(pos, neg), (neg, pos)}
    return tuple(sorted(patterns))


def test_cocircuit_patterns_match_the_fraction_referee():
    # Boundedness alone does not see a missing pattern while another
    # extreme ray of the same recession cone is found, so the patterns read
    # off the configuration's kernels are checked whole: on random normals
    # with a configuration of their own, and on fans whose validation
    # filled part of the kernels first.
    rng = random.Random(2043)
    for case in range(1500):
        n = 1 + case % 3
        normals = random_normals(rng, n)
        assert fan_module._Configuration(normals, n).patterns == referee_patterns(normals, n), normals
    datas = [(make().dim, make().rays, make().max_cones) for make in ALL_FIXTURES + (poly12,)]
    for data in datas + [star_fan_data(s) for s in range(1, 5)] + [star_fan_data(2, dim=4)]:
        fan = make_fan(*data)
        assert fan.configuration.patterns == referee_patterns(fan.rays, fan.dim)


def test_nef_region_boundedness_matches_gordan(monkeypatch):
    # Nef decompositions read both polytopes through ``regions._is_bounded``.
    seen = []
    original = regions._is_bounded

    def recorded(arrangement, weak):
        answer = original(arrangement, weak)
        normals = arrangement.normals
        flags = tuple(bool(weak >> i & 1) for i in range(len(normals)))
        seen.append((normals, flags, arrangement.dim, answer))
        return answer

    monkeypatch.setattr(regions, "_is_bounded", recorded)
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


def counting_solve_lp(monkeypatch):
    """Route every ``lp.solve_lp`` call through a list of its arguments."""
    calls = []
    original = lp.solve_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counted)
    return calls


def fan_data(fan):
    return fan.dim, fan.rays, [sorted(c) for c in fan.max_cones]


BL3_P2 = fan_data(fixtures.bl3_p2())
POLY12 = (2, POLY12_RAYS, [{i, (i + 1) % 12} for i in range(12)])


@pytest.mark.parametrize(
    "data, pair_lps",
    [
        (BL3_P2, 0),
        (POLY12, 0),
        ((BL3_P2[0], BL3_P2[1], BL3_P2[2][1:]), math.comb(5, 2)),
        (fan_data(fixtures.cube_fan()), math.comb(6, 2)),
    ],
    ids=["bl3_p2", "poly12", "bl3_p2_less_one_cone", "cube_fan"],
)
def test_cold_fan_lp_count(monkeypatch, data, pair_lps):
    """Complete simplicial fans validate with no LP, and their cold
    ``bounded_subsets`` and ``h_all`` solve none either; an incomplete or
    a non-simplicial fan still solves one LP per pair of cones."""
    calls = counting_solve_lp(monkeypatch)
    pairs = []
    original = fan_module.relative_interior_functional

    def counted(rows):
        pairs.append(rows)
        return original(rows)

    monkeypatch.setattr(fan_module, "relative_interior_functional", counted)
    fan = make_fan(*data)
    assert len(pairs) == pair_lps
    if pair_lps:
        return
    assert calls == []
    assert bounded_subsets(fan)
    h_all(fan, (1,) * len(fan.rays))
    assert calls == []


# Glued facet to facet on opposite sides, but winding twice around 0.
PENTAGRAM = (
    2, [(1, 0), (3, 10), (-4, 3), (-4, -3), (3, -10)], [{i, (i + 2) % 5} for i in range(5)]
)

# Each ray in exactly two cones, but the cones fold back at rays 1 and 2:
# a point at angle 45 degrees lies in one cone, one at 120 in three.
FOLD = (2, [(1, 0), (-2, 1), (0, 1), (-1, -2)], [{0, 1}, {1, 2}, {2, 3}, {3, 0}])


def suspension(dim, rays, cones):
    """Cones over the data's cones and each of the two apexes (0, ..., 0, +-1)."""
    apexes = (len(rays), len(rays) + 1)
    rays = [(*r, 0) for r in rays] + [(0,) * dim + (1,), (0,) * dim + (-1,)]
    return dim + 1, rays, [set(c) | {apex} for c in cones for apex in apexes]


def perturbations(dim, rays, cones, rng):
    """The valid data, then less one cone, with one cone twice, and with
    one cone sigma replaced by two overlapping cones: sigma's rays with a
    replaced by sum(sigma) + a, and with b replaced by sum(sigma) + b."""
    cones = [sorted(c) for c in cones]
    j = rng.randrange(len(cones))
    yield dim, rays, cones
    yield dim, rays, cones[:j] + cones[j + 1:]
    yield dim, rays, cones + [cones[j]]
    a, b = rng.sample(cones[j], 2)
    total = [sum(rays[i][k] for i in cones[j]) for k in range(dim)]
    new = [[x + y for x, y in zip(total, rays[i])] for i in (a, b)]
    k = len(rays)
    overlap = [[k if i == a else i for i in cones[j]], [k + 1 if i == b else i for i in cones[j]]]
    yield dim, list(rays) + new, cones[:j] + cones[j + 1:] + overlap


def adversarial_cone_lists():
    rng = random.Random(2718)
    bases = [
        fan_data(make())
        for make in (
            fixtures.p2, fixtures.p1xp1, fixtures.f1, fixtures.weighted_p112,
            fixtures.bl2_p2, fixtures.bl3_p2, fixtures.p1_cubed, fixtures.bl1_p3,
        )
    ]
    bases += [star_fan_data(splits, seed) for splits, seed in ((2, 1), (4, 2))]
    bases += [polygon_fan_data(rng) for _ in range(6)]
    yield fan_data(fixtures.p1())
    for folded in (PENTAGRAM, FOLD):
        yield folded
        yield suspension(*folded)
    for base in bases:
        yield from perturbations(*base, rng)


def test_fan_diagnostics_match_all_lp_referee_on_adversarial_lists(monkeypatch):
    """Identical diagnostics and data on a glued double cover, a folded
    cover, holes, repeats and overlaps of valid fans; no LP on a complete
    simplicial fan."""
    calls = counting_solve_lp(monkeypatch)
    outcomes = set()
    for dim, rays, cones in adversarial_cone_lists():
        calls.clear()
        diags, fan = fan_diagnostics(dim, rays, cones)
        lps = len(calls)
        expected_diags, expected_data = all_lp_diagnostics(dim, rays, cones)
        assert diags == expected_diags, (dim, rays, cones)
        assert (None if fan is None else (fan.rays, fan.max_cones)) == expected_data
        if fan is not None and is_complete(fan) and is_simplicial(fan):
            assert lps == 0, (dim, rays, cones)
            outcomes.add(f"complete simplicial {dim}-D")
        else:
            outcomes.add("valid, not complete simplicial" if fan else "invalid")
        kinds = ("improper intersection", "duplicates cone")
        outcomes.update(kind for kind in kinds for d in diags if kind in d)
    assert outcomes == {
        "complete simplicial 1-D", "complete simplicial 2-D", "complete simplicial 3-D",
        "valid, not complete simplicial",
        "invalid", "improper intersection", "duplicates cone",
    }
    assert fan_diagnostics(*PENTAGRAM)[0] == [
        f"improper intersection of cone {a} and cone {b}"
        for a, b in ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    ]

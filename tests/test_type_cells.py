"""Type-cell tables against the arrangement referee, their laws and their budget.

A type cell is the set of divisors on which the sign of every
(n + 1) x (n + 1) minor of [V | d] is fixed; ``regions`` keeps each
cell's vertex classification, realized regions, region triangulations
and located chamber per fan, and solves a divisor's own vertices only
when a region asks.
"""

import random
from fractions import Fraction

import pytest

from arrangement_referees import (
    arrangement_vertices,
    divisor_vertices,
    filtered,
    realized_tables,
    sorted_apex_volume,
)
from generated_fans import polygon_fan_data, star_fan_data
from toricvol import fixtures, regions
from toricvol.asymptotics import hhat, self_intersection
from toricvol.cohomology import h_all
from toricvol.divisor import ray_divisor
from toricvol.errors import CapExceededError, ToricError
from toricvol.fan import is_complete, make_fan
from toricvol.gkz import ample_via_asymptotics, enumerate_maximal_chambers, locate_chamber
from toricvol.linalg import to_integers
from toricvol.regions import HalfOpenRegion, is_bounded_subset, normalized_volume, region, region_sum

EVERY_FIXTURE = (
    fixtures.p1, fixtures.p2, fixtures.p1xp1, fixtures.f1, fixtures.weighted_p112,
    fixtures.bl2_p2, fixtures.bl3_p2, fixtures.p1_cubed, fixtures.bl1_p3,
    fixtures.cube_fan, fixtures.quadrant_fan, fixtures.square_cone_fan,
)


def fresh(fan):
    """A new Fan on the same data, so that its per-fan memo starts empty."""
    return make_fan(fan.dim, fan.rays, fan.max_cones)


def referee_fans():
    """Every fixture, star_fan_data(1..6) and four random polygon fans, each with a fresh memo."""
    yield from (fresh(make()) for make in EVERY_FIXTURE)
    yield from (make_fan(*star_fan_data(s)) for s in range(1, 7))
    yield from (make_fan(*polygon_fan_data(random.Random(seed))) for seed in range(4))


def referee_divisors(fan, rng):
    """D = 0, each D_rho, the sum of all D_rho, and two seeded rational divisors."""
    k = len(fan.rays)
    yield (0,) * k
    yield from (ray_divisor(fan, rho) for rho in range(k))
    yield (1,) * k
    for _ in range(2):
        yield tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(k))


def slot_of(fan, d):
    coefficients, q = to_integers(d)
    return regions._divisor_slot(fan.rays, fan.dim, fan.memo, coefficients, q)


def solved_cell(slot):
    """The slot's cell with every vertex solved from its basis: {P: (above, tight)} in order."""
    return {slot.point(b): (above, tight) for b, above, tight in slot.cell.vertices}


def test_cell_tables_match_the_arrangement_referee():
    rng = random.Random(2025)
    fans = masks_checked = 0
    for fan in referee_fans():
        k = len(fan.rays)

        def bounded(mask):
            return is_bounded_subset(fan, [i for i in range(k) if mask >> i & 1])

        for d in referee_divisors(fan, rng):
            found, scale = divisor_vertices(fan, d)
            slot = slot_of(fan, d)
            assert list(solved_cell(slot).items()) == list(found.items()), (fan, d)
            assert slot.scale == scale
            expected = realized_tables(found, bounded)
            masks = regions._realized_masks(fan, slot)
            assert [mask for mask, *_ in masks] == list(expected), (fan, d)
            for mask, subset, vertices in masks:
                table = {slot.point(b): tight for b, _, tight in vertices}
                assert list(table.items()) == list(expected[mask].items()), (fan, d, mask)
                assert subset == frozenset(i for i in range(k) if mask >> i & 1)
                masks_checked += 1
        fans += 1
    assert fans == len(EVERY_FIXTURE) + 10 and masks_checked > 2000


def test_regions_off_the_fan_memo_match_the_referee():
    # A region on a subset of the rays with its own memo, as a nef
    # decomposition builds, and a hand-built region with the default memo,
    # which keeps nothing between calls.
    rng = random.Random(2026)
    checked = 0
    for make in (fixtures.p1xp1, fixtures.bl2_p2, fixtures.bl3_p2, fixtures.bl1_p3):
        fan = make()
        k = len(fan.rays)
        for left_out in range(k):
            normals = tuple(ray for i, ray in enumerate(fan.rays) if i != left_out)
            store = {}

            def memo(key, compute, store=store):
                if key not in store:
                    store[key] = compute()
                return store[key]

            weak = (True,) * (k - 1)
            for _ in range(4):
                levels = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in normals)
                for reg in (
                    HalfOpenRegion(normals, levels, weak, fan.dim, memo),
                    HalfOpenRegion(normals, levels, weak, fan.dim),
                ):
                    if not regions._is_bounded(reg.normals, reg.dim, reg.memo, (1 << (k - 1)) - 1):
                        continue
                    found, scale = arrangement_vertices(normals, fan.dim, memo, *to_integers(levels))
                    table = reg.vertex_table
                    assert list(table[0].items()) == list(filtered(found, (1 << (k - 1)) - 1).items())
                    assert table[1] == scale
                    checked += 1
        # Mixed weak sets with the default memo, on the fan's own rays.
        d = tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(k))
        levels = tuple(-c for c in d)
        found, scale = divisor_vertices(fan, d)
        for mask in range(1 << k):
            weak = tuple(bool(mask >> i & 1) for i in range(k))
            reg = HalfOpenRegion(fan.rays, levels, weak, fan.dim)
            if regions._is_bounded(reg.normals, reg.dim, reg.memo, mask):
                assert reg.vertex_table == (filtered(found, mask), scale)
                checked += 1
    assert checked > 60


def shift(fan, d, u):
    """d + div(chi^u)."""
    return tuple(c + sum(a * b for a, b in zip(u, ray)) for c, ray in zip(d, fan.rays))


def cell_key(fan, d):
    coefficients, q = to_integers(d)
    arrangement = regions._arrangement(fan.rays, fan.dim, fan.memo)
    return regions._cell_key(arrangement, [-x for x in coefficients])


def test_cell_key_is_invariant_under_linear_equivalence_and_positive_scaling():
    rng = random.Random(2027)
    fans = [fresh(make()) for make in EVERY_FIXTURE if is_complete(make())]
    fans += [make_fan(*star_fan_data(s)) for s in (1, 2, 3)]
    for fan in fans:
        k, n = len(fan.rays), fan.dim
        for _ in range(6):
            d = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(k))
            key = cell_key(fan, d)
            assert len(key) > 0
            u = [rng.randint(-4, 4) for _ in range(n)]
            assert cell_key(fan, shift(fan, d, u)) == key, (fan, d, u)
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert cell_key(fan, tuple(t * c for c in d)) == key, (fan, d, t)


def growth_divisors(rng, fans, chambers):
    """One cycle of the divisors a growth round hands to locate_chamber.

    Chamber samples, a chosen chamber's sample scaled and shifted, an
    ample class of the own chamber, and on bl1_p3 a near-anticanonical
    class and a random rational one.
    """
    for name, fan in fans.items():
        if fan.dim == 2:
            yield from ((name, ch.sample_divisor) for ch in chambers[name])
            own = [ch for ch in chambers[name] if set(ch.sigma_cones) == set(fan.max_cones)]
            for ch in [rng.choice(chambers[name])] + own:
                t = Fraction(rng.randint(3, 12), rng.choice((2, 3, 5)))
                u = [rng.randint(-3, 3) for _ in range(2)]
                yield name, shift(fan, tuple(t * c for c in ch.sample_divisor), u)
        else:
            t = Fraction(rng.randint(3, 12), rng.choice((2, 3, 5)))
            near = [t + Fraction(rng.randint(-1, 1), 10) for _ in fan.rays]
            yield name, shift(fan, near, [rng.randint(-3, 3) for _ in range(3)])
            yield name, tuple(Fraction(rng.randint(-12, 12), rng.choice((2, 3, 5))) for _ in fan.rays)


def outcome(function, *args):
    try:
        return function(*args)
    except ToricError as err:
        return type(err)


def test_warm_located_chambers_answer_like_cold_fans():
    fans = {
        make.__name__: fresh(make())
        for make in (
            fixtures.p2, fixtures.p1xp1, fixtures.f1, fixtures.weighted_p112,
            fixtures.bl2_p2, fixtures.bl1_p3,
        )
    }
    chambers = {name: enumerate_maximal_chambers(fan) for name, fan in fans.items() if fan.dim == 2}
    rng = random.Random(2028)
    divisors = 0
    for _ in range(20):
        for name, d in growth_divisors(rng, fans, chambers):
            fan = fans[name]
            assert outcome(locate_chamber, fan, d) == outcome(locate_chamber, fresh(fan), d), (name, d)
            divisors += 1
    cells = sum(
        len(regions._arrangement(fan.rays, fan.dim, fan.memo).cells) for fan in fans.values()
    )
    assert cells < divisors // 4


def test_a_repeated_ampleness_test_builds_no_cell(monkeypatch):
    fan = fresh(fixtures.bl2_p2())
    ample = (Fraction(3, 2),) * len(fan.rays)
    assert ample_via_asymptotics(fan, ample) is True
    built = []

    class Counted(regions._TypeCell):
        def __init__(self, vertices):
            built.append(vertices)
            super().__init__(vertices)

    monkeypatch.setattr(regions, "_TypeCell", Counted)
    assert ample_via_asymptotics(fan, ample) is True
    assert built == []
    assert ample_via_asymptotics(fan, shift(fan, ample, (2, -1))) is True
    assert built == []
    # A class the first call never probed builds its cells anew.
    assert ample_via_asymptotics(fresh(fan), ample) is True
    assert built


def kept_entries(arrangement):
    """The entries of the kept cells, counted from their keys and the cells themselves.

    A kept triangulation counts one entry per simplex, and one when it
    is empty (a region of lower dimension).
    """
    return sum(
        len(key)
        + len(cell.vertices)
        + (sum(len(entry[2]) for entry in cell.masks) if cell.masks else 0)
        + sum(max(len(simplices), 1) for simplices in cell.simplices.values())
        for key, cell in arrangement.cells.items()
    )


def test_a_tiny_cell_budget_changes_no_answer(monkeypatch):
    budget = 80
    monkeypatch.setattr(regions, "CELL_BUDGET", budget)
    fan = fresh(fixtures.bl3_p2())
    arrangement = regions._arrangement(fan.rays, fan.dim, fan.memo)
    rng = random.Random(2029)
    k = len(fan.rays)
    divisors = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(30)]
    divisors += [tuple(Fraction(rng.randint(-7, 7), 2) for _ in range(k)) for _ in range(10)]
    divisors += divisors[:10]  # cells met before, kept or not
    unkept = 0
    for d in divisors:
        expected = [outcome(f, fresh(fan), d) for f in (h_all, hhat, locate_chamber)]
        assert [outcome(f, fan, d) for f in (h_all, hhat, locate_chamber)] == expected, d
        assert kept_entries(arrangement) == arrangement.entries <= budget
        unkept += not slot_of(fan, d).cell.kept
    assert arrangement.cells and unkept > 10


def test_every_divisor_of_an_over_cap_cell_raises_and_is_never_stored():
    from test_cli import TRIPLES_21

    # D = 0 and the principal divisor of u share a cell: all 21 rays are
    # tight at one point, 2^21 candidate subsets.
    k = len(TRIPLES_21)
    fan = make_fan(2, [(a, b) for a, b, _ in TRIPLES_21], [{i, (i + 1) % k} for i in range(k)])
    zero = (0,) * k
    principal = shift(fan, zero, (1, -2))
    assert cell_key(fan, principal) == cell_key(fan, zero) and any(principal)
    for d in (zero, principal, zero, principal):
        with pytest.raises(CapExceededError, match="region sum needs 2097152 ray subsets"):
            h_all(fan, d)
        assert fan._memo.get("last_divisor", [None])[0] is None
    arrangement = regions._arrangement(fan.rays, fan.dim, fan.memo)
    assert len(arrangement.cells) == 1
    (cell,) = arrangement.cells.values()
    assert cell.masks is None and cell.visits == 1 << k


def wall_divisor(fan, rng):
    """A seeded rational divisor at which the value of the arrangement's first circuit is zero.

    The circuit's last row gets the level that makes <lam, L_S> vanish;
    None when the rays have no circuit.
    """
    arrangement = regions._arrangement(fan.rays, fan.dim, fan.memo)
    if not arrangement.circuits:
        return None
    get, lam = arrangement.circuits[0]
    indices = get(range(len(fan.rays)))
    levels = [Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in fan.rays]
    levels[indices[-1]] = sum(x * levels[i] for x, i in zip(lam, indices[:-1])) / -lam[-1]
    d = tuple(-x for x in levels)
    assert cell_key(fan, d)[0] == 0
    return d


def volume_divisors(fan, rng):
    """``referee_divisors``, a cell-wall divisor, and on 2-D fans and bl1_p3 every chamber sample."""
    yield from referee_divisors(fan, rng)
    wall = wall_divisor(fan, rng)
    if wall is not None:
        yield wall
    if fan.dim == 2 and is_complete(fan) or fan.rays == fixtures.bl1_p3().rays:
        yield from (ch.sample_divisor for ch in enumerate_maximal_chambers(fan, allow_dim3=True))


def refereed_volumes(fan, d):
    """Every realized region's volume of d by ``_slot_volume``, against its own region's.

    The kernel's volume must equal ``normalized_volume`` and
    ``sorted_apex_volume`` of the standalone region of the same subset.
    Returns (regions measured, regions whose triangulation the cell kept
    before they were measured).
    """
    measured, handed = [], []
    k = len(fan.rays)

    def measure(fan_, slot, mask, vertices):
        handed.append(mask in slot.cell.simplices)
        volume = regions._slot_volume(fan_, slot, mask, vertices)
        own = region(fan, d, [i for i in range(k) if mask >> i & 1])
        assert volume == normalized_volume(own) == sorted_apex_volume(own), (fan.rays, d, mask)
        measured.append(volume)
        return volume

    region_sum(fan, d, lambda subset: (1,), measure)
    return len(measured), sum(handed)


def test_cell_triangulations_match_the_sorted_apex_referee():
    # Each divisor, then a second divisor of its cell (scaled and
    # shifted), which reads the triangulations the first one kept.
    rng = random.Random(2030)
    fans = [fresh(make()) for make in EVERY_FIXTURE]
    fans += [make_fan(*star_fan_data(s)) for s in range(1, 5)]
    fans += [make_fan(*polygon_fan_data(random.Random(seed))) for seed in range(4)]
    measured = handed = 0
    for fan in fans:
        n = fan.dim
        for d in volume_divisors(fan, rng):
            first, _ = refereed_volumes(fan, d)
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            second = shift(fan, tuple(t * c for c in d), [rng.randint(-3, 3) for _ in range(n)])
            assert cell_key(fan, second) == cell_key(fan, d)
            count, kept = refereed_volumes(fan, second)
            assert count == first
            cell = slot_of(fan, d).cell
            if cell.kept:
                masks = regions._realized_masks(fan, slot_of(fan, d))
                assert kept == sum(mask in cell.simplices for mask, *_ in masks)
            measured += first
            handed += kept
    assert measured > 2000 and handed > measured // 2


def counted_affine_ranks(monkeypatch):
    """The point lists the package hands to ``linalg.affine_rank`` from now on."""
    from test_gkz import counting
    from toricvol import linalg

    ranks = []
    counting(monkeypatch, linalg, "affine_rank", ranks.append)
    return ranks


@pytest.mark.parametrize("make", [fixtures.bl2_p2, fixtures.bl3_p2, fixtures.bl1_p3, fixtures.p1_cubed])
def test_a_second_divisor_of_a_kept_cell_runs_no_affine_rank(monkeypatch, make):
    rng = random.Random(2031)
    fan = fresh(make())
    k, n = len(fan.rays), fan.dim
    d = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(k))
    second = shift(fan, tuple(3 * c for c in d), [rng.randint(-3, 3) for _ in range(n)])
    expected = [f(fresh(fan), x) for x in (d, second) for f in (hhat, self_intersection)]
    ranks = counted_affine_ranks(monkeypatch)
    assert [f(fan, d) for f in (hhat, self_intersection)] == expected[:2]
    assert ranks  # the first divisor of the cell triangulates its regions
    assert slot_of(fan, d).cell.kept and slot_of(fan, d).cell.simplices
    ranks.clear()
    assert [f(fan, second) for f in (hhat, self_intersection)] == expected[2:]
    assert ranks == []


def test_a_cell_past_the_budget_gives_the_same_volumes(monkeypatch):
    # With room for the cell's key, vertices and realized regions but for
    # only some of its triangulations, and with room for none of them,
    # every volume is the same and the entries stay counted.
    rng = random.Random(2032)
    fan = fresh(fixtures.bl3_p2())
    k = len(fan.rays)
    d = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(k))
    second = shift(fan, tuple(2 * c for c in d), (1, -1))
    expected = [f(fan, x) for x in (d, second) for f in (hhat, self_intersection)]
    arrangement = regions._arrangement(fan.rays, fan.dim, fan.memo)
    (cell,) = arrangement.cells.values()
    kept = sum(max(len(simplices), 1) for simplices in cell.simplices.values())
    assert len(cell.simplices) > 2 and kept_entries(arrangement) == arrangement.entries
    for budget, room in ((arrangement.entries - kept // 2, True), (0, False)):
        monkeypatch.setattr(regions, "CELL_BUDGET", budget)
        crowded = fresh(fan)
        assert [f(crowded, d) for f in (hhat, self_intersection)] == expected[:2]
        crowded_cell = slot_of(crowded, d).cell
        assert crowded_cell.kept == room
        assert (0 < len(crowded_cell.simplices) < len(cell.simplices)) == room
        ranks = counted_affine_ranks(monkeypatch)
        assert [f(crowded, second) for f in (hhat, self_intersection)] == expected[2:]
        assert ranks  # the second divisor triangulates what its cell could not keep
        crowded_arrangement = regions._arrangement(crowded.rays, crowded.dim, crowded.memo)
        assert kept_entries(crowded_arrangement) == crowded_arrangement.entries <= budget
        monkeypatch.undo()

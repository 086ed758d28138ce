"""Type-cell tables against the arrangement referee, their laws and their budget.

A type cell is the set of divisors on which the sign of every
(n + 1) x (n + 1) minor of [V | d] is fixed; ``regions`` keeps each
cell's vertex classification, realized regions, volume tables and
located chamber per fan, and solves a divisor's own vertices only when
a region asks.
"""

import gc
import math
import random
import weakref
from fractions import Fraction
from functools import partial

import pytest

from arrangement_referees import (
    arrangement_vertices,
    divisor_vertices,
    filtered,
    lowered_divisor,
    pulling_volume,
    realized_tables,
    sorted_apex_volume,
    weighted_volumes,
)
from generated_fans import polygon_fan_data, star_fan_data
from test_dim4 import p1_x_p3, p4
from test_gkz import STAR5_WALL
from test_region_sum import COMPLETE_FIXTURES, compare_with_sweep, poly12
from toricvol import asymptotics, fixtures, gkz, regions
from toricvol.asymptotics import hhat, self_intersection
from toricvol.cohomology import _euler_weight, euler_char, h_all
from toricvol.divisor import ray_divisor
from toricvol.errors import NotQCartierError, ToricError
from toricvol.fan import is_complete, make_fan
from toricvol.gkz import ample_via_asymptotics, enumerate_maximal_chambers, locate_chamber
from toricvol.homology import local_cohomology_ranks
from toricvol.linalg import to_integers
from toricvol.regions import (
    HalfOpenRegion,
    closure_vertices,
    is_bounded_subset,
    lattice_count,
    normalized_volume,
    region,
)

EVERY_FIXTURE = (
    fixtures.p1, fixtures.p2, fixtures.p1xp1, fixtures.f1, fixtures.weighted_p112,
    fixtures.bl2_p2, fixtures.bl3_p2, fixtures.p1_cubed, fixtures.bl1_p3,
    fixtures.cube_fan, fixtures.quadrant_fan, fixtures.square_cone_fan,
)


def fresh(fan):
    """A new Fan on the same data, so that its per-fan memo starts empty."""
    return make_fan(fan.dim, fan.rays, fan.max_cones)


def star_fan(splits):
    return make_fan(*star_fan_data(splits))


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


def held(fan):
    """The held (key, slot, entries) of the fan's arrangement (``regions._held_slot``), or None."""
    return regions._arrangement(fan.rays, fan.dim, fan.memo).held


def slot_of(fan, d):
    coefficients, q = to_integers(d)
    return regions._divisor_slot(regions._arrangement(fan.rays, fan.dim, fan.memo), coefficients, q)


def solved_cell(slot):
    """The slot's cell with every vertex solved from its basis: {P: (above, tight)} in order."""
    vertices = regions._cell_vertices(slot.arrangement, slot.cell)
    return {slot.point(b): (above, tight) for b, above, tight in vertices}


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
            # The realized table is the lowered levels' simple cell: each
            # basis a vertex tight on its own rows, classified as the
            # referee classifies it at a concrete small eps.
            lowered, _ = divisor_vertices(fan, lowered_divisor(fan, d))
            simple = regions._simple_cell(slot.arrangement, slot.cell)
            vertices = regions._cell_vertices(slot.arrangement, simple)
            assert [(above, tight) for _, above, tight in vertices] == list(lowered.values())
            expected = realized_tables(lowered, bounded)
            masks = regions._realized_masks(slot)
            assert [mask for mask, *_ in masks] == list(expected), (fan, d)
            for mask, subset, vertices in masks:
                assert [basis for _, _, basis in vertices] == list(expected[mask].values()), (fan, d, mask)
                assert subset == frozenset(i for i in range(k) if mask >> i & 1)
                masks_checked += 1
        fans += 1
    assert fans == len(EVERY_FIXTURE) + 10 and masks_checked > 2000


def test_regions_off_the_fan_memo_match_the_referee():
    # A region on a subset of the rays with its own memo, as a nef
    # decomposition builds, and a hand-built region with the default memo,
    # a memo of the region's own.
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
                    if not regions._is_bounded(reg.slot.arrangement, (1 << (k - 1)) - 1):
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
            if regions._is_bounded(reg.slot.arrangement, mask):
                assert reg.vertex_table == (filtered(found, mask), scale)
                checked += 1
    assert checked > 60


def test_a_hand_built_region_builds_its_arrangement_once_and_is_freed(monkeypatch):
    builds = []
    arrangement = regions._Arrangement

    class Counted(arrangement):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(regions, "_Arrangement", Counted)
    fan = fixtures.bl2_p2()
    levels = (Fraction(-3, 2), -1, -2, Fraction(-1, 2), -1)
    reg = HalfOpenRegion(fan.rays, levels, (True,) * len(fan.rays), fan.dim)
    volume = normalized_volume(reg)
    assert normalized_volume(reg) == volume and reg.vertex_table
    assert len(builds) == 1
    # Another region object keeps a memo of its own.
    assert normalized_volume(HalfOpenRegion(fan.rays, levels, reg.weak, fan.dim)) == volume
    assert len(builds) == 2
    # Nothing the memo holds points back at the region, so reference
    # counting alone frees it.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        alive = weakref.ref(reg)
        del reg
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()


def test_a_standalone_region_keys_its_type_cell_once(monkeypatch):
    # One slot per region object, read by its vertex table and its
    # volume: three volumes, a count and the vertices key its cell once,
    # with the region's own memo or a fan's that holds another divisor.
    keys = []
    cell_key_of = regions._cell_key
    monkeypatch.setattr(regions, "_cell_key", lambda *args: keys.append(args) or cell_key_of(*args))
    fan = fresh(fixtures.bl2_p2())
    h_all(fan, (1,) * len(fan.rays))
    levels = (Fraction(-3, 2), -1, -2, Fraction(-1, 2), -1)
    weak = (True,) * len(fan.rays)
    for reg in (HalfOpenRegion(fan.rays, levels, weak, fan.dim), region(fan, [-x for x in levels], range(5))):
        keys.clear()
        volume = normalized_volume(reg)
        assert normalized_volume(reg) == normalized_volume(reg) == volume > 0
        assert lattice_count(reg) > 0 and closure_vertices(reg).vertices
        assert len(keys) == 1


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
        def __init__(self, key):
            built.append(key)
            super().__init__(key)

    monkeypatch.setattr(regions, "_TypeCell", Counted)
    assert ample_via_asymptotics(fan, ample) is True
    assert built == []
    assert ample_via_asymptotics(fan, shift(fan, ample, (2, -1))) is True
    assert built == []
    # A class the first call never probed builds its cells anew.
    assert ample_via_asymptotics(fresh(fan), ample) is True
    assert built


def test_ampleness_work_pins(monkeypatch):
    # Clock-free counts: a repeated open-cell call keys and builds no
    # cell, a new class of a kept ample cell keys its cell once, and the
    # wall class of star_fan_data(5) sums its rates at 1 + 2k classes.
    keys, built, rates = [], [], []
    cell_key_of, cleared_rates = regions._cell_key, gkz._cleared_rates

    class Counted(regions._TypeCell):
        def __init__(self, key):
            built.append(key)
            super().__init__(key)

    monkeypatch.setattr(regions, "_cell_key", lambda *args: keys.append(args) or cell_key_of(*args))
    monkeypatch.setattr(regions, "_TypeCell", Counted)
    monkeypatch.setattr(gkz, "_cleared_rates", lambda *args: rates.append(args) or cleared_rates(*args))

    def counts(fan, d):
        keys.clear(), built.clear(), rates.clear()
        assert ample_via_asymptotics(fan, d) is True
        return len(keys), len(built), len(rates)

    fan = fresh(fixtures.bl2_p2())
    ample = (3, 3, 3, 2, 2)
    assert counts(fan, ample) == (1, 1, 0)
    assert counts(fan, ample) == (0, 0, 0)
    assert counts(fan, shift(fan, tuple(2 * c for c in ample), (1, -1))) == (1, 0, 0)
    star = make_fan(*star_fan_data(5))
    k = len(star.rays)
    assert counts(star, STAR5_WALL)[::2] == (1 + 2 * k, 1 + 2 * k)


def test_ampleness_leaves_the_class_slot_held(monkeypatch):
    # The probes are keyed without replacing the slot, so a later
    # question about the class computes no circuit sign.
    fan = fresh(fixtures.bl2_p2())
    ample = (Fraction(3, 2),) * len(fan.rays)
    assert ample_via_asymptotics(fan, ample) is True
    coefficients, q = to_integers(ample)
    assert held(fan)[0] == (tuple(coefficients), q)
    keys = []
    cell_key_of = regions._cell_key
    monkeypatch.setattr(regions, "_cell_key", lambda *args: keys.append(args) or cell_key_of(*args))
    assert hhat(fresh(fan), ample) == hhat(fan, ample)
    assert len(keys) == 1  # the fresh fan's alone
    assert ample_via_asymptotics(fan, ample) is True
    assert held(fan)[0] == (tuple(coefficients), q)


def cell_entries(cell):
    """The entries a cell holds, counted from the cell itself.

    One per circuit sign of its key, one per vertex it has classified,
    one per (region, vertex) incidence of its realized table, one per
    facet row and one per vertex of each count plan, one per breakpoint
    of each plan that has built them, one per weighted entry, one per row of each volume table column and
    one for a located chamber.
    """
    return (
        len(cell.key)
        + len(cell.vertices or ())
        + (sum(len(entry[2]) for entry in cell.masks) if cell.masks else 0)
        + sum(len(plan.facets) + len(plan.corners) + len(plan.breaks or ()) for plan in cell.plans.values())
        + sum(len(entries) for _, entries in cell.weighted.values())
        + table_entries(cell)
        + (cell.chamber is not None)
    )


def kept_entries(arrangement):
    """The entries of the kept cells, each cell counted whole (``cell_entries``)."""
    return sum(map(cell_entries, arrangement.cells.values()))


def is_kept(arrangement, cell):
    return arrangement.cells.get(cell.key) is cell


def table_entries(cell):
    """The rows of every volume table column the cell keeps."""
    return sum(len(column) for columns in cell.columns.values() for column in columns)


def tiny_budget_run(fan, budget, divisors):
    """Answer every divisor under ``budget`` against a fresh fan, checking the bound after each.

    Returns (unkept, remet, breaks): the divisors whose cell was not kept
    after their question, the repeated divisors whose cell had been
    evicted and built again, and whether a kept plan had breakpoints.
    """
    arrangement = regions._arrangement(fan.rays, fan.dim, fan.memo)
    functions = (h_all, hhat, locate_chamber)
    unkept = remet = 0
    breaks = False
    first = {}
    for d in divisors:
        expected = [outcome(f, fresh(fan), d) for f in functions]
        answers = [outcome(f, fan, d) for f in functions]
        assert answers == expected, d
        assert kept_entries(arrangement) == arrangement.entries <= budget
        assert all(cell.size == cell_entries(cell) for cell in arrangement.cells.values())
        breaks |= any(plan.breaks for cell in arrangement.cells.values() for plan in cell.plans.values())
        cell = slot_of(fan, d).cell
        unkept += not is_kept(arrangement, cell)
        if d in first:
            # A cell evicted since its first divisor is built again and answers the same.
            first_answers, first_cell = first[d]
            if cell is not first_cell:
                remet += 1
                assert answers == first_answers, d
        else:
            first[d] = answers, cell
    assert arrangement.cells
    return unkept, remet, breaks


def test_a_tiny_cell_budget_changes_no_answer(monkeypatch):
    budget = 120
    monkeypatch.setattr(regions, "CELL_BUDGET", budget)
    fan = fresh(fixtures.bl3_p2())
    rng = random.Random(2029)
    k = len(fan.rays)
    divisors = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(30)]
    divisors += [tuple(Fraction(rng.randint(-7, 7), 2) for _ in range(k)) for _ in range(10)]
    divisors += divisors[:10]  # cells met before, kept or evicted since
    unkept, remet, _ = tiny_budget_run(fan, budget, divisors)
    assert unkept > 10 and remet > 5
    # A 3-D fan, whose count plans keep breakpoints, under a bound that
    # some of its cells outgrow: wide divisors take the slab path.
    budget = 48
    monkeypatch.setattr(regions, "CELL_BUDGET", budget)
    fan = fresh(fixtures.bl1_p3())
    k = len(fan.rays)
    divisors = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(20)]
    divisors += [tuple(rng.randint(-40, 40) for _ in range(k)) for _ in range(10)]
    divisors += [(rng.randint(20, 60),) * k for _ in range(5)]
    divisors += divisors[:10] + divisors[20:30]
    unkept, remet, breaks = tiny_budget_run(fan, budget, divisors)
    assert breaks and unkept > 5 and remet > 5, (unkept, remet)


def test_every_divisor_of_the_21_ray_origin_cell_answers_and_is_stored():
    from test_cli import TRIPLES_21

    # D = 0 and the principal divisor of u share a cell: all 21 rays are
    # tight at one point, which had 2^21 candidate subsets.  The lowered
    # simple cell has one vertex per basis and at most 2^n candidates at
    # each, and both divisors answer like O_X.
    k = len(TRIPLES_21)
    fan = make_fan(2, [(a, b) for a, b, _ in TRIPLES_21], [{i, (i + 1) % k} for i in range(k)])
    zero = (0,) * k
    principal = shift(fan, zero, (1, -2))
    assert cell_key(fan, principal) == cell_key(fan, zero) and any(principal)
    for d in (zero, principal, zero, principal):
        assert h_all(fan, d) == (1, 0, 0)
        coefficients, q = to_integers(d)
        assert held(fan)[0] == (tuple(coefficients), q)
    # The origin cell and its simple cell, 1330 circuit signs each, are
    # both kept, each under its own key: the simple cell holds the table.
    arrangement = regions._arrangement(fan.rays, fan.dim, fan.memo)
    slot = held(fan)[1]
    simple = regions._simple_cell(arrangement, slot.cell)
    assert list(arrangement.cells.values()) == [slot.cell, simple]
    assert 0 in slot.cell.key and 0 not in simple.key and is_kept(arrangement, simple)
    # Region sums classify only the simple cell; the origin cell's one
    # vertex is classified when a closure table asks.
    assert slot.cell.vertices is None and len(simple.vertices) == len(arrangement.bases)
    assert len(regions._cell_vertices(arrangement, slot.cell)) == 1
    masks = regions._realized_masks(slot)
    assert slot.cell.masks is None and simple.masks is masks
    assert 0 < len(masks) <= len(arrangement.bases) * 2**fan.dim
    assert kept_entries(arrangement) == arrangement.entries <= regions.CELL_BUDGET


def test_a_second_principal_divisor_of_the_21_ray_origin_builds_no_cell(monkeypatch):
    from test_cli import TRIPLES_21

    # The origin cell and its simple cell are kept under their own keys,
    # so a new principal divisor builds no cell.
    k = len(TRIPLES_21)
    fan = make_fan(2, [(a, b) for a, b, _ in TRIPLES_21], [{i, (i + 1) % k} for i in range(k)])
    zero = (0,) * k
    assert h_all(fan, shift(fan, zero, (1, -2))) == (1, 0, 0)
    built = []
    cell_type = regions._TypeCell

    class Counted(cell_type):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(regions, "_TypeCell", Counted)
    for u in ((2, 3), (-1, 4)):
        assert h_all(fan, shift(fan, zero, u)) == (1, 0, 0) and euler_char(fan, shift(fan, zero, u)) == 1
    assert built == []


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
    """Two seeded rational divisors, D = 0, +-sum D_rho, -2 sum D_rho, (2, 0, ..), (-3, 0, ..)
    and a cell wall; on fans of at most 8 rays each D_rho too, and on 2-D fans and bl1_p3
    every chamber sample."""
    k = len(fan.rays)
    for _ in range(2):
        yield tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(k))
    yield from ((0,) * k, (1,) * k, (-1,) * k, (-2,) * k)
    yield from ((c,) + (0,) * (k - 1) for c in (2, -3))
    if k <= 8:
        yield from (ray_divisor(fan, rho) for rho in range(k))
    wall = wall_divisor(fan, rng)
    if wall is not None:
        yield wall
    if fan.dim == 2 and is_complete(fan) or fan.rays == fixtures.bl1_p3().rays:
        yield from (ch.sample_divisor for ch in enumerate_maximal_chambers(fan, allow_dim3=True))


def table_fans():
    """Every fixture, P^4, P^1 x P^3, star_fan_data(1..6) and four polygon fans, each fresh."""
    yield from (fresh(make()) for make in EVERY_FIXTURE)
    yield from (p4(), p1_x_p3())
    yield from (make_fan(*star_fan_data(s)) for s in range(1, 7))
    yield from (make_fan(*polygon_fan_data(random.Random(seed))) for seed in range(4))


def euler_weights(fan):
    return lambda subset: (_euler_weight(fan, subset),)


def built_tables(monkeypatch):
    """The volume tables the package builds from now on, one entry per build.

    A build is a ``_lawrence_columns`` call whose slot's cell keeps no
    table for its weight.
    """
    builds = []
    columns = regions._lawrence_columns

    def counted(fan, slot, weight):
        if weight not in slot.cell.columns:
            builds.append(fan)
        return columns(fan, slot, weight)

    monkeypatch.setattr(regions, "_lawrence_columns", counted)
    return builds


def test_cell_triangulations_match_the_sorted_apex_referee(monkeypatch):
    # hhat and self_intersection against the pulling triangulation of
    # every realized bounded region, and each such standalone region's
    # Lawrence volume against both triangulation referees.  Unrealized
    # bounded regions are empty, with volume zero.  Then a second
    # divisor of the cell (scaled and shifted) reads the kept tables.
    rng = random.Random(2030)
    regions_checked = cases = reread = 0
    for fan in table_fans():
        k, n = len(fan.rays), fan.dim

        def bounded(mask, fan=fan):
            return is_bounded_subset(fan, [i for i in range(k) if mask >> i & 1])

        def ranks(subset, fan=fan):
            return local_cohomology_ranks(fan, subset)

        for d in volume_divisors(fan, rng):
            complete = is_complete(fan)
            if complete:
                hhat(fan, d)  # holds d's slot, whose cell the standalone regions then read
            found, _ = divisor_vertices(fan, d)
            for mask in realized_tables(found, bounded):
                own = region(fan, d, [i for i in range(k) if mask >> i & 1])
                volume = normalized_volume(own)
                assert volume == pulling_volume(own) == sorted_apex_volume(own), (fan.rays, d, mask)
                regions_checked += 1
            if not complete:
                continue
            expected = weighted_volumes(fan, d, ranks, pulling_volume)
            selfint = outcome(self_intersection, fan, d)
            if selfint is not NotQCartierError:
                assert selfint == weighted_volumes(fan, d, euler_weights(fan), pulling_volume)[0]
            assert hhat(fan, d) == expected, (fan.rays, d)
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            second = shift(fan, tuple(t * c for c in d), [rng.randint(-3, 3) for _ in range(n)])
            assert cell_key(fan, second) == cell_key(fan, d)
            cell = slot_of(fan, d).cell
            # The tables the budget did not keep are built again.
            weights = [asymptotics._local_ranks]
            if selfint is not NotQCartierError:
                weights.append(asymptotics._euler_weights)
            missing = len([w for w in weights if w not in cell.columns])
            with monkeypatch.context() as patch:
                builds = built_tables(patch)
                assert hhat(fan, second) == tuple(t**n * x for x in expected), (fan.rays, second)
                if selfint is not NotQCartierError:
                    assert self_intersection(fan, second) == t**n * selfint
            assert len(builds) == missing, (fan.rays, d)
            reread += not missing
            cases += 1
    assert regions_checked > 2000 and cases > 150 and reread > cases // 2


@pytest.mark.parametrize("make", [fixtures.bl2_p2, fixtures.bl3_p2, fixtures.bl1_p3, fixtures.p1_cubed])
def test_a_second_divisor_of_a_kept_cell_builds_no_table_and_solves_no_vertex(monkeypatch, make):
    rng = random.Random(2031)
    fan = fresh(make())
    k, n = len(fan.rays), fan.dim
    d = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(k))
    second = shift(fan, tuple(3 * c for c in d), [rng.randint(-3, 3) for _ in range(n)])
    expected = [f(fresh(fan), x) for x in (d, second) for f in (hhat, self_intersection)]
    solves = []
    point = regions._DivisorSlot.point
    monkeypatch.setattr(regions._DivisorSlot, "point", lambda slot, b: solves.append(b) or point(slot, b))
    builds = built_tables(monkeypatch)
    assert [f(fan, d) for f in (hhat, self_intersection)] == expected[:2]
    assert len(builds) == 2  # the first divisor of the cell builds its rank and Euler tables
    cell = slot_of(fan, d).cell
    assert is_kept(regions._arrangement(fan.rays, fan.dim, fan.memo), cell)
    assert len(cell.columns) == 2 and table_entries(cell)
    builds.clear()
    assert [f(fan, second) for f in (hhat, self_intersection)] == expected[2:]
    assert builds == [] and solves == []


def test_a_cell_past_the_budget_gives_the_same_volumes(monkeypatch):
    # A bound that holds the cell with both its tables keeps it, and a
    # second divisor of the cell builds nothing.  One entry less, and
    # the cell outgrows the whole bound with its Euler table: it serves
    # its divisor but is not kept, so the second divisor builds both
    # tables again.  A bound of 0 keeps nothing.  Every volume is the
    # same and the kept entries stay counted.
    rng = random.Random(2032)
    fan = fresh(fixtures.bl3_p2())
    k = len(fan.rays)
    d = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(k))
    second = shift(fan, tuple(2 * c for c in d), (1, -1))
    expected = [f(fan, x) for x in (d, second) for f in (hhat, self_intersection)]
    arrangement = regions._arrangement(fan.rays, fan.dim, fan.memo)
    (cell,) = arrangement.cells.values()
    entries = arrangement.entries
    assert len(cell.columns) == 2 and kept_entries(arrangement) == entries == cell.size
    for budget, kept in ((entries, True), (entries - 1, False), (0, False)):
        monkeypatch.setattr(regions, "CELL_BUDGET", budget)
        crowded = fresh(fan)
        crowded_arrangement = regions._arrangement(crowded.rays, crowded.dim, crowded.memo)
        assert [f(crowded, d) for f in (hhat, self_intersection)] == expected[:2]
        crowded_cell = slot_of(crowded, d).cell
        assert is_kept(crowded_arrangement, crowded_cell) == kept
        assert len(crowded_cell.columns) == 2
        builds = built_tables(monkeypatch)
        assert [f(crowded, second) for f in (hhat, self_intersection)] == expected[2:]
        assert len(builds) == (0 if kept else 2)  # a cell not kept is built again, tables and all
        assert kept_entries(crowded_arrangement) == crowded_arrangement.entries <= budget
        monkeypatch.undo()


def degenerate_divisors(fan, rng):
    """D = 0, +-sum D_rho, -2 sum D_rho, two principal divisors and a cell wall."""
    k, n = len(fan.rays), fan.dim
    yield (0,) * k
    yield from ((c,) * k for c in (1, -1, -2))
    for _ in range(2):
        yield shift(fan, (0,) * k, [rng.randint(-3, 3) for _ in range(n)])
    wall = wall_divisor(fan, rng)
    if wall is not None:
        yield wall


@pytest.mark.parametrize(
    "make",
    COMPLETE_FIXTURES + (poly12,) + tuple(partial(star_fan, s) for s in range(1, 5)),
    ids=lambda make: getattr(make, "__name__", None) or f"star{make.args[0]}",
)
def test_degenerate_divisors_count_like_the_sweep(monkeypatch, make):
    # Many rows meet at one vertex of these divisors; the counts read the
    # lowered simple cell, the sweep measures every bounded subset's
    # region at the divisor itself, counted on its own vertex scan
    # (``arrangement_referees.own_plan_count``).
    fan = fresh(make())
    rng = random.Random(2033 + len(fan.rays))
    walls = 0
    for d in degenerate_divisors(fan, rng):
        walls += 0 in cell_key(fan, d)
        compare_with_sweep(monkeypatch, fan, d, (h_all, euler_char))
    assert walls >= 4


# poly12 with (-2, 1), (-1, -2), (1, -2), (-2, -1), in angular order.
POLY16_RAYS = (
    (1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1),
    (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -2), (1, -1), (2, -1),
)


def test_a_cold_origin_of_poly16_decides_few_candidates(monkeypatch):
    # At D = 0 all 16 rays are tight at the origin, where the 2^16
    # subsets around it cost seconds.  The lowered simple cell has one
    # vertex per basis, C(16, 2) of them, and 4 candidate masks at each;
    # each realized region with a nonzero rank vector is counted once.
    k = len(POLY16_RAYS)
    fan = make_fan(2, POLY16_RAYS, [{i, (i + 1) % k} for i in range(k)])
    assert is_complete(fan)
    # The fan's arrangement decides each mask once, with ``_bounded_mask``.
    decided, counted = [], []
    decide, count = regions._bounded_mask, regions._lattice_count
    monkeypatch.setattr(regions, "_bounded_mask", lambda *args: decided.append(args[-1]) or decide(*args))
    monkeypatch.setattr(regions, "_lattice_count", lambda *args: counted.append(args) or count(*args))
    # O_X has h^0 = 1 and no higher cohomology on a complete toric
    # variety (Demazure vanishing), so chi = 1.
    zero = (0,) * k
    assert h_all(fan, zero) == (1, 0, 0) and euler_char(fan, zero) == 1
    assert len(decided) == len(set(decided)) <= math.comb(k, 2) * 4
    # 129 distinct candidate masks; 37 realized regions have a nonzero
    # rank vector, each counted once for both questions.
    assert (len(decided), len(counted)) == (129, 37)

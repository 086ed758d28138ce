"""The one lattice-count core against a plain point scan, and its work pins.

Every region a region sum counts is counted by ``regions._slot_count``
on the count plan of its mask: the facet rows of the mask's table entry
on the lowered simple cell, oriented and split once.  A standalone
region's ``lattice_count`` and ``lattice_points`` read the same entry.
The referee here enumerates every integer point of the region's closure
box, found by the arrangement referee's own vertex pass, and tests it
against all k rows of the divisor in integers; it shares no code with
the core.  A box referee solves every vertex of a mask's entry in
Fractions and checks the plan's box, read off two vertices per axis,
against their range.  The work pins are deterministic counts, with no
clock.
"""

import math
import random
from fractions import Fraction
from functools import partial
from itertools import product
from types import SimpleNamespace

import pytest

import fraction_linalg
from arrangement_referees import divisor_vertices, filtered, pulling_volume
from generated_fans import star_fan_data
from test_region_sum import COMPLETE_FIXTURES, fresh, poly12
from test_type_cells import cell_key, shift, wall_divisor
from toricvol import fixtures, regions
from toricvol.cohomology import cech_oracle, euler_char, h_all
from toricvol.fan import make_fan
from toricvol.linalg import to_integers
from toricvol.regions import (
    bounded_subsets, closure_vertices, ehrhart_probe, lattice_count, lattice_points, normalized_volume, region
)


def star_fan(splits, dim=3):
    return make_fan(*star_fan_data(splits, dim=dim))


def referee_divisors(fan, rng):
    """Two seeded rational divisors, D = 0, +-sum D_rho, a principal divisor and a cell wall."""
    k, n = len(fan.rays), fan.dim
    for _ in range(2):
        yield tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(k))
    yield from ((c,) * k for c in (0, 1, -1))
    yield shift(fan, (0,) * k, [rng.randint(-3, 3) for _ in range(n)])
    wall = wall_divisor(fan, rng)
    if wall is not None:
        yield wall


def closure_box(closure, scale):
    """The integer ranges of every coordinate of the closure's vertices P / ``scale``."""
    return [
        range(math.ceil(Fraction(min(column), scale)), math.floor(Fraction(max(column), scale)) + 1)
        for column in zip(*closure)
    ]


def plain_points(fan, d, mask, closure, scale):
    """The lattice points of the mask's region, in lexicographic order: the closure's box against all k rows.

    ``closure`` holds the closure's vertices P, each P / ``scale``.  With
    d = c / q a point m lies in the region when q <v_i, m> + c_i >= 0 on
    the weak rows and < 0 on the others.  An empty closure holds none.
    """
    if not closure:
        return []
    coefficients, q = to_integers(d)
    points = []
    for point in product(*closure_box(closure, scale)):
        for i, (ray, c) in enumerate(zip(fan.rays, coefficients)):
            value = q * sum(a * x for a, x in zip(ray, point)) + c
            if (value < 0) if mask >> i & 1 else (value >= 0):
                break
        else:
            points.append(point)
    return points



def lattice_vertex_rows(mask, closure, scale):
    """The strict rows tight at exactly one vertex of the closure, that vertex a lattice point."""
    rows = set()
    strict_tight = [(point, tight & ~mask) for point, tight in closure.items()]
    for point, tight in strict_tight:
        if all(x % scale == 0 for x in point):
            for i in range(tight.bit_length()):
                if tight >> i & 1 and sum(t >> i & 1 for _, t in strict_tight) == 1:
                    rows.add(i)
    return rows


def test_the_count_core_matches_a_plain_point_scan():
    # Each realized mask of each divisor's simple-cell table is counted
    # by the core on its plan and by the plain scan of its closure box.
    # A strict row tight at a single lattice vertex of the closure cuts
    # that vertex off; a plan that dropped it would count the vertex.
    makes = COMPLETE_FIXTURES + (poly12, partial(star_fan, 2, dim=4))
    makes += tuple(partial(star_fan, s) for s in range(1, 5))
    masks = cut = 0
    for make in makes:
        fan = fresh(make())
        rng = random.Random(2035 + len(fan.rays))
        divisors = list(referee_divisors(fan, rng))
        assert len(divisors) == 7
        for d in divisors:
            found, scale = divisor_vertices(fan, d)
            slot = regions._divisor_slot(regions._arrangement(fan.rays, fan.dim, fan.memo), *to_integers(d))
            table = regions._realized_masks(slot)
            assert table, (fan.rays, d)
            for mask, _, vertices in table:
                closure = filtered(found, mask)
                expected = len(plain_points(fan, d, mask, closure, scale))
                assert regions._slot_count(slot, mask, vertices) == expected, (fan.rays, d, mask)
                masks += 1
                cut += bool(lattice_vertex_rows(mask, closure, scale))
    assert masks > 800 and cut > 350


def test_standalone_measures_on_cell_walls_match_the_plain_scan():
    # Every bounded subset, at divisors where many rows meet at a vertex
    # or a circuit value is zero.  A standalone measure reads its mask's
    # entry in the lowered table, or finds none; the referee scans the
    # closure box of its own vertex pass and pulls the closure's volume.
    # The entry's vertices are closure vertices, so its corner box lies
    # inside the closure's box and the fiber cap refuses no region more.
    makes = (*(partial(star_fan, s) for s in range(1, 5)), poly12, fixtures.cube_fan)
    makes += (partial(star_fan, 0, dim=4), partial(star_fan, 2, dim=4))
    checked = points_seen = entries = 0
    for make in makes:
        fan = fresh(make())
        n = fan.dim
        for d in list(referee_divisors(fan, random.Random(2042 + len(fan.rays))))[2:]:
            found, scale = divisor_vertices(fan, d)
            for subset in bounded_subsets(fan):
                mask = sum(1 << i for i in subset)
                closure = filtered(found, mask)
                expected = plain_points(fan, d, mask, closure, scale)
                reg = region(fan, d, subset)
                assert lattice_count(reg) == len(expected), (fan.rays, d, mask)
                assert lattice_points(reg) == expected, (fan.rays, d, mask)
                volume = pulling_volume(SimpleNamespace(vertex_table=(closure, scale), dim=n))
                assert normalized_volume(reg) == volume, (fan.rays, d, mask)
                assert closure_vertices(reg).vertices == tuple(sorted(
                    tuple(Fraction(x, scale) for x in point) for point in closure
                ))
                slot, _, vertices = regions._region_entry(reg)
                if vertices is not None:
                    box = closure_box(closure, scale)[: n - 1]
                    corners = regions._slot_plan(slot, mask, vertices)[1]
                    assert all(b.start <= c.start and c.stop <= b.stop for b, c in zip(box, corners))
                    entries += 1
                checked += 1
                points_seen += len(expected)
    assert checked > 20000 and entries > 400 and points_seen > 1500, (checked, entries, points_seen)


def test_a_plans_box_is_the_range_of_every_vertex_of_its_entry():
    # The box of a realized mask is read off two vertices per axis, the
    # least and the greatest, chosen from the signs of their basis
    # inverses alone (``_cell_plan``).  Here every vertex of the entry is
    # solved in Fractions, at the divisor's own levels, and the box must
    # be the range of their first n - 1 coordinates, at D = 0, on cell
    # walls and at rational divisors alike.
    makes = (*(partial(star_fan, s) for s in range(1, 5)), poly12, fixtures.cube_fan)
    makes += (partial(star_fan, 0, dim=4), partial(star_fan, 2, dim=4))
    boxes = 0
    for make in makes:
        fan = fresh(make())
        n = fan.dim
        for d in referee_divisors(fan, random.Random(2048 + len(fan.rays))):
            slot = regions._divisor_slot(regions._arrangement(fan.rays, fan.dim, fan.memo), *to_integers(d))
            for mask, _, vertices in regions._realized_masks(slot):
                plan, box = regions._slot_plan(slot, mask, vertices)
                assert len(plan.ends) == n - 1 and all(len(pair) == 2 for pair in plan.ends)
                points = []
                for b, _, _ in vertices:
                    combo = slot.arrangement.bases[b][0]
                    points.append(fraction_linalg.solve([fan.rays[i] for i in combo], [-d[i] for i in combo]))
                expected = [
                    range(math.ceil(min(column)), math.floor(max(column)) + 1)
                    for column in list(zip(*points))[: n - 1]
                ]
                assert box == expected, (fan.rays, d, mask)
                boxes += 1
    assert boxes > 700, boxes


def test_the_referee_divisors_reach_every_kind():
    # D = 0 and the principal divisor put every ray through one lattice
    # vertex, and the wall divisor has a zero circuit sign, so each
    # needs the lowered simple cell.
    for make in (fixtures.bl2_p2, poly12, partial(star_fan, 3)):
        fan = fresh(make())
        divisors = list(referee_divisors(fan, random.Random(7)))
        assert len(divisors) == 7 and any(divisors[5])
        assert all(0 in cell_key(fan, divisors[i]) for i in (2, 5, 6))


def counting(monkeypatch, name):
    """Record every call of the regions function ``name`` from now on."""
    calls = []
    function = getattr(regions, name)

    def call(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(regions, name, call)
    return calls


@pytest.mark.parametrize("make", (fixtures.bl3_p2, fixtures.bl1_p3), ids=lambda make: make.__name__)
def test_a_second_divisor_of_a_kept_cell_builds_no_plan(monkeypatch, make):
    fan = fresh(make())
    rng = random.Random(2036)
    k, n = len(fan.rays), fan.dim
    d = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(k))
    second = shift(fan, tuple(2 * c for c in d), [rng.randint(-3, 3) for _ in range(n)])
    assert cell_key(fan, second) == cell_key(fan, d)
    expected = [h_all(fresh(fan), x) for x in (d, second)]
    plans = counting(monkeypatch, "_cell_plan")
    assert h_all(fan, d) == expected[0] and plans
    plans.clear()
    assert h_all(fan, second) == expected[1]
    assert plans == []


def test_cech_oracle_and_euler_char_after_h_all_count_no_region(monkeypatch):
    fan = fresh(fixtures.bl1_p3())
    d = (3, 2, Fraction(5, 2), -1, 1)
    counts = counting(monkeypatch, "_slot_count")
    h = h_all(fan, d)
    assert counts
    counts.clear()
    assert cech_oracle(fan, d) == h and euler_char(fan, d) == h[0] - h[1] + h[2] - h[3]
    assert counts == []


def test_an_ehrhart_probe_keys_one_cell_and_builds_one_table(monkeypatch):
    # Positive scaling keeps every circuit sign, so m d lies in d's type
    # cell for every m >= 1: a probe keys d's cell and builds its simple
    # cell's realized table once, even when the arrangement keeps no cell
    # (here none, with CELL_BUDGET = 1), and each row still counts the
    # region of m d as a region of its own does.
    fan = fresh(star_fan(3))
    n = fan.dim
    subsets = bounded_subsets(fan)
    rng = random.Random(2044)
    monkeypatch.setattr(regions, "CELL_BUDGET", 1)
    keys, tables = counting(monkeypatch, "_cell_key"), counting(monkeypatch, "_realized_table")
    probes = nonzero = 0
    for d in referee_divisors(fan, rng):
        sixfold = tuple(6 * x for x in d)
        met = [subset for subset in subsets if lattice_count(region(fan, sixfold, subset))]
        for subset in rng.sample(met, min(len(met), 4)) + rng.sample(subsets, 2):
            counts = [lattice_count(region(fan, tuple(m * x for x in d), subset)) for m in range(1, 7)]
            expected = [(m, Fraction(c * math.factorial(n), m**n)) for m, c in zip(range(1, 7), counts)]
            keys.clear(), tables.clear()
            assert ehrhart_probe(fan, d, subset, 6) == expected, (d, subset)
            assert (len(keys), len(tables)) == (1, 1)
            probes += 1
            nonzero += any(counts)
    assert probes > 35 and nonzero > 20, (probes, nonzero)


def test_h_all_of_a_dilated_bl1_p3_walks_a_pinned_number_of_slices(monkeypatch):
    # 10 (D_3 + D_4), a divisor of the dilation benchmark.  A walk takes
    # one slice per integer first coordinate of the box of each region
    # with a nonzero rank vector, unless a flat row empties its range of
    # s: 21 slices.  Slab sums take 14: each breakpoint slice, and four
    # slices (three nodes and a check) per slab of more than four.
    fan = fresh(fixtures.bl1_p3())
    slices = counting(monkeypatch, "_slice_count")
    assert h_all(fan, (0, 0, 0, 10, 10)) == (286, 0, 120, 0)
    assert len(slices) == 14


def test_a_second_pass_over_sections_draws_builds_no_cell_table_or_plan(monkeypatch):
    # Divisors drawn as the sections benchmark draws them: at the default
    # bound every cell that 300 of them meet on bl3_p2 stays, so a second
    # pass builds no type cell, no realized table and no count plan.
    fan = fresh(fixtures.bl3_p2())
    rng = random.Random(2037)
    divisors = [tuple(Fraction(rng.randint(-4, 4)) for _ in fan.rays) for _ in range(300)]
    cells = []

    class Counted(regions._TypeCell):
        def __init__(self, key):
            cells.append(key)
            super().__init__(key)

    monkeypatch.setattr(regions, "_TypeCell", Counted)
    tables, plans = counting(monkeypatch, "_realized_table"), counting(monkeypatch, "_cell_plan")

    def answers():
        return [(h_all(fan, d), cech_oracle(fan, d), euler_char(fan, d)) for d in divisors]

    first = answers()
    assert len(cells) > 100 and len(tables) > 50 and len(plans) > 200
    cells.clear(), tables.clear(), plans.clear()
    assert answers() == first
    assert (cells, tables, plans) == ([], [], [])

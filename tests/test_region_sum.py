"""region_sum and the volume tables against the full subset sweep they replaced, plus cost and laws.

The referee is the sweep ``region_sum`` used to run: every bounded ray
subset with a nonzero weight is measured, and each region's vertices
come from its own scan of all rank-n bases against all rows.  Counts
are ``arrangement_referees.own_plan_count`` on the scan, volumes the
pulling triangulation of ``arrangement_referees.pulling_volume``.  The
production path counts only the regions the divisor realizes, reading
their vertices off its divisor's type-cell table, and reads every volume
sum off the integer volume table of the divisor's cell.
"""

import contextlib
import functools
import gc
import hashlib
import random
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from operator import mul

import pytest

from arrangement_referees import lowered_divisor, own_plan_count, pulling_volume
from generated_fans import polygon_fan_data, star_fan_data
from test_regions import box_scan
from toricvol import asymptotics, cohomology, fixtures, regions
from toricvol.asymptotics import hhat, mixed_partial_h0, self_intersection
from toricvol.cohomology import cech_oracle, euler_char, h_all
from toricvol.errors import ToricError, UnboundedRegionError
from toricvol.fan import _Configuration, _configuration, all_cones, is_complete, is_simplicial, make_fan
from toricvol.gkz import ample_via_asymptotics, hhat0_on_chamber, locate_chamber, located_cone
from toricvol.homology import local_cohomology_ranks
from toricvol.linalg import to_integers
from toricvol.regions import (
    bounded_subsets,
    closure_vertices,
    lattice_count,
    lattice_points,
    normalized_volume,
    region,
)

POLY12_RAYS = [
    (1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2),
    (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1), (2, -1),
]


@functools.cache
def poly12():
    """A complete 2-D fan on 12 rays in angular order, built once per session."""
    k = len(POLY12_RAYS)
    return make_fan(2, POLY12_RAYS, [{i, (i + 1) % k} for i in range(k)])


def p123():
    """The weighted projective plane P(1, 2, 3)."""
    return make_fan(2, [(-2, -3), (1, 0), (0, 1)], [{0, 1}, {1, 2}, {2, 0}])


def p1235():
    """The weighted projective space P(1, 2, 3, 5)."""
    rays = [(-2, -3, -5), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return make_fan(3, rays, [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}])


def star4():
    """A complete simplicial 3-D fan on 8 rays, built from P^3 by 4 star splits."""
    return make_fan(*star_fan_data(4))


COMPLETE_FIXTURES = tuple(
    fixture
    for fixture in (
        fixtures.p1, fixtures.p2, fixtures.p1xp1, fixtures.f1, fixtures.weighted_p112,
        fixtures.bl2_p2, fixtures.bl3_p2, fixtures.p1_cubed, fixtures.bl1_p3,
        fixtures.cube_fan, fixtures.quadrant_fan, fixtures.square_cone_fan,
    )
    if is_complete(fixture())
)


def scan_integer_vertices(reg):
    """One region's vertices by its own scan of every basis against every row.

    Each candidate P = adjugate . L is tested as <v, P> >= level on weak
    rows and <= on strict rows, leaving at the first violated row.  The
    rows tight at P are returned as a bitmask, the format of
    ``HalfOpenRegion.vertex_table``.
    """
    arrangement = regions._arrangement(reg.normals, reg.dim, reg.memo)
    if not regions._is_bounded(arrangement, regions._weak_mask(reg.weak)):
        raise UnboundedRegionError("region closure is unbounded")
    common, bases, _ = _configuration(reg.normals, reg.dim, reg.memo).table
    levels, q = to_integers(reg.levels)
    rows = [
        (i, normal, common * level, is_weak)
        for i, (normal, level, is_weak) in enumerate(zip(reg.normals, levels, reg.weak))
    ]
    points = {}
    for combo, adjugate in bases.items():
        rhs = [levels[i] for i in combo]
        point = tuple(sum(map(mul, row, rhs)) for row in adjugate)
        if point in points:
            continue
        tight = []
        for i, normal, level, is_weak in rows:
            value = sum(map(mul, normal, point))
            if value == level:
                tight.append(i)
            elif value < level if is_weak else value > level:
                break
        else:
            points[point] = sum(1 << i for i in tight)
    return points, common * q


def sweep_region_sum(fan, d, weight, measure, amounts):
    """The sum over every bounded subset, each region measured on its own scan.

    ``weight`` maps (fan, ray subset) to a tuple, as the weights of
    ``regions.region_sum`` do.  Each region is built on its own and
    measured by ``measure``, a measure of a standalone region.
    ``amounts`` caches each region's measure, so one divisor's sweep
    serves every function compared.
    """
    public = measure
    total = None
    for subset in bounded_subsets(fan):
        w = weight(fan, subset)
        if total is None:
            total = [0] * len(w)
        if not any(w):
            continue
        key = (public.__name__, subset)
        if key not in amounts:
            amounts[key] = public(region(fan, d, subset))
        amount = amounts[key]
        if amount:
            for i, x in enumerate(w):
                total[i] += x * amount
    return tuple(total)


def outcome(function, fan, d):
    """(value, type of each entry) or the error type, for exact comparison."""
    try:
        value = function(fan, d)
    except ToricError as err:
        return type(err)
    entries = value if isinstance(value, tuple) else (value,)
    return value, tuple(type(x) for x in entries)


def compare_with_sweep(monkeypatch, fan, d, functions):
    actual = {f.__name__: outcome(f, fan, d) for f in functions}
    amounts = {}
    scans = {}

    def sweep(fan_, d_, weight):
        return sweep_region_sum(fan_, d_, weight, own_plan_count, amounts)

    def volume_sweep(fan_, slot, weight, degrees):
        coefficients, q = slot.key
        d_ = tuple(Fraction(c, q) for c in coefficients)
        totals = sweep_region_sum(fan_, d_, lambda fan, W: weight(fan, W)[degrees], pulling_volume, amounts)
        return tuple(Fraction(x) for x in totals)

    def scan(reg):
        if reg.weak not in scans:
            scans[reg.weak] = scan_integer_vertices(reg)
        return scans[reg.weak]

    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "region_sum", sweep)
        patch.setattr(asymptotics, "_lawrence_sum", volume_sweep)
        patch.setattr(regions.HalfOpenRegion, "vertex_table", property(scan))
        expected = {f.__name__: outcome(f, fan, d) for f in functions}
    assert actual == expected, d


def sample_divisors(fan, rng, count):
    """D = 0, integer divisors with a negative entry, rational ones over 2, 3, 5."""
    k = len(fan.rays)
    out = [tuple(Fraction(0) for _ in range(k))]
    for _ in range(count):
        coeffs = [rng.randint(-3, 3) for _ in range(k)]
        coeffs[rng.randrange(k)] = -rng.randint(1, 3)
        out.append(tuple(Fraction(c) for c in coeffs))
        out.append(
            tuple(Fraction(rng.randint(-7, 7), rng.choice((2, 3, 5))) for _ in range(k))
        )
    return out


ALL_FUNCTIONS = (h_all, euler_char, cech_oracle, hhat, self_intersection)


@pytest.mark.parametrize(
    "make", COMPLETE_FIXTURES + (p123, p1235), ids=lambda make: make.__name__
)
def test_region_sum_matches_sweep(monkeypatch, make):
    fan = make()
    rng = random.Random(2005 + len(fan.rays))
    for d in sample_divisors(fan, rng, 2):
        compare_with_sweep(monkeypatch, fan, d, ALL_FUNCTIONS)


def test_region_sum_matches_sweep_poly12(monkeypatch):
    # The Cech complex on 12 maximal cones costs ~10 ms per ray subset,
    # too much for a sweep over ~4000 subsets; cech_oracle is compared
    # with h_all on poly12 in the next test.
    fan = poly12()
    rng = random.Random(12)
    for d in sample_divisors(fan, rng, 1):
        compare_with_sweep(monkeypatch, fan, d, (h_all, euler_char, hhat, self_intersection))


def test_cech_oracle_matches_h_all_poly12():
    # A fresh fan, so every realized region's Cech ranks are computed cold.
    fan = fresh(poly12())
    k = len(fan.rays)
    rng = random.Random(1212)
    for d in ((1,) * k, tuple(Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3))) for _ in range(k))):
        assert cech_oracle(fan, d) == h_all(fan, d), d


def test_region_sum_matches_sweep_star4(monkeypatch):
    # The sweep weighs all 156 bounded subsets, so cech_oracle ranks the
    # Cech complex on 12 maximal cones of each (~1.2 s in all).
    fan = star4()
    rng = random.Random(2005 + len(fan.rays))
    for d in sample_divisors(fan, rng, 2):
        compare_with_sweep(monkeypatch, fan, d, ALL_FUNCTIONS)


def test_warm_h_all_measures_only_realized_regions(monkeypatch):
    # Anticanonical D on poly12: of 3964 bounded subsets with a nonzero
    # rank vector, the sweep measured every one.  At the levels of D, 78
    # bounded subsets have a nonempty closure, 39 of them with a nonzero
    # rank vector; at its lowered levels (the simple cell region sums
    # read) 51 have one, 18 of them with a nonzero rank vector, and only
    # those 18 are measured now, with no per-region vertex scan.
    fan = poly12()
    d = (1,) * len(fan.rays)
    expected_h = h_all(fan, d)
    # 2D, of the same cell, takes the slot, which keeps counts by mask.
    h_all(fan, (2,) * len(fan.rays))
    measured = []
    scans = []
    count = regions._slot_count
    scan = regions._closure_table

    def recorded_count(slot, mask, vertices):
        measured.append(frozenset(i for i in range(len(fan.rays)) if mask >> i & 1))
        return count(slot, mask, vertices)

    def recorded_scan(slot, weak):
        scans.append(weak)
        return scan(slot, weak)

    with monkeypatch.context() as patch:
        patch.setattr(regions, "_slot_count", recorded_count)
        patch.setattr(regions, "_closure_table", recorded_scan)
        assert h_all(fan, d) == expected_h
    assert scans == []

    def nonempty(divisor):
        return {
            subset
            for subset in bounded_subsets(fan)
            if closure_vertices(region(fan, divisor, subset)).vertices
        }

    def ranked(subsets):
        return {subset for subset in subsets if any(local_cohomology_ranks(fan, subset))}

    at_d, lowered = nonempty(d), nonempty(lowered_divisor(fan, d))
    realized = ranked(lowered)
    assert (len(at_d), len(ranked(at_d))) == (78, 39)
    assert (len(lowered), len(realized)) == (51, 18)
    assert len(measured) == len(set(measured))
    assert set(measured) == realized


def div_chi(fan, u):
    return tuple(sum(a * b for a, b in zip(u, ray)) for ray in fan.rays)


@pytest.mark.parametrize(
    "make", (poly12, fixtures.weighted_p112, p123, p1235), ids=lambda make: make.__name__
)
def test_linear_equivalence_and_homogeneity(make):
    fan = make()
    n = fan.dim
    rng = random.Random(31 + len(fan.rays))
    for d in sample_divisors(fan, rng, 3)[1:]:
        u = tuple(rng.randint(-3, 3) for _ in range(n))
        shifted = tuple(c + s for c, s in zip(d, div_chi(fan, u)))
        assert h_all(fan, shifted) == h_all(fan, d), (d, u)
        base = hhat(fan, d)
        assert hhat(fan, shifted) == base, (d, u)
        rational_u = tuple(Fraction(rng.randint(-5, 5), 3) for _ in range(n))
        moved = tuple(c + s for c, s in zip(d, div_chi(fan, rational_u)))
        assert hhat(fan, moved) == base, (d, rational_u)
        for t in (Fraction(2), Fraction(3, 2), Fraction(2, 5), Fraction(7)):
            scaled = tuple(t * c for c in d)
            assert hhat(fan, scaled) == tuple(t**n * x for x in base), (d, t)


def fresh(fan):
    """A new Fan on the same data, so that its per-fan memo starts empty."""
    return make_fan(fan.dim, fan.rays, fan.max_cones)


def guarded_answers(fan, d):
    """Every answer that reaches a region sum, or the name of its error."""

    def chamber_h0(fan, d):
        return hhat0_on_chamber(fan, located_cone(fan, locate_chamber(fan, d)), d)

    def mixed(fan, d):
        return mixed_partial_h0(fan, d, range(min(2, fan.dim)))

    answers = []
    for function in (
        h_all, euler_char, cech_oracle, hhat, self_intersection,
        ample_via_asymptotics, mixed, chamber_h0,
    ):
        try:
            answers.append(function(fan, d))
        except ToricError as err:
            answers.append(type(err).__name__)
    return answers


# sha256 of repr(answers) over guard_inputs(), computed while region_sum
# still looked boundedness up in the memoized bounded_subsets.
SWEEP_ANSWERS_SHA256 = "399dacfb916ee527b6486faa93c63b6aeee55d62a839dc65c52891059865a0e9"


def guard_inputs():
    """Each complete fixture with its anticanonical divisor and a seeded rational one."""
    rng = random.Random(11)
    for make in COMPLETE_FIXTURES:
        k = len(make().rays)
        yield make, (Fraction(1),) * k
        yield make, tuple(Fraction(rng.randint(-5, 9), rng.choice((1, 2, 3))) for _ in range(k))


def test_no_answer_runs_the_subset_sweep(monkeypatch):
    inputs = list(guard_inputs())
    expected = [guarded_answers(make(), d) for make, d in inputs]
    digest = hashlib.sha256(repr(expected).encode()).hexdigest()
    assert digest == SWEEP_ANSWERS_SHA256

    def refuse(fan):
        raise AssertionError("an answer path enumerated all ray subsets")

    monkeypatch.setattr(regions, "bounded_subsets", refuse)
    for (make, d), answers in zip(inputs, expected):
        assert guarded_answers(fresh(make()), d) == answers, (make.__name__, d)


def realized_subsets(fan, d):
    """The bounded subsets whose region's closure at the lowered levels of d has a vertex.

    The levels are lowered as ``arrangement_referees.lowered_divisor``
    lowers them, and each closure is found by the referee scan.
    """
    lowered = lowered_divisor(fan, d)
    return {
        subset
        for subset in bounded_subsets(fan)
        if scan_integer_vertices(region(fan, lowered, subset))[0]
    }


def test_cold_euler_char_ranks_only_realized_subsets(monkeypatch):
    fan = fresh(fixtures.bl3_p2())
    d = (2, -1, 0, 1, -1, 1)
    realized = realized_subsets(fan, d)
    expected = euler_char(fixtures.bl3_p2(), d)
    ranked = []
    ranks = cohomology.local_cohomology_ranks

    def recorded(fan_, subset):
        ranked.append(subset)
        return ranks(fan_, subset)

    monkeypatch.setattr(cohomology, "local_cohomology_ranks", recorded)
    assert euler_char(fan, d) == expected
    assert len(ranked) == len(set(ranked))
    assert set(ranked) == realized
    assert frozenset() not in realized and len(realized) < len(bounded_subsets(fan))


def test_euler_char_rejects_a_corrupt_rank_vector(monkeypatch):
    d = (2, -1, 0, 1, -1, 1)
    target = max(realized_subsets(fixtures.bl3_p2(), d), key=sorted)
    ranks = cohomology.local_cohomology_ranks

    def corrupted(fan_, subset):
        vector = ranks(fan_, subset)
        return (vector[0] + 1,) + vector[1:] if subset == target else vector

    monkeypatch.setattr(cohomology, "local_cohomology_ranks", corrupted)
    with pytest.raises(ToricError, match="disagrees with its ranks"):
        euler_char(fresh(fixtures.bl3_p2()), d)


def test_cech_oracle_ignores_a_corrupt_rank_vector(monkeypatch):
    # The oracle weighs every realized region by its own Cech ranks, so a
    # rank vector zeroed in the production path cannot silence it.
    d = (2, -1, 0, 1, -1, 1)
    target = frozenset({0, 2, 3})
    assert target in realized_subsets(fixtures.bl3_p2(), d)
    ranks = cohomology._local_ranks

    def corrupted(fan_, subset):
        return (0,) * (fan_.dim + 1) if subset == target else ranks(fan_, subset)

    monkeypatch.setattr(cohomology, "_local_ranks", corrupted)
    fan = fresh(fixtures.bl3_p2())
    assert h_all(fan, d) == (0, 3, 0)
    assert cech_oracle(fan, d) == (0, 4, 0)


def realized_regions(fan, d):
    """Every (slot, mask, vertices) ``region_sum`` counts for d under a weight nonzero everywhere."""
    slot = regions._divisor_slot(regions._arrangement(fan.rays, fan.dim, fan.memo), *to_integers(d))
    return [(slot, mask, vertices) for mask, _, vertices in regions._realized_masks(slot)]


def hazard_divisors(fan, rng):
    """Two divisors per denominator 2, 3, 5, 7, each with a negative non-integer entry."""
    k = len(fan.rays)
    for q in (2, 3, 5, 7, 2, 3, 5, 7):
        coeffs = [Fraction(rng.randint(-3 * q, 3 * q), q) for _ in range(k)]
        coeffs[rng.randrange(k)] = Fraction(-rng.randint(0, 2) * q - rng.randint(1, q - 1), q)
        yield tuple(coeffs)


def row_bound_fans():
    """The complete fixtures, P(1, 2, 3), P(1, 2, 3, 5), star_fan_data(1..6) and four polygon fans."""
    yield from (make() for make in COMPLETE_FIXTURES)
    yield from (p123(), p1235())
    yield from (make_fan(*star_fan_data(s)) for s in range(1, 7))
    yield from (make_fan(*polygon_fan_data(random.Random(seed))) for seed in range(4))


def test_row_bounds_count_each_realized_region_like_a_fresh_one():
    # The kernel counts each realized region off its divisor's slot,
    # with the row bounds ceil(-d_i) of one clearing per slot; a fresh
    # region clears its own levels, and the box scan tests each point
    # against the exact Fraction levels.  Each region's Lawrence volume
    # is its pulling triangulation's.  Hazard divisors (negative
    # non-integer entries), D = 0 and divisors tight at many rows.
    rng = random.Random(2020)
    counted = nonzero = 0
    for fan in row_bound_fans():
        k = len(fan.rays)
        hazards = list(hazard_divisors(fan, rng))
        assert all(any(c < 0 and c.denominator > 1 for c in d) for d in hazards)
        for d in (*hazards, *tight_divisors(fan, rng)):
            for slot, mask, vertices in realized_regions(fan, d):
                subset = [i for i in range(k) if mask >> i & 1]
                own = region(fan, d, subset)
                count = regions._slot_count(slot, mask, vertices)
                points = box_scan(own)
                assert count == lattice_count(own) == len(points), (fan, d, subset)
                assert lattice_points(own) == points
                assert normalized_volume(own) == pulling_volume(own), (fan, d, subset)
                counted += 1
                nonzero += count > 0
    assert counted > 2000 and nonzero > 600


def scan_arrangement_vertices(fan, d):
    """Every basis's vertex, each classified by one dot product with every row.

    The basis rows are scanned like the others, and a vertex found from
    several bases must be classified the same way each time.
    """
    common, bases, _ = _Configuration(fan.rays, fan.dim).table
    levels, q = to_integers([-c for c in d])
    found = {}
    for combo, adjugate in bases.items():
        rhs = [levels[i] for i in combo]
        point = tuple(sum(map(mul, row, rhs)) for row in adjugate)
        above = tight = 0
        for i, (normal, level) in enumerate(zip(fan.rays, levels)):
            value = sum(map(mul, normal, point))
            if value > common * level:
                above |= 1 << i
            elif value == common * level:
                tight |= 1 << i
        assert all(tight >> i & 1 for i in combo)
        assert found.setdefault(point, (above, tight)) == (above, tight)
    return found, common * q


def tight_divisors(fan, rng):
    """D = 0, ΣD_ρ, and divisors of two characters: each ray is tight at u or at u'."""
    k, n = len(fan.rays), fan.dim
    yield (Fraction(0),) * k
    yield (Fraction(1),) * k
    for _ in range(3):
        u = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)]
        w = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        yield tuple(
            -sum(map(mul, u if rng.random() < 0.5 else w, ray)) for ray in fan.rays
        )


def test_bitmask_vertex_pass_matches_a_scan_of_every_row():
    rng = random.Random(2021)
    fans = [make() for make in COMPLETE_FIXTURES]
    fans += [make_fan(*star_fan_data(s)) for s in (1, 2, 3)]
    fans += [make_fan(*polygon_fan_data(random.Random(seed))) for seed in range(4)]
    many_tight = 0
    for fan in fans:
        for d in tight_divisors(fan, rng):
            expected = scan_arrangement_vertices(fan, d)
            slot = regions._divisor_slot(regions._arrangement(fan.rays, fan.dim, fan.memo), *to_integers(d))
            vertices = regions._cell_vertices(slot.arrangement, slot.cell)
            table = {slot.point(b): (above, tight) for b, above, tight in vertices}
            assert (table, slot.scale) == expected
            many_tight += any(tight.bit_count() > fan.dim for _, tight in expected[0].values())
    assert many_tight > 2 * len(fans)


def last_divisor(fan):
    """The held (key, slot, entries) of the fan's arrangement (``regions._held_slot``), or None."""
    return regions._arrangement(fan.rays, fan.dim, fan.memo).held


@contextlib.contextmanager
def counted_measuring(monkeypatch):
    """Record every region built, region counted and 2-D slice counted meanwhile.

    A region is counted by the integer count core, which both the
    region-sum kernel and ``lattice_count`` call.  Volumes measure no
    region: they read the volume table.
    """
    built, measured, slices = [], [], []
    cores = {name: getattr(regions, name) for name in ("_lattice_count", "_slice_count")}

    class Counted(regions.HalfOpenRegion):
        def __init__(self, *args, **fields):
            built.append(args or fields)
            super().__init__(*args, **fields)

    def counted(name, record):
        def call(*args):
            record.append(args)
            return cores[name](*args)

        return call

    with monkeypatch.context() as patch:
        patch.setattr(regions, "HalfOpenRegion", Counted)
        patch.setattr(regions, "_lattice_count", counted("_lattice_count", measured))
        patch.setattr(regions, "_slice_count", counted("_slice_count", slices))
        yield built, measured, slices


@pytest.mark.parametrize("make", (poly12, fixtures.bl1_p3), ids=lambda make: make.__name__)
def test_a_repeated_question_measures_no_region(monkeypatch, make):
    # The second and third question about one divisor read the counts
    # the first one took: the Euler weight and the Cech ranks vanish
    # wherever the rank vector does.  hhat and self_intersection count
    # no region at all.
    fan = fresh(make())
    rng = random.Random(21 + len(fan.rays))
    divisors = [(Fraction(1),) * len(fan.rays)] + sample_divisors(fan, rng, 2)[1:]
    for d in divisors:
        reference = fresh(fan)
        expected = [f(reference, d) for f in (h_all, cech_oracle, euler_char, hhat, self_intersection)]
        with counted_measuring(monkeypatch) as (built, regions_measured, slices):
            answers = [h_all(fan, d)]
            assert regions_measured, d  # the first question counts
            regions_measured.clear()
            slices.clear()
            answers += [cech_oracle(fan, d), euler_char(fan, d)]
            assert (regions_measured, slices) == ([], []), d
            answers.append(hhat(fan, d))
            answers.append(self_intersection(fan, d))
            assert regions_measured == [], d
            assert built == [], d
        assert answers == expected, d


@pytest.mark.parametrize("make", (fixtures.bl2_p2, fixtures.bl1_p3), ids=lambda make: make.__name__)
def test_warm_questions_build_no_region(monkeypatch, make):
    # On a warm fan every question counts its divisor's realized
    # regions straight off the divisor's slot and reads its volumes off
    # the volume table of its type cell: no HalfOpenRegion is built, by
    # the region sums or by the mixed partials and ampleness probes, and
    # every answer is a fresh fan's.
    fan = fresh(make())
    k = len(fan.rays)
    rng = random.Random(22 + k)
    guarded_answers(fan, (Fraction(1),) * k)  # warms the fan's tables
    divisors = [(Fraction(3, 2),) * k, (2,) * k] + sample_divisors(fan, rng, 2)[1:]
    measured = partials = 0
    for d in divisors:
        expected = guarded_answers(fresh(fan), d)
        with counted_measuring(monkeypatch) as (built, regions_measured, _):
            assert guarded_answers(fan, d) == expected, d
        assert built == [], d
        measured += len(regions_measured)
        partials += isinstance(expected[6], Fraction)  # a mixed partial, not an error
    # Only h_all, euler_char and cech_oracle count regions now.
    assert measured > len(divisors) and partials >= 2


def table_sequence(fan, rng):
    """Nine divisors shuffled with repeats, two equal ones written two ways each."""
    k = len(fan.rays)
    base = [rng.randint(-2, 3) for _ in range(k)]
    half = [Fraction(rng.randint(-5, 7), 2) for _ in range(k)]
    spellings = [
        tuple(base),
        tuple(Fraction(2 * c, 2) for c in base),
        tuple(half),
        tuple(Fraction(2 * c.numerator, 2 * c.denominator) for c in half),
        # The integers of the cleared 1/2-divisor, over 1: the key needs q.
        tuple(2 * c for c in half),
    ]
    spellings += [
        tuple(Fraction(rng.randint(-4, 6), rng.choice((1, 3))) for _ in range(k))
        for _ in range(6)
    ]
    sequence = spellings * 2
    rng.shuffle(sequence)
    return sequence


@pytest.mark.parametrize("make", (fixtures.bl3_p2, fixtures.bl1_p3), ids=lambda make: make.__name__)
def test_divisor_slot_answers_like_a_fresh_fan(make):
    fan = fresh(make())
    rng = random.Random(2121 + len(fan.rays))
    sequence = table_sequence(fan, rng)
    expected = {}
    for d in sequence:
        key = tuple(Fraction(c) for c in d)
        if key not in expected:
            expected[key] = guarded_answers(fresh(fan), d)
        assert guarded_answers(fan, d) == expected[key], d
    # Nine distinct divisors, two of them written two ways each.
    assert len(expected) == len(sequence) // 2 - 2
    # The slot holds the divisor summed last, cleared.
    coefficients, q = to_integers(sequence[-1])
    assert last_divisor(fan)[0] == (tuple(coefficients), q)


def test_equal_divisors_written_differently_share_the_slot():
    fan = fresh(fixtures.bl3_p2())
    for spellings in (
        [(2, 1, 0, -1, 1, 0), (Fraction(4, 2), 1, 0, -1, 1, 0)],
        [(Fraction(1, 2), 1, 0, -1, 1, 0), (Fraction(2, 4), 1, 0, -1, 1, 0)],
    ):
        first = h_all(fan, spellings[0])
        entry = last_divisor(fan)[1]
        assert h_all(fan, spellings[1]) == first == h_all(fresh(fan), spellings[0])
        assert last_divisor(fan)[1] is entry


def test_true_after_one_in_the_same_place_is_still_rejected():
    # The held divisor is recognized by the identity of its entries, not
    # by ==, so True never reads as the held 1 and bools stay rejected.
    fan = fresh(fixtures.p2())
    assert h_all(fan, (1, 0, 0)) == h_all(fresh(fan), (1, 0, 0))
    with pytest.raises(ValueError, match="bools"):
        h_all(fan, (True, 0, 0))
    with pytest.raises(ValueError, match="bools"):
        hhat(fan, (True, 0, 0))


def test_a_list_divisor_mutated_in_place_gets_its_new_answer():
    fan = fresh(fixtures.bl3_p2())
    d = [Fraction(1, 2), 1, 0, -1, 1, 0]
    first = (h_all(fan, d), hhat(fan, d))
    d[0] = Fraction(5, 2)
    assert (h_all(fan, d), hhat(fan, d)) == (h_all(fresh(fan), d), hhat(fresh(fan), d)) != first
    assert last_divisor(fan)[0] == to_integers_key(d)
    d[3] = 2
    assert euler_char(fan, d) == euler_char(fresh(fan), d)


def to_integers_key(d):
    coefficients, q = to_integers(d)
    return tuple(coefficients), q


def test_equal_entries_reuse_the_held_slot_through_the_key(monkeypatch):
    # An equal tuple of other objects, and floats at their exact values,
    # are cleared once each and then find the held slot by its key; the
    # held divisor itself is not cleared at all.
    fan = fresh(fixtures.bl3_p2())
    d = (Fraction(1, 2), Fraction(7, 4), 0, -1, Fraction(3, 2), 0)
    expected = h_all(fan, d)
    slot = last_divisor(fan)[1]
    cleared = []
    clear = regions.to_integers
    monkeypatch.setattr(regions, "to_integers", lambda values: cleared.append(values) or clear(values))
    assert regions._held_slot(fan, d) is slot and cleared == []
    floats = (0.5, 1.75, 0, -1, 1.5, 0.0)
    for same in (tuple(Fraction(c) for c in d), floats):
        assert same == d and same[0] is not d[0]
        assert regions._held_slot(fan, same) is slot
        assert regions._held_slot(fan, same) is slot
    assert len(cleared) == 2
    # The float tuple is held now: its answers read the slot d filled.
    assert h_all(fan, floats) == expected and len(cleared) == 2
    assert last_divisor(fan)[1] is slot and last_divisor(fan)[2] == floats


def test_a_divisor_tight_at_every_ray_is_answered_and_stored():
    from test_cli import TRIPLES_21  # test_cli imports this module

    # At D = 0 all 21 rays are tight at the origin, which had 2^21
    # candidate subsets; the lowered simple cell answers like O_X.
    k = len(TRIPLES_21)
    fan = make_fan(2, [(a, b) for a, b, _ in TRIPLES_21], [{i, (i + 1) % k} for i in range(k)])
    zero = (0,) * k
    for _ in range(2):
        assert h_all(fan, zero) == (1, 0, 0) and euler_char(fan, zero) == 1
        assert last_divisor(fan)[0] == (zero, 1)
    ample = tuple(c for _, _, c in TRIPLES_21)
    h_all(fan, ample)
    assert last_divisor(fan)[0] == (ample, 1)
    assert h_all(fan, zero) == (1, 0, 0)
    assert last_divisor(fan)[0] == (zero, 1)


def test_a_fan_frees_its_held_slot_and_arrangement_without_cycle_collection():
    # The held slot points back at the arrangement that holds it; the
    # finalizer registered with the first held slot drops it with the
    # fan, so reference counting alone frees the arrangement too.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        fan = fresh(fixtures.bl2_p2())
        d = (Fraction(3, 2), 1, 0, -1, 2)
        h_all(fan, d), hhat(fan, d)
        assert last_divisor(fan)[1].arrangement is regions._arrangement(fan.rays, fan.dim, fan.memo)
        arrangement = weakref.ref(regions._arrangement(fan.rays, fan.dim, fan.memo))
        del fan
        assert arrangement() is None
    finally:
        if was_enabled:
            gc.enable()


def test_a_measure_that_raises_leaves_no_wrong_amount(monkeypatch):
    fan = fresh(fixtures.bl1_p3())
    d = (3, 2, Fraction(5, 2), -1, 1)
    expected = h_all(fresh(fan), d)
    count = regions._slice_count
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("slice count interrupted")
        return count(*args)

    with monkeypatch.context() as patch:
        patch.setattr(regions, "_slice_count", failing)
        with pytest.raises(RuntimeError, match="interrupted"):
            h_all(fan, d)
    assert len(calls) == 3
    assert h_all(fan, d) == expected

    # A count that raises after one region leaves only that region's
    # count in the slot, keyed by its mask.
    def partial_measure(slot, mask, vertices):
        if partial_measure.left == 0:
            raise RuntimeError("measure interrupted")
        partial_measure.left -= 1
        return count_region(slot, mask, vertices)

    count_region = regions._slot_count
    partial_measure.left = 1
    interrupted = fresh(fan)
    with monkeypatch.context() as patch:
        patch.setattr(regions, "_slot_count", partial_measure)
        with pytest.raises(RuntimeError, match="measure interrupted"):
            regions.region_sum(interrupted, d, lambda fan, subset: (1,))
    assert len(last_divisor(interrupted)[1].amounts) == 1
    assert h_all(interrupted, d) == expected
    assert cech_oracle(interrupted, d) == expected


def test_concurrent_questions_answer_like_serial_ones(monkeypatch):
    # 4 threads share one fan and ask mixed questions of many divisors,
    # so the slot is replaced while other threads still sum on the entry
    # they read; a short switch interval makes the threads interleave.
    # Then again under a tiny cell bound, so that cells are evicted while
    # other threads look them up and fill them: the kept entries must
    # still add up, within the bound.
    reference = fresh(fixtures.bl3_p2())
    rng = random.Random(404)
    k = len(reference.rays)
    divisors = [
        tuple(Fraction(rng.randint(-4, 8), rng.choice((1, 2, 3))) for _ in range(k))
        for _ in range(60)
    ]
    functions = (h_all, cech_oracle, hhat)
    expected = {(f.__name__, d): f(reference, d) for f in functions for d in divisors}
    jobs = [(f, d) for d in divisors for f in functions]
    rng.shuffle(jobs)
    met = len(regions._arrangement(reference.rays, reference.dim, reference.memo).cells)
    for budget in (regions.CELL_BUDGET, 120):
        monkeypatch.setattr(regions, "CELL_BUDGET", budget)
        fan = fresh(reference)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                answers = list(pool.map(lambda job: job[0](fan, job[1]), jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(answers) == len(jobs)
        for (f, d), answer in zip(jobs, answers):
            assert answer == expected[f.__name__, d], (f.__name__, budget, d)
        arrangement = regions._arrangement(fan.rays, fan.dim, fan.memo)
        assert arrangement.entries == sum(cell.size for cell in arrangement.cells.values()) <= budget
    assert len(arrangement.cells) < met


def test_first_reads_of_a_fans_facts_from_many_threads_answer_like_serial_ones():
    # A fresh cube_fan, the complete fan that is neither a glued cover nor
    # simplicial, has read none of its facts when 6 threads, more than
    # the CPUs, pass one barrier: each asks Fan.faces, Fan.complete and
    # Fan.simplicial first in its own order, then h_all, cech_oracle and
    # hhat of seeded divisors, so every fact is first read from several
    # threads at once, in a short switch interval.  Every answer must be
    # the serial one, and no thread may hang.
    reference = fresh(fixtures.cube_fan())
    rng = random.Random(405)
    divisors = [tuple(rng.randint(-2, 3) for _ in reference.rays) for _ in range(6)]
    facts = (all_cones, is_complete, is_simplicial)
    jobs = [(f, d) for d in divisors for f in (h_all, cech_oracle, hhat)]
    expected = {f: f(reference) for f in facts}
    expected |= {(f, d): f(reference, d) for f, d in jobs}
    fan = fresh(reference)
    assert not {"faces", "complete", "simplicial"} & vars(fan).keys()
    workers = 6
    start = threading.Barrier(workers)
    answers, errors = {}, []

    def ask(i):
        try:
            start.wait(timeout=60)
            mine = {f: f(fan) for f in facts[i % 3 :] + facts[: i % 3]}
            mine |= {(f, d): f(fan, d) for f, d in jobs[i:] + jobs[:i]}
            answers[i] = mine
        except Exception as error:  # reported below, with the thread's index
            errors.append((i, error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(i,), daemon=True) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "a thread hung"
    assert not errors, errors
    assert sorted(answers) == list(range(workers))
    for mine in answers.values():
        assert mine == expected

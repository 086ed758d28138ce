import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from fraction_linalg import affine_rank, det, rank, solve
from toricvol import fixtures, regions
from toricvol.cohomology import h_all, weak_ray_set
from toricvol.divisor import divisor, ray_divisor, scale
from toricvol.errors import CapExceededError, UnboundedRegionError
from toricvol.fan import _configuration, make_fan
from toricvol.fixtures import f1, p1, p1xp1, p2
from toricvol.linalg import dot
from toricvol.regions import (
    HalfOpenRegion,
    bounded_subsets,
    closure_vertices,
    ehrhart_probe,
    floor_sum,
    is_bounded_subset,
    lattice_count,
    lattice_points,
    normalized_volume,
    region,
)

ALL_FIXTURES = (
    fixtures.p1, fixtures.p2, fixtures.p1xp1, fixtures.f1, fixtures.weighted_p112,
    fixtures.bl2_p2, fixtures.bl3_p2, fixtures.p1_cubed, fixtures.bl1_p3,
    fixtures.cube_fan, fixtures.quadrant_fan, fixtures.square_cone_fan,
)


def test_region_membership_flags():
    fan = p2()
    reg = region(fan, scale(ray_divisor(fan, 0), -2), frozenset())
    # System: u1 < 2, u2 < 0, u1 + u2 > 0.
    assert reg.contains((1, -1)) is False  # u1 + u2 = 0 fails the strict >
    assert reg.contains((Fraction(3, 2), Fraction(-1, 2)))
    assert not reg.contains((2, -1))


def test_bounded_subsets_p2_p1():
    assert set(bounded_subsets(p2())) == {frozenset(), frozenset({0, 1, 2})}
    assert set(bounded_subsets(p1())) == {frozenset(), frozenset({0, 1})}


def test_bounded_subsets_p1xp1():
    fan = p1xp1()  # rays: +e1, -e1, +e2, -e2
    bounded = set(bounded_subsets(fan))
    assert frozenset() in bounded
    assert frozenset(range(4)) in bounded
    assert frozenset({0, 1}) in bounded
    assert frozenset({2, 3}) in bounded
    for single in ({0}, {1}, {2}, {3}):
        assert frozenset(single) not in bounded
    assert is_bounded_subset(fan, {0, 1})


def test_half_space_subsets_unbounded():
    fan = p1xp1()
    # All rays on one open half-space side: a separating functional exists.
    assert not is_bounded_subset(fan, {0, 2})
    assert not is_bounded_subset(fan, {0})


def test_cap_error(monkeypatch):
    monkeypatch.setattr(regions, "SUBSET_CAP", 2)
    with pytest.raises(CapExceededError):
        bounded_subsets(p2())
    monkeypatch.setattr(regions, "SUBSET_CAP", 3)
    assert bounded_subsets(p2())


def test_closure_vertices_triangle():
    fan = p2()
    poly = closure_vertices(region(fan, scale(ray_divisor(fan, 0), 2), range(3)))
    assert set(poly.vertices) == {
        (Fraction(0), Fraction(0)),
        (Fraction(-2), Fraction(0)),
        (Fraction(-2), Fraction(2)),
    }


def test_closure_vertices_negative_triangle():
    fan = p2()
    poly = closure_vertices(region(fan, scale(ray_divisor(fan, 0), -2), frozenset()))
    assert set(poly.vertices) == {
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(2), Fraction(-2)),
    }


def test_closure_vertices_unbounded_raises():
    fan = p2()
    with pytest.raises(UnboundedRegionError):
        closure_vertices(region(fan, ray_divisor(fan, 0), {0, 1}))
    with pytest.raises(UnboundedRegionError):
        lattice_count(region(fan, ray_divisor(fan, 0), {0, 1}))


def test_closure_vertices_without_fan_memo():
    # A hand-built region has no fan memo and computes the same vertices.
    fan = p1xp1()
    d = divisor([2, 1, -3, 4])
    for subset in bounded_subsets(fan):
        reg = region(fan, d, subset)
        bare = HalfOpenRegion(reg.normals, reg.levels, reg.weak, reg.dim)
        assert closure_vertices(bare) == closure_vertices(reg)
    half_plane = HalfOpenRegion(((1, 0), (0, 1)), (Fraction(0), Fraction(0)), (True, True), 2)
    with pytest.raises(UnboundedRegionError):
        closure_vertices(half_plane)


def test_region_rejects_mismatched_lengths():
    # contains() used to ignore the third normal of a two-level region, its
    # lattice count raised IndexError, and a weak tuple one entry short
    # reported an unbounded region.
    fan = p2()
    levels = (Fraction(0),) * 3
    bad = [
        (fan.rays, levels[:2], (True,) * 3, 2),
        (fan.rays, levels, (True,) * 2, 2),
        (fan.rays[:2], levels, (True,) * 3, 2),
        (fan.rays, levels, (True,) * 3, 3),
        (((1, 0), (0, 1, 0), (-1, -1)), levels, (True,) * 3, 2),
    ]
    for normals, lv, weak, dim in bad:
        with pytest.raises(ValueError, match="one level and one weak flag per normal"):
            HalfOpenRegion(normals=normals, levels=lv, weak=weak, dim=dim)
    assert HalfOpenRegion(fan.rays, levels, (True,) * 3, 2).contains((0, 0))


@pytest.mark.parametrize(
    "normals, dim",
    [
        # The triangle 3/2 x >= -1, y >= -1, x + y <= 1 has the vertices
        # (-2/3, -1), (-2/3, 5/3) and (2, -1) and 6 lattice points; this
        # region gave two vertices, (-1/2, 1) and (0, -1), a count of 3,
        # and a volume that did not return.
        (((Fraction(3, 2), 0), (0, 1), (-1, -1)), 2),
        # A float entry raised a bare TypeError from the elimination.
        (((1.0, 0), (0, 1), (-1, -1)), 2),
        (((True, 0), (0, 1), (-1, -1)), 2),
        (((1, 0), (0, 1), (-1, -1)), 0),
        (((1, 0), (0, 1), (-1, -1)), True),
        (((1, 0), (0, 1), (-1, -1)), 2.0),
        ((), 0),
    ],
    ids=["fraction", "float", "bool", "dim0", "dim_true", "dim_float", "empty_dim0"],
)
def test_region_rejects_a_dimension_or_normal_entry_that_is_no_int(normals, dim):
    k = len(normals)
    with pytest.raises(ValueError, match="int dim >= 1 and int normals"):
        HalfOpenRegion(normals, (Fraction(-1),) * k, (True,) * k, dim)
    # The same triangle with integer normals: 3x >= -2, y >= -1, -2x - 2y >= -2.
    triangle = HalfOpenRegion(((3, 0), (0, 1), (-2, -2)), (-2, -1, -2), (True,) * 3, 2)
    thirds = ((Fraction(-2, 3), -1), (Fraction(-2, 3), Fraction(5, 3)), (2, -1))
    assert closure_vertices(triangle).vertices == thirds and lattice_count(triangle) == 6


def test_a_memo_of_other_normals_is_refused():
    # dataclasses.replace keeps the memo: the new normals used to answer
    # with the old triangle, a count of 10 and a volume of 9, where the
    # right answers are 9 and 8.
    triangle = HalfOpenRegion(((1, 0), (0, 1), (-1, -1)), (-1, -1, -1), (True,) * 3, 2)
    assert (lattice_count(triangle), normalized_volume(triangle)) == (10, 9)
    moved = dataclasses.replace(triangle, normals=((1, 0), (0, 1), (-1, -2)))
    for measure in (closure_vertices, normalized_volume, lattice_count, lattice_points):
        with pytest.raises(ValueError, match="other normals"):
            measure(moved)
    own = HalfOpenRegion(moved.normals, moved.levels, moved.weak, moved.dim)
    assert (lattice_count(own), normalized_volume(own)) == (9, 8)


def test_one_memo_serves_the_normals_it_was_first_used_on():
    memo = regions._own_memo()
    levels, weak = (-1, -1, -1), (True,) * 3
    first = HalfOpenRegion(((1, 0), (0, 1), (-1, -1)), levels, weak, 2, memo)
    second = HalfOpenRegion(((1, 0), (0, 1), (-1, -2)), levels, weak, 2, memo)
    assert normalized_volume(first) == 9
    for measure in (closure_vertices, normalized_volume, lattice_count, lattice_points):
        with pytest.raises(ValueError, match="other normals"):
            measure(second)
    again = HalfOpenRegion(first.normals, levels, weak, 2, memo)
    assert lattice_count(again) == 10 and again.slot.arrangement is first.slot.arrangement


def test_a_fan_memo_refuses_a_region_of_other_normals_before_building():
    # A fan's memo is bound to its rays from the start.  Handed to a
    # region of other normals before the fan had built its own facts, it
    # used to build them on the region's normals, and the fan then
    # answered with them: h_all gave (2, 0, 0) on P^2.
    fan = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])
    other = HalfOpenRegion(((1, 0), (0, 1), (-1, -2)), (-1,) * 3, (True,) * 3, 2, fan.memo)
    with pytest.raises(ValueError, match="other normals"):
        normalized_volume(other)
    for build in (regions._arrangement, _configuration):
        with pytest.raises(ValueError, match="other normals"):
            build(other.normals, 2, fan.memo)
    assert h_all(fan, (1, 0, 0)) == (3, 0, 0)
    with pytest.raises(ValueError, match="other normals"):
        lattice_count(other)
    assert normalized_volume(HalfOpenRegion(fan.rays, (-1,) * 3, (True,) * 3, 2, fan.memo)) == 9


def test_contains_rejects_a_point_of_the_wrong_length():
    # Zipping the point with the normals used to drop or ignore entries:
    # on the quadrant both points below answered True.
    quadrant = HalfOpenRegion(((1, 0), (0, 1)), (Fraction(0), Fraction(0)), (True, True), 2)
    assert quadrant.contains((5, 1))
    for point in ((5,), (5, 1, -3)):
        with pytest.raises(ValueError, match="point has 1 coordinates|point has 3 coordinates"):
            quadrant.contains(point)


def test_contains_decides_at_the_exact_levels():
    # It compared in float arithmetic: at the level 0.1, whose exact value
    # is 3602879701896397/36028797018963968 > 1/10, the point 1/10 lay
    # inside, and a bool level read as 1.
    square = ((1, 0), (0, 1), (-1, 0), (0, -1))
    box = HalfOpenRegion(square, (0.1, 0, -1, -1), (True,) * 4, 2)
    assert not box.contains((Fraction(1, 10), 0))
    assert box.contains((Fraction(1, 10), 0)) == HalfOpenRegion(
        square, (Fraction(0.1), 0, -1, -1), (True,) * 4, 2
    ).contains((Fraction(1, 10), 0))
    assert box.contains((0.1, 0)) and box.contains((Fraction(0.1), Fraction(1, 2)))
    strict = HalfOpenRegion(square, (0.1, 0, -1, -1), (False, True, True, True), 2)
    assert strict.contains((Fraction(1, 10), 0)) and not strict.contains((0.1, 0))
    with pytest.raises(ValueError, match="bools"):
        HalfOpenRegion(square, (True, 0, -1, -1), (True,) * 4, 2).contains((0, 0))
    with pytest.raises(TypeError, match="strings"):
        HalfOpenRegion(square, ("1/2", 0, -1, -1), (True,) * 4, 2).contains((0, 0))


def test_a_region_runs_its_vertex_pass_once(monkeypatch):
    # The measures of one region object share its slot: one closure
    # table and one clearing of the row bounds, on first use; a new
    # object computes its own.
    fan = fixtures.bl1_p3()
    d = divisor([2, 1, 1, 1, 0])
    weak = range(len(fan.rays))
    measures = (closure_vertices, normalized_volume, lattice_count, lattice_points)
    expected = [measure(region(fan, d, weak)) for measure in measures]
    scans, clearings = [], []
    scan, ceilings = regions._closure_table, regions._ceilings

    def counted_scan(slot, weak):
        scans.append(slot)
        return scan(slot, weak)

    def counted_ceilings(levels, q):
        clearings.append(levels)
        return ceilings(levels, q)

    monkeypatch.setattr(regions, "_closure_table", counted_scan)
    monkeypatch.setattr(regions, "_ceilings", counted_ceilings)
    for reg in (region(fan, d, weak), HalfOpenRegion(fan.rays, tuple(-c for c in d), (True,) * 5, 3)):
        scans.clear()
        clearings.clear()
        assert [measure(reg) for measure in measures] == expected
        assert len(scans) == 1 and scans[0] is reg.slot
        assert len(clearings) == 1
    assert expected[2] == len(expected[3]) > 0 and expected[1] > 0


def test_lower_dimensional_closure():
    # Empty half-open region with a point closure: volume 0, no points.
    fan = p2()
    reg = region(fan, divisor([0, 0, 0]), frozenset())
    poly = closure_vertices(reg)
    assert set(poly.vertices) == {(Fraction(0), Fraction(0))}
    assert normalized_volume(reg) == 0
    assert lattice_points(reg) == []
    # Segment closure on the quadric surface: two vertices, volume 0.
    box = p1xp1()
    reg = region(box, scale(ray_divisor(box, 0), 2), {0, 1})
    poly = closure_vertices(reg)
    assert len(poly.vertices) == 2
    assert normalized_volume(reg) == 0
    assert lattice_points(reg) == []


def test_normalized_volume_examples():
    fan = p2()
    for d in (1, 2, 3, 4):
        reg = region(fan, scale(ray_divisor(fan, 0), d), range(3))
        assert normalized_volume(reg) == d * d
    line = p1()
    reg = region(line, scale(ray_divisor(line, 0), -2), frozenset())
    assert normalized_volume(reg) == 2
    box = p1xp1()
    d = divisor([2, 0, -3, 0])
    reg = region(box, d, {0, 1})
    assert normalized_volume(reg) == 12


def test_volume_dilation_scaling():
    fan = p1xp1()
    d = divisor([2, 0, -3, 0])
    base = normalized_volume(region(fan, d, {0, 1}))
    for m in (2, 3):
        dil = normalized_volume(region(fan, scale(d, m), {0, 1}))
        assert dil == m**fan.dim * base


def test_lattice_points_examples():
    fan = p2()
    pts = lattice_points(region(fan, ray_divisor(fan, 0), range(3)))
    assert set(pts) == {(0, 0), (-1, 0), (-1, 1)}
    line = p1()
    pts = lattice_points(region(line, scale(ray_divisor(line, 0), -2), frozenset()))
    assert pts == [(1,)]
    fan2 = p2()
    pts = lattice_points(region(fan2, scale(ray_divisor(fan2, 0), -3), frozenset()))
    assert pts == [(2, -1)]


def test_lattice_points_dilation():
    fan = p2()
    d = ray_divisor(fan, 0)
    for m in (2, 3):
        direct = set(lattice_points(region(fan, scale(d, m), range(3))))
        # m-fold dilation of the unit triangle's lattice points, recounted.
        expect = {
            (x, y)
            for x in range(-m, 1)
            for y in range(0, m + 1)
            if x >= -m and y >= 0 and -x - y >= 0
        }
        assert direct == expect


def box_scan(reg):
    """Referee for the fiber counter: test every point of the closure's box."""
    vertices = closure_vertices(reg).vertices
    if not vertices:
        return []
    box = [
        range(math.ceil(min(v[j] for v in vertices)), math.floor(max(v[j] for v in vertices)) + 1)
        for j in range(reg.dim)
    ]
    return [point for point in product(*box) if reg.contains(point)]


def weighted_projective_spaces():
    """P(1,2,3) and P(1,2,3,5): last coordinates of size 3 and 5, so the
    fiber bounds are true floor and ceiling divisions."""
    plane = make_fan(2, [(1, 0), (0, 1), (-2, -3)], [{0, 1}, {1, 2}, {2, 0}])
    rays = [(-2, -3, -5), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    space = make_fan(3, rays, [set(c) for c in combinations(range(4), 3)])
    return plane, space


def test_fibers_match_box_scan():
    rng = random.Random(31)
    flat_rows_with_points = set()
    regions_checked = 0
    for fan in [fixture() for fixture in ALL_FIXTURES] + list(weighted_projective_spaces()):
        for _ in range(2):
            d = divisor([Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5))) for _ in fan.rays])
            for subset in bounded_subsets(fan):
                reg = region(fan, d, subset)
                expected = box_scan(reg)
                assert lattice_points(reg) == expected, (fan, sorted(subset), d)
                assert lattice_count(reg) == len(expected)
                regions_checked += 1
                if expected:
                    flat_rows_with_points.update(
                        is_weak for v, is_weak in zip(reg.normals, reg.weak) if v[-1] == 0
                    )
    assert regions_checked > 400
    # Rows parallel to the fibers, weak and strict, cut nonempty regions.
    assert flat_rows_with_points == {True, False}


def fraction_closure_vertices(reg, inverses):
    """Referee for the integer vertex enumeration: Fraction inverses of the
    rank-n ray bases, kept in ``inverses`` per normal set, and a Fraction
    feasibility pass."""
    n = reg.dim
    if reg.normals not in inverses:
        units = [[int(i == j) for i in range(n)] for j in range(n)]
        bases = []
        for combo in combinations(range(len(reg.normals)), n):
            matrix = [reg.normals[i] for i in combo]
            if rank(matrix) == n:
                columns = [solve(matrix, unit) for unit in units]
                bases.append((combo, [[col[i] for col in columns] for i in range(n)]))
        inverses[reg.normals] = bases
    vertices = set()
    for combo, inverse in inverses[reg.normals]:
        rhs = [reg.levels[i] for i in combo]
        point = tuple(dot(row, rhs) for row in inverse)
        if all(
            dot(v, point) >= level if is_weak else dot(v, point) <= level
            for v, level, is_weak in zip(reg.normals, reg.levels, reg.weak)
        ):
            vertices.add(point)
    return tuple(sorted(vertices))


def test_integer_vertices_match_fraction_referee():
    rng = random.Random(47)
    inverses = {}
    regions_checked = 0
    for fan in [fixture() for fixture in ALL_FIXTURES] + list(weighted_projective_spaces()):
        for _ in range(2):
            d = divisor(
                [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 10))) for _ in fan.rays]
            )
            for subset in bounded_subsets(fan):
                reg = region(fan, d, subset)
                expected = fraction_closure_vertices(reg, inverses)
                assert closure_vertices(reg).vertices == expected, (fan, sorted(subset), d)
                bare = HalfOpenRegion(reg.normals, reg.levels, reg.weak, reg.dim)
                assert closure_vertices(bare).vertices == expected
                regions_checked += 1
    assert regions_checked > 400


def fraction_facet_vertex_sets(vertices, constraints, apex, face_dim):
    """Vertex sets of the facets of conv(vertices) avoiding the apex."""
    seen = set()
    for normal, level, _ in constraints:
        if dot(normal, apex) == level:
            continue
        tight = [v for v in vertices if dot(normal, v) == level]
        key = frozenset(tight)
        if key in seen or affine_rank(tight) != face_dim - 1:
            continue
        seen.add(key)
        yield sorted(tight)


def fraction_triangulate(vertices, constraints, face_dim):
    if len(vertices) == face_dim + 1:
        yield tuple(vertices)
        return
    apex = min(vertices)
    for facet in fraction_facet_vertex_sets(vertices, constraints, apex, face_dim):
        for simplex in fraction_triangulate(facet, constraints, face_dim - 1):
            yield (apex,) + simplex


def fraction_normalized_volume(reg, inverses):
    """Referee for the integer volumes: the Fraction pulling triangulation,
    re-deriving each facet by dot products over every row, on the vertices
    of the Fraction vertex referee."""
    vertices = list(fraction_closure_vertices(reg, inverses))
    n = reg.dim
    if affine_rank(vertices) < n:
        return Fraction(0)
    total = Fraction(0)
    constraints = list(zip(reg.normals, reg.levels, reg.weak))
    for simplex in fraction_triangulate(sorted(vertices), constraints, n):
        base = simplex[0]
        rows = [tuple(a - b for a, b in zip(v, base)) for v in simplex[1:]]
        total += abs(det(rows))
    return total


def test_integer_volumes_match_fraction_referee():
    rng = random.Random(53)
    inverses = {}
    regions_checked = positive = 0
    for fan in [fixture() for fixture in ALL_FIXTURES] + list(weighted_projective_spaces()):
        divisors = [divisor([0] * len(fan.rays))] + [
            divisor([Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5, 10))) for _ in fan.rays])
            for _ in range(2)
        ]
        for d in divisors:
            for subset in bounded_subsets(fan):
                reg = region(fan, d, subset)
                expected = fraction_normalized_volume(reg, inverses)
                assert normalized_volume(reg) == expected, (fan, sorted(subset), d)
                bare = HalfOpenRegion(reg.normals, reg.levels, reg.weak, reg.dim)
                assert normalized_volume(bare) == expected
                regions_checked += 1
                positive += expected > 0
    assert regions_checked > 600
    assert positive > 50


def p3():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    return make_fan(3, rays, [set(c) for c in combinations(range(4), 3)])


def test_fiber_budget(monkeypatch):
    fan, space = p2(), p3()
    big = 10**9
    # Counts in 2-D no longer grow with m: h^0 of 10^9 * D_0 on P^2 is exact.
    assert h_all(fan, scale(ray_divisor(fan, 0), big)) == (math.comb(big + 2, 2), 0, 0)
    # The h^0 simplex of 10^9 * D_0 on P^3 has 10^9 + 1 slices: past the budget.
    with pytest.raises(CapExceededError, match="fibers"):
        h_all(space, scale(ray_divisor(space, 0), big))
    monkeypatch.setattr(regions, "FIBER_BUDGET", 100)
    # A listing is capped by its points too: the h^0 triangle of 12 * D_0
    # has 91 points, within the budget, and 13 * D_0 has 105.
    triangle = region(fan, scale(ray_divisor(fan, 0), 12), range(3))
    assert len(lattice_points(triangle)) == 13 * 14 // 2
    with pytest.raises(CapExceededError, match="105 lattice points"):
        lattice_points(region(fan, scale(ray_divisor(fan, 0), 13), range(3)))
    # The h^0 simplex of 99 * D_0 on P^3 has 100 slices: at the budget it counts.
    simplex = region(space, scale(ray_divisor(space, 0), 99), range(4))
    assert lattice_count(simplex) == math.comb(102, 3)
    with pytest.raises(CapExceededError):
        lattice_count(region(space, scale(ray_divisor(space, 0), 100), range(4)))


def test_a_listing_past_the_budget_raises_before_listing(monkeypatch):
    # 10^4 * (D_0 + D_1 + D_2) on P^2 spans 3 * 10^4 + 1 fibers, far under
    # the prefix cap, but holds C(3 * 10^4 + 2, 2) ~ 4.5 * 10^8 points: it
    # is counted, refused, and no fiber is walked.
    fan = p2()
    reg = region(fan, divisor([10**4] * 3), range(3))
    walked = []
    monkeypatch.setattr(regions, "_fibers", lambda *args: walked.append(args))
    with pytest.raises(CapExceededError, match=f"{math.comb(3 * 10**4 + 2, 2)} lattice points"):
        lattice_points(reg)
    assert walked == []
    assert lattice_count(reg) == math.comb(3 * 10**4 + 2, 2)


def test_floor_sum_matches_brute_force():
    rng = random.Random(61)
    cases = [(0, 1, 0, 0), (0, 7, -3, 5), (5, 1, -3, 4), (1, 1, 0, -9)]
    cases += [
        (rng.randint(0, 40), rng.randint(1, 30), rng.randint(-60, 60), rng.randint(-300, 300))
        for _ in range(400)
    ]
    for n, m, a, b in cases:
        expected = sum((a * i + b) // m for i in range(n))
        assert floor_sum(n, m, a, b) == expected, (n, m, a, b)


def test_slice_count_matches_fiber_listing():
    # lattice_count walks 2-D slices with floor sums; lattice_points
    # still lists the fibers along the last axis.
    rng = random.Random(67)
    fans = [fixture() for fixture in ALL_FIXTURES] + list(weighted_projective_spaces())
    regions_checked = positive = 0
    for fan in fans:
        k = len(fan.rays)
        base = divisor([Fraction(rng.randint(-4, 4), rng.choice((2, 3, 5, 7))) for _ in range(k)])
        ample = divisor([1] * k)
        dilations = (1, 2, 13, 300) if fan.dim <= 2 else (1, 2, 5, 14)
        divisors = [divisor([0] * k)] + [scale(d, m) for d in (base, ample) for m in dilations]
        for d in divisors:
            for subset in bounded_subsets(fan):
                reg = region(fan, d, subset)
                expected = len(lattice_points(reg))
                assert lattice_count(reg) == expected, (fan, sorted(subset), d)
                regions_checked += 1
                positive += expected > 0
    # Bare regions on random rows: steep envelopes, rows with a zero last
    # coefficient and gaps that change sign between two integers.
    for dim in (2, 3):
        for _ in range(400):
            k = rng.randint(dim + 1, dim + 3)
            normals = tuple(tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(k))
            levels = tuple(
                Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 5, 7))) for _ in range(k)
            )
            weak = tuple(rng.random() < 0.5 for _ in range(k))
            reg = HalfOpenRegion(normals, levels, weak, dim)
            try:
                expected = len(lattice_points(reg))
            except UnboundedRegionError:
                continue
            assert lattice_count(reg) == expected, reg
            regions_checked += 1
            positive += expected > 0
    assert regions_checked > 2000
    assert positive > 250


def test_floor_sum_calls_independent_of_m(monkeypatch):
    # A new fan on p2's data: the shared fixture may already hold the
    # amounts of one of these divisors in its region-sum slot, and then
    # counts no slice for it.
    shared = p2()
    fan = make_fan(shared.dim, shared.rays, shared.max_cones)
    calls = []

    def counted(*args):
        calls.append(args)
        return floor_sum(*args)

    monkeypatch.setattr(regions, "floor_sum", counted)
    counts = []
    for m in (10, 300, 10**9):
        calls.clear()
        assert h_all(fan, scale(ray_divisor(fan, 0), m)) == (math.comb(m + 2, 2), 0, 0)
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2] > 0


def test_region_partition_property():
    rng = random.Random(23)
    for fan in (p2(), p1xp1(), f1()):
        k = len(fan.rays)
        for _ in range(100):
            d = divisor([Fraction(rng.randint(-10, 10), rng.randint(1, 3)) for _ in range(k)])
            point = tuple(rng.randint(-6, 6) for _ in range(fan.dim))
            home = weak_ray_set(fan, d, point)
            hits = []
            for size in range(k + 1):
                from itertools import combinations

                for combo in combinations(range(k), size):
                    if region(fan, d, combo).contains(point):
                        hits.append(frozenset(combo))
            assert hits == [home]


def test_ehrhart_probe_p2():
    fan = p2()
    table = ehrhart_probe(fan, ray_divisor(fan, 0), range(3), 5)
    counts = [3, 6, 10, 15, 21]
    expected = [Fraction(c * 2, m**2) for m, c in zip(range(1, 6), counts)]
    assert [row[1] for row in table] == expected


def test_ehrhart_probe_p1_and_zero():
    line = p1()
    table = ehrhart_probe(line, scale(ray_divisor(line, 0), -2), frozenset(), 6)
    assert [row[1] for row in table] == [Fraction(2 * m - 1, m) for m in range(1, 7)]
    fan = p2()
    table = ehrhart_probe(fan, divisor([0, 0, 0]), range(3), 4)
    assert [row[1] for row in table] == [Fraction(2, m**2) for m in range(1, 5)]


def test_ehrhart_cap():
    with pytest.raises(CapExceededError):
        ehrhart_probe(p1(), ray_divisor(p1(), 0), {0, 1}, 51)


def test_volume_additivity_and_recession_certificates():
    fan = f1()
    d = divisor([2, 1, 1, 1])
    total = Fraction(0)
    for subset in bounded_subsets(fan):
        total += normalized_volume(region(fan, d, subset))
    assert total > 0  # finite sum, no exceptions on the bounded family
    from itertools import combinations

    from general_lp import solve_lp

    for size in range(len(fan.rays) + 1):
        for combo in combinations(range(len(fan.rays)), size):
            subset = frozenset(combo)
            if subset in set(bounded_subsets(fan)):
                continue
            rows = [
                fan.rays[i] if i in subset else tuple(-v for v in fan.rays[i])
                for i in range(len(fan.rays))
            ]
            # LP certificate: some coordinate functional is unbounded.
            unbounded = False
            for j in range(fan.dim):
                for sign in (1, -1):
                    c = [0] * fan.dim
                    c[j] = sign
                    res = solve_lp(c, [[-v for v in r] for r in rows], [0] * len(rows), maximize=True)
                    if res.status == "unbounded":
                        unbounded = True
            assert unbounded

"""Slab sums of lattice counts in dimension 3 and 4 against the per-prefix walk they shorten.

``regions._lattice_count`` sums the slices of every count of dimension
n >= 3 slab by slab (``regions._slab_count``), once per integer point
of the box's first n - 3 ranges: over the range of coordinate n - 2, a
range of at most 4p integers, p the plan's period, is summed slice by
slice, and on a wider one each slab of more than 4p integers between
two breakpoints is read off four slices per residue class.  The referee
here is the walk every such count ran before: one slice per integer
point of the box's first n - 2 ranges, cut by the plan's rows and
counted by ``regions._slice_count``, which the plain point scan of
``test_count_plans`` referees on its own.  The work pins are counts of
slices, with no clock: every count evaluates exactly the slices that
its breakpoints, found here with ``Fraction`` by Cramer's rule on the
last three coordinates, leave to it, never more than the walk.
"""

import inspect
import itertools
import math
import operator
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial

from test_count_plans import star_fan
from test_dim4 import p1_x_p3, p4
from test_region_sum import fresh
from toricvol import fixtures, regions
from toricvol.cohomology import h_all
from toricvol.errors import ToricError
from toricvol.fan import make_fan
from toricvol.regions import lattice_count, region

WIDE_FANS = (
    fixtures.bl1_p3,
    fixtures.p1_cubed,
    fixtures.cube_fan,
    *(partial(star_fan, s) for s in (3, 6, 10)),
)
WIDE_FANS_4D = (p4, p1_x_p3, *(partial(star_fan, s, dim=4) for s in (3, 6)))


def facet_rows(plan, ceilings):
    """The plan's facets as weak integer rows (a, c), <a, x> >= c, off the row bounds ceil(L_i)."""
    return [(a, ceilings[i] if weak else 1 - ceilings[i]) for i, weak, a in plan.facets]


def walked_count(plan, ceilings, box):
    """The per-prefix walk: one ``_slice_count`` per integer point of the box's first n - 2 ranges."""
    rows = facet_rows(plan, ceilings)
    total = 0
    for prefix in itertools.product(*box[:-1]):
        c = [bound - sum(map(operator.mul, a, prefix)) for a, bound in rows]
        lo, hi = box[-1].start, box[-1].stop - 1
        for j, alpha in plan.flat:
            if alpha > 0:
                lo = max(lo, -(-c[j] // alpha))
            elif alpha < 0:
                hi = min(hi, c[j] // alpha)
            elif c[j] > 0:
                break
        else:
            lower = [(p, c[j], r) for j, p, r in plan.lower]
            total += regions._slice_count(lower, [(p, -c[j], r) for j, p, r in plan.upper], lo, hi)
    return total


def wide_divisors(fan, rng, rounds):
    """Seeded divisors with entries up to +-60, integer and rational, and dilations of small ones."""
    k = len(fan.rays)
    for _ in range(rounds):
        yield tuple(rng.randint(-60, 60) for _ in range(k))
        yield tuple(Fraction(rng.randint(-60, 60), rng.choice((2, 3, 7))) for _ in range(k))
        yield tuple(rng.choice((15, 20)) * rng.randint(-3, 3) for _ in range(k))
        yield (rng.randint(20, 60),) * k


def recorded_counts(monkeypatch, makes, seed, rounds=lambda k: 3 if k > 10 else 10):
    """(plan, ceilings, box, count, slices) of every count of h_all on the wide divisors.

    A fan of k rays takes ``rounds(k)`` rounds of ``wide_divisors``.
    ``slices`` is the number of slices the count evaluated, every one of
    them built by ``regions._plan_slice``.
    """
    counts, evaluated = [], []
    core, build = regions._lattice_count, regions._plan_slice

    def count(plan, ceilings, box):
        before = len(evaluated)
        total = core(plan, ceilings, box)
        counts.append((plan, ceilings, box, total, len(evaluated) - before))
        return total

    def built(*args):
        evaluated.append(args)
        return build(*args)

    monkeypatch.setattr(regions, "_lattice_count", count)
    monkeypatch.setattr(regions, "_plan_slice", built)
    for make in makes:
        fan = fresh(make())
        rng = random.Random(seed + len(fan.rays))
        for d in wide_divisors(fan, rng, rounds(len(fan.rays))):
            h_all(fan, d)
    monkeypatch.undo()
    return counts


def det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def expected_slices(plan, ceilings, box):
    """The slices a count over ``box`` evaluates: one slab sum per integer point of its first n - 3 ranges.

    Each fixes the first n - 3 coordinates and leaves the rows' last
    three entries, their bounds shifted by the rest.
    """
    rows = facet_rows(plan, ceilings)
    return sum(
        slab_slices([(a[-3:], c - sum(map(operator.mul, a, prefix))) for a, c in rows], box[-2])
        for prefix in itertools.product(*box[:-2])
    )


def slab_slices(rows, xs):
    """The slices a slab sum of 3-D rows over ``xs`` evaluates: all of them, less 4p fewer per slab of w > 4p integers.

    p is the lcm of the nonzero 2 x 2 minors of the rows' last two
    entries, and the breakpoints are the first coordinates where three
    planes <a, x> = c meet, solved here by Cramer's rule.  A slab is a
    run of consecutive integers of ``xs`` with no breakpoint on or
    between them.
    """
    p = math.lcm(*{abs(a[1] * b[2] - a[2] * b[1]) for (a, _), (b, _) in itertools.combinations(rows, 2)} - {0})
    if len(xs) <= 4 * p:
        return len(xs)
    points = set()
    for triple in itertools.combinations(rows, 3):
        det = det3([a for a, _ in triple])
        if det:
            points.add(Fraction(det3([(c, a[1], a[2]) for a, c in triple]), det))
    points = sorted(points)
    slabs, width = [], 0
    for x in xs:
        if x in points:
            slabs.append(width)
            width = 0
            continue
        width += 1
        if x + 1 in points or bisect_right(points, x) != bisect_left(points, x + 1):
            slabs.append(width)
            width = 0
    slabs.append(width)
    return len(xs) - sum(max(w - 4 * p, 0) for w in slabs)


def test_slab_counts_match_the_per_prefix_walk_on_wide_boxes(monkeypatch):
    counts = recorded_counts(monkeypatch, WIDE_FANS, 2039)
    for plan, ceilings, box, total, slices in counts:
        assert total == walked_count(plan, ceilings, box), (plan.facets, ceilings, box)
        assert slices == expected_slices(plan, ceilings, box) <= len(box[0]), (plan.facets, ceilings, box)
    wide = sum(len(box[0]) > 20 for _, _, box, _, _ in counts)
    shortened = sum(slices < len(box[0]) for _, _, box, _, slices in counts)
    assert wide > 1000 and shortened > 700, (wide, shortened)


def test_4d_slab_counts_match_the_per_prefix_walk_on_wide_boxes(monkeypatch):
    # Every 4-D count is one slab sum per integer of its first range, each
    # on the rows' last three entries shifted by a[0] x_1; the walk takes
    # one slice per point of the first two ranges.
    counts = recorded_counts(monkeypatch, WIDE_FANS_4D, 4099, lambda k: 1 if k > 6 else 5)
    for plan, ceilings, box, total, slices in counts:
        assert len(box) == 3
        assert total == walked_count(plan, ceilings, box), (plan.facets, ceilings, box)
        walk = len(box[0]) * len(box[1])
        assert slices == expected_slices(plan, ceilings, box) <= walk, (plan.facets, ceilings, box)
    wide = sum(len(box[1]) > 20 for _, _, box, _, _ in counts)
    shortened = sum(slices < len(box[0]) * len(box[1]) for _, _, box, _, slices in counts)
    assert wide > 80 and shortened > 100, (wide, shortened)


def degree_one_slab_count():
    """``regions._slab_count`` with each class fitted by a line through its first two nodes, unchecked."""
    source = inspect.getsource(regions._slab_count)
    mutated = source.replace("d1, d2 = f1 - f0, f2 - 2 * f1 + f0", "d1, d2 = f1 - f0, 0")
    mutated = mutated.replace("raise ToricError(", "(")
    assert mutated.count("d2 = f1 - f0, 0") == 1 and "raise" not in mutated
    namespace = dict(vars(regions))
    exec(compile(mutated, regions.__file__, "exec"), namespace)
    return namespace["_slab_count"]


def test_a_degree_one_fit_fails_the_walk_referee(monkeypatch):
    # The referee sees the quadratic term: a slab sum fitted by lines,
    # with its check slice ignored, miscounts wide boxes it walks right.
    monkeypatch.setattr(regions, "_slab_count", degree_one_slab_count())
    counts = recorded_counts(monkeypatch, WIDE_FANS[:1], 2039)
    wrong = sum(total != walked_count(plan, ceilings, box) for plan, ceilings, box, total, _ in counts)
    assert wrong > 30, wrong


def test_a_wrong_node_slice_raises():
    # The h^0 simplex of 100 D_0 on P^3 spans x = -100..0: its two ends
    # are breakpoints counted directly, and the 99 integers between them
    # are one slab of period 1, read off three node slices and checked on
    # its last one.  One slice off by one raises when it is a node or the
    # check, and moves the count when it is counted directly.
    space = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    simplex = region(space, (100, 0, 0, 0), range(4))
    assert lattice_count(simplex) == math.comb(103, 3)
    walk = regions._slice_count
    outcomes = []
    for wrong in range(6):
        calls = []

        def skewed(*args):
            calls.append(args)
            return walk(*args) + (len(calls) - 1 == wrong)

        regions._slice_count = skewed
        try:
            outcomes.append(lattice_count(region(space, (100, 0, 0, 0), range(4))) - math.comb(103, 3))
            assert len(calls) == 6
        except ToricError as error:
            assert "not quadratic" in str(error)
            outcomes.append("raised")
        finally:
            regions._slice_count = walk
    assert sorted(outcomes, key=str) == [1, 1, "raised", "raised", "raised", "raised"], outcomes


def test_h0_of_a_large_dilation_of_bl1_p3_matches_its_closed_form(monkeypatch):
    # h^0(m (D_0 + D_1 + D_2 + D_3)) on bl1_p3 is the lattice points of the
    # simplex of 4m H less those of the cut corner, C(4m+3, 3) - C(3m+2, 3),
    # at m = 10^5, where a walk visits 4 * 10^5 + 1 slices for the one
    # region: its slab sums read 11.
    m = 10**5
    fan = fresh(fixtures.bl1_p3())
    slices = []
    walk = regions._slice_count
    monkeypatch.setattr(regions, "_slice_count", lambda *args: slices.append(args) or walk(*args))
    assert h_all(fan, (m, m, m, m, 0)) == (math.comb(4 * m + 3, 3) - math.comb(3 * m + 2, 3), 0, 0, 0)
    assert len(slices) == 11


def test_the_slab_path_needs_no_prefix_list(monkeypatch):
    # The cap is checked by counting the box's prefixes: a slab count
    # never lists them, so no product of the box is built.
    fan = fresh(fixtures.bl1_p3())
    built = []
    real = regions.product
    monkeypatch.setattr(regions, "product", lambda *ranges: built.append(ranges) or real(*ranges))
    m = 10**6
    assert h_all(fan, (m, m, m, m, 0))[0] == math.comb(4 * m + 3, 3) - math.comb(3 * m + 2, 3)
    assert built == []

import gc
import random
import weakref
from fractions import Fraction
from itertools import combinations

import pytest

from complex_referees import EVERY_FIXTURE, intersection_ray_set
from general_lp import cone_contains
from toricvol.asymptotics import hhat, mixed_partial_h0
from toricvol.cohomology import euler_char, h_all
from toricvol.divisor import divisor
from toricvol.errors import InvalidFanError, NotSimplicialError
from toricvol.fan import (
    Cone,
    all_cones,
    chi_of_fan,
    cone_multiplicity,
    fan_diagnostics,
    is_complete,
    is_simplicial,
    make_fan,
    primitivize,
    subfan,
    validate_fan,
)
from toricvol.fixtures import (
    cube_fan,
    f1,
    p1,
    p1_cubed,
    p1xp1,
    p2,
    quadrant_fan,
    square_cone_fan,
)
from toricvol.gkz import (
    ample_via_asymptotics,
    enumerate_maximal_chambers,
    gkz_cone,
    locate_chamber,
)


def test_validate_p2():
    fan = validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {2, 0}])
    assert fan.dim == 2
    assert len(fan.max_cones) == 3


def test_validate_non_primitive_ray():
    diags, fan = fan_diagnostics(2, [(2, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {2, 0}])
    assert "ray 0 not primitive" in diags
    assert fan is not None  # repaired
    assert fan.rays[0] == (1, 0)
    with pytest.warns(UserWarning):
        validate_fan(2, [(2, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {2, 0}])


def test_validate_improper_intersection():
    diags, fan = fan_diagnostics(2, [(1, 0), (0, 1), (1, 1)], [{0, 1}, {0, 2}])
    assert fan is None
    assert any("improper intersection" in d for d in diags)


def test_validate_rejects_line():
    diags, fan = fan_diagnostics(2, [(1, 0), (-1, 0)], [{0, 1}])
    assert fan is None
    assert any("not strongly convex" in d for d in diags)


def test_validate_rejects_zero_and_duplicate():
    diags, fan = fan_diagnostics(2, [(0, 0), (0, 1)], [{0, 1}])
    assert fan is None
    diags, fan = fan_diagnostics(2, [(1, 0), (2, 0)], [{0}, {1}])
    assert fan is None
    assert any("duplicates" in d for d in diags)
    with pytest.raises(ValueError, match="zero vector"):
        primitivize((0, 0))


@pytest.mark.parametrize("dim", [0, -1])
def test_validate_rejects_nonpositive_dimension(dim):
    assert fan_diagnostics(dim, [], []) == ([f"dimension {dim} is not positive"], None)
    with pytest.raises(InvalidFanError):
        validate_fan(dim, [], [])


def test_validate_rejects_repeated_ray_in_cone():
    # A repeated index must not be merged away: [2, 0, 0] is not the cone {0, 2}.
    diags, fan = fan_diagnostics(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [2, 0, 0]])
    assert fan is None
    assert "cone 2 repeats ray 0" in diags


@pytest.mark.parametrize(
    "dim, rays, cones, message",
    [
        (2, [(1.5, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {2, 0}], "ray 0 has entries [1.5]"),
        (2, [(1, 0), ("1", 1), (-1, -1)], [{0, 1}, {1, 2}, {2, 0}], "ray 1 has entries ['1']"),
        (2, [(1, 0), (0, True), (-1, -1)], [{0, 1}, {1, 2}, {2, 0}], "ray 1 has entries [True]"),
        (2, [(1, 0), (0, 1), (-1, -1)], [{0.9, 1}, {1, 2}, {2, 0}], "cone 0 has indices [0.9]"),
        (2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, "2"}, {2, 0}], "cone 1 has indices ['2']"),
        (2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {2, False}], "cone 2 has indices [False]"),
        (2.0, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {2, 0}], "dimension 2.0 is not an integer"),
        (True, [(1,), (-1,)], [{0}, {1}], "dimension True is not an integer"),
        ("2", [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {2, 0}], "dimension '2' is not an integer"),
    ],
)
def test_validate_rejects_entries_that_are_not_ints(dim, rays, cones, message):
    # Each of these used to be repaired: 1.5 read as 1, index 0.9 as 0, and
    # "1" parsed, so a different fan was validated than the one given.
    diags, fan = fan_diagnostics(dim, rays, cones)
    assert fan is None
    assert any(diag.startswith(message) for diag in diags), diags
    with pytest.raises(InvalidFanError):
        validate_fan(dim, rays, cones)


def test_validate_redundant_generator():
    # (1,1) sits inside the quadrant spanned by the other two rays.
    diags, fan = fan_diagnostics(2, [(1, 0), (0, 1), (1, 1)], [{0, 1, 2}])
    assert fan is None
    assert any("extreme" in d for d in diags)


def test_completeness():
    assert is_complete(p2())
    assert is_complete(p1())
    assert is_complete(p1xp1())
    assert is_complete(f1())
    assert is_complete(p1_cubed())
    assert is_complete(cube_fan())
    assert not is_complete(quadrant_fan())
    assert not is_complete(square_cone_fan())


def test_simpliciality():
    assert is_simplicial(p2())
    assert is_simplicial(p1())
    assert not is_simplicial(square_cone_fan())
    assert not is_simplicial(cube_fan())


def test_all_cones_counts():
    assert [len(b) for b in all_cones(p2())] == [1, 3, 3]
    assert [len(b) for b in all_cones(p1xp1())] == [1, 4, 4]
    assert [len(b) for b in all_cones(p1())] == [1, 2]
    # Cube fan: 1 zero cone, 8 rays, 12 edges, 6 squares.
    assert [len(b) for b in all_cones(cube_fan())] == [1, 8, 12, 6]


def test_subfan_examples():
    fan = p2()
    empty = subfan(fan, frozenset())
    assert empty.cone_counts() == (1, 0, 0)
    two = subfan(fan, {0, 1})
    assert two.cone_counts() == (1, 2, 1)
    mixed = subfan(p1xp1(), {0, 1})
    assert mixed.cone_counts() == (1, 2, 0)


def test_subfan_monotone_and_full():
    fan = f1()
    full = subfan(fan, range(4))
    assert full.cone_counts() == tuple(len(b) for b in all_cones(fan))
    rng = random.Random(5)
    for _ in range(20):
        small = frozenset(i for i in range(4) if rng.random() < 0.5)
        big = small | frozenset(i for i in range(4) if rng.random() < 0.5)
        cones_small = {c.ray_indices for b in subfan(fan, small).cones_by_dim for c in b}
        cones_big = {c.ray_indices for b in subfan(fan, big).cones_by_dim for c in b}
        assert cones_small <= cones_big


def test_chi_examples():
    fan = p2()
    assert chi_of_fan(fan) == 1
    assert chi_of_fan(subfan(fan, frozenset())) == 1
    assert chi_of_fan(subfan(fan, {0})) == 0


def test_chi_matches_direct_count():
    for fixture in (p2(), p1xp1(), f1(), p1_cubed()):
        piece = subfan(fixture, range(len(fixture.rays)))
        by_hand = sum((-1) ** j * len(b) for j, b in enumerate(piece.cones_by_dim))
        assert chi_of_fan(fixture) == by_hand


def test_cone_multiplicity():
    fan = p2()
    assert cone_multiplicity(fan, Cone(frozenset({0, 1}), 2)) == 1
    mult2 = make_fan(2, [(1, 0), (1, 2)], [{0, 1}])
    assert cone_multiplicity(mult2, Cone(frozenset({0, 1}), 2)) == 2
    mult2b = make_fan(2, [(1, 1), (1, -1)], [{0, 1}])
    assert cone_multiplicity(mult2b, Cone(frozenset({0, 1}), 2)) == 2
    assert cone_multiplicity(fan, Cone(frozenset(), 0)) == 1
    assert cone_multiplicity(fan, Cone(frozenset({0}), 1)) == 1
    with pytest.raises(NotSimplicialError):
        cone_multiplicity(square_cone_fan(), Cone(frozenset({0, 1, 2, 3}), 3))


def test_intersection_ray_set():
    fan = p1xp1()
    cones = list(fan.max_cones)
    assert intersection_ray_set(fan, [cones[0], cones[0]]) == cones[0]
    shared = intersection_ray_set(fan, [frozenset({0, 2}), frozenset({1, 2})])
    assert shared == frozenset({2})
    opposite = intersection_ray_set(fan, [frozenset({0, 2}), frozenset({1, 3})])
    assert opposite == frozenset()


def test_cone_intersections_are_ray_set_intersections():
    # The Cech nerve intersects ray sets; the all-cones scan is its referee.
    checked = 0
    for make in EVERY_FIXTURE:
        fan = make()
        cones = [c.ray_indices for bucket in all_cones(fan) for c in bucket]
        for size in range(1, 5):
            for group in combinations(cones, size):
                assert intersection_ray_set(fan, group) == frozenset.intersection(*group)
                checked += 1
    assert checked == 52018


def _random_rational_direction(rng, n):
    while True:
        vec = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(n))
        if any(vec):
            return vec


@pytest.mark.parametrize("fixture,expected", [(p2, True), (p1xp1, True), (quadrant_fan, False)])
def test_completeness_monte_carlo(fixture, expected):
    fan = fixture()
    rng = random.Random(17)
    samples = 1000
    covered = 0
    for _ in range(samples):
        vec = _random_rational_direction(rng, fan.dim)
        if any(
            cone_contains([fan.rays[i] for i in mc], vec) for mc in fan.max_cones
        ):
            covered += 1
    if expected:
        assert covered == samples
    else:
        assert covered < samples
    assert is_complete(fan) is expected


def test_fan_freed_without_cycle_collection():
    # Nothing a fan's memo holds points back at the fan, so reference
    # counting alone frees a used fan and its whole memo.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        fan = make_fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [{0, 3}, {3, 1}, {1, 2}, {2, 0}])
        d = divisor([1, 2, -1, 1])
        h_all(fan, d)
        hhat(fan, d)
        euler_char(fan, d)
        sample = enumerate_maximal_chambers(fan)[0].sample_divisor
        locate_chamber(fan, sample)
        gkz_cone(fan, fan.max_cones, frozenset())
        mixed_partial_h0(fan, sample, [0])
        assert ample_via_asymptotics(fan, divisor([2, 2, 1, 1]))
        alive = weakref.ref(fan)
        del fan
        assert alive() is None
    finally:
        if was_enabled:
            gc.enable()

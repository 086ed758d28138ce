from itertools import combinations

import pytest

from complex_referees import EVERY_FIXTURE, per_subset_sphere_complex
from generated_fans import star_fan_data
from toricvol import homology
from toricvol.fan import chi_of_fan, is_complete, is_simplicial, make_fan, subfan
from toricvol.fixtures import bl1_p3, cube_fan, f1, p1, p1_cubed, p1xp1, p2, square_cone_fan
from toricvol.homology import (
    local_cohomology_ranks,
    reduced_homology_ranks,
    sphere_complex,
)

FIXTURES = [p1, p2, p1xp1, f1, p1_cubed, cube_fan]


def all_subsets(fan):
    k = len(fan.rays)
    for size in range(k + 1):
        yield from (frozenset(c) for c in combinations(range(k), size))


def test_sphere_complex_p2_full():
    fan = p2()
    complex_ = sphere_complex(fan, {0, 1, 2})
    # Boundary of a triangle: three vertices, three edges, the empty face.
    assert len(complex_.by_size(1)) == 3
    assert len(complex_.by_size(2)) == 3
    assert complex_.by_size(0) == [()]


def test_sphere_complex_empty():
    fan = p2()
    complex_ = sphere_complex(fan, frozenset())
    assert complex_.is_empty
    assert complex_.by_size(0) == [()]
    assert complex_.by_size(1) == []


def test_sphere_complex_two_points():
    fan = p1xp1()
    complex_ = sphere_complex(fan, {0, 1})
    assert len(complex_.by_size(1)) == 2
    assert len(complex_.by_size(2)) == 0


def test_reduced_ranks_circle():
    fan = p2()
    tilde = reduced_homology_ranks(sphere_complex(fan, {0, 1, 2}))
    # Degrees -1, 0, 1: a circle.
    assert tilde == (0, 0, 1)


def test_reduced_ranks_empty_complex():
    fan = p2()
    tilde = reduced_homology_ranks(sphere_complex(fan, frozenset()))
    assert tilde[0] == 1
    assert all(r == 0 for r in tilde[1:])


def test_reduced_ranks_two_points():
    fan = p1xp1()
    tilde = reduced_homology_ranks(sphere_complex(fan, {0, 1}))
    assert tilde == (0, 1, 0)


def test_profiles_p2():
    fan = p2()
    assert local_cohomology_ranks(fan, {0, 1, 2}) == (1, 0, 0)
    assert local_cohomology_ranks(fan, frozenset()) == (0, 0, 1)
    assert local_cohomology_ranks(fan, {0, 1}) == (0, 0, 0)


def test_profiles_p1xp1():
    fan = p1xp1()
    assert local_cohomology_ranks(fan, {0, 1}) == (0, 1, 0)
    assert local_cohomology_ranks(fan, {2, 3}) == (0, 1, 0)


def test_profile_complete_fan_is_top():
    for fixture in FIXTURES:
        fan = fixture()
        profile = local_cohomology_ranks(fan, frozenset(range(len(fan.rays))))
        assert profile == (1,) + (0,) * fan.dim


def test_chi_lemma_exhaustive():
    # Alternating profile sum equals the signed cone count, every subset.
    for fixture in FIXTURES:
        fan = fixture()
        n = fan.dim
        for subset in all_subsets(fan):
            profile = local_cohomology_ranks(fan, subset)
            lhs = sum((-1) ** i * r for i, r in enumerate(profile))
            rhs = (-1) ** n * chi_of_fan(subfan(fan, subset))
            assert lhs == rhs, (fixture.__name__, sorted(subset))


def renumbered(fan):
    """A copy of the fan with ray i renamed k - 1 - i.

    Pulling from its lowest-index ray pulls from the original's highest.
    """
    k = len(fan.rays)
    return make_fan(fan.dim, fan.rays[::-1], [{k - 1 - i for i in c} for c in fan.max_cones])


def test_triangulation_reversal_invariance():
    # The cube fan has non-simplicial cones, so pulling order matters there.
    for fixture in (cube_fan, square_cone_fan, p2, bl1_p3, p1_cubed):
        fan = fixture()
        flipped, k = renumbered(fan), len(fan.rays)
        for subset in all_subsets(fan):
            forward = reduced_homology_ranks(sphere_complex(fan, subset))
            backward = reduced_homology_ranks(
                sphere_complex(flipped, {k - 1 - i for i in subset})
            )
            assert forward == backward, (fixture.__name__, sorted(subset))


@pytest.mark.parametrize("fixture", EVERY_FIXTURE, ids=lambda f: f.__name__)
def test_sphere_complex_matches_per_subset_referee(fixture):
    # The carrier filter of one triangulation per fan against a fresh
    # triangulation of each subfan, pulled from the lowest ray and, via
    # the renumbered copy, from the highest.
    fan = fixture()
    flipped, k = renumbered(fan), len(fan.rays)
    for subset in all_subsets(fan):
        assert sphere_complex(fan, subset) == per_subset_sphere_complex(fan, subset)
        pulled_high = sphere_complex(flipped, {k - 1 - i for i in subset})
        assert {frozenset(k - 1 - i for i in s) for s in pulled_high.simplices} == (
            per_subset_sphere_complex(fan, subset, lambda i: -i).simplices
        ), (fixture.__name__, sorted(subset))


def test_rank_vectors_triangulate_the_fan_once(monkeypatch):
    fan = make_fan(3, cube_fan().rays, cube_fan().max_cones)
    calls = []
    triangulate = homology._triangulate_cone

    def counted(*args):
        calls.append(args)
        return triangulate(*args)

    monkeypatch.setattr(homology, "_triangulate_cone", counted)
    first, *rest = all_subsets(fan)
    local_cohomology_ranks(fan, first)
    assert calls
    during_first = len(calls)
    for subset in rest:
        local_cohomology_ranks(fan, subset)
    assert len(calls) == during_first


def test_unbounded_subsets_have_zero_profiles():
    from toricvol.regions import is_bounded_subset

    for fixture in (p2, p1xp1, f1):
        fan = fixture()
        for subset in all_subsets(fan):
            if not is_bounded_subset(fan, subset):
                assert local_cohomology_ranks(fan, subset) == (0,) * (fan.dim + 1)


def complete_simplicial_fans():
    """Every complete simplicial fixture (p1 among them), star1..star6 and poly12, each fresh."""
    from test_region_sum import POLY12_RAYS

    k = len(POLY12_RAYS)
    fans = [make_fan(f().dim, f().rays, f().max_cones) for f in EVERY_FIXTURE if is_complete(f()) and is_simplicial(f())]
    fans += [make_fan(*star_fan_data(splits)) for splits in range(1, 7)]
    return fans + [make_fan(2, POLY12_RAYS, [{i, (i + 1) % k} for i in range(k)])]


def test_component_ranks_match_the_sphere_complex_on_every_subset():
    # Counting components (with Alexander duality for n = 3) against the
    # boundary ranks of the sphere complex, on every ray subset.
    fans = complete_simplicial_fans()
    assert {fan.dim for fan in fans} == {1, 2, 3}
    for fan in fans:
        for subset in all_subsets(fan):
            tilde = reduced_homology_ranks(sphere_complex(fan, subset))
            assert local_cohomology_ranks(fan, subset) == tilde[::-1], (fan.rays, sorted(subset))


def test_only_non_simplicial_or_4d_fans_rank_sphere_complexes(monkeypatch):
    # The rule is read off the fan alone: cube_fan (not simplicial) and
    # P^4 (n = 4) rank the matrices of their sphere complexes, and a
    # complete simplicial fan of dimension <= 3 never does.
    from test_dim4 import p4

    calls = []
    ranks = homology.reduced_homology_ranks

    def counted(complex_):
        calls.append(complex_)
        return ranks(complex_)

    monkeypatch.setattr(homology, "reduced_homology_ranks", counted)
    for fixture in (cube_fan, p4):
        fan = make_fan(fixture().dim, fixture().rays, fixture().max_cones)  # nothing memoized yet
        calls.clear()
        for subset in all_subsets(fan):
            local_cohomology_ranks(fan, subset)
        assert len(calls) == 2 ** len(fan.rays), fixture.__name__
    calls.clear()
    for fan in complete_simplicial_fans():
        for subset in all_subsets(fan):
            local_cohomology_ranks(fan, subset)
    assert not calls

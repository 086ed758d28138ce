import random
from fractions import Fraction
from itertools import combinations

import pytest

from generated_fans import star_fan_data
from lp_referees import pairwise_lp_fans_on_rays_3d
from test_cold_path import PENTAGRAM, counting_solve_lp, suspension
from toricvol import gkz
from toricvol.asymptotics import hhat, mixed_partial_h0
from toricvol.divisor import divisor, is_ample, linear_equiv_shift, ray_divisor, scale
from toricvol.errors import (
    ChamberMembershipError,
    EffectiveConeError,
    NotSimplicialError,
    UnsupportedDimensionError,
)
from toricvol.fan import make_fan
from toricvol.fixtures import bl1_p3, bl2_p2, bl3_p2, cube_fan, f1, p1_cubed, p1xp1, p2
from toricvol.gkz import (
    ample_via_asymptotics,
    enumerate_maximal_chambers,
    gkz_cone,
    gkz_membership,
    hhat0_on_chamber,
    locate_chamber,
    located_cone,
    nef_decomposition,
    normal_fan,
    pushforward,
    sigma_to_fan,
    support_function,
)
from toricvol.regions import closure_vertices, region


def effective(fan, rng, span=4):
    """A random divisor with nonempty section polytope."""
    while True:
        d = divisor([rng.randint(-span, span) for _ in range(len(fan.rays))])
        try:
            support_function(fan, d)
        except EffectiveConeError:
            continue
        return d


def test_support_function_p2():
    fan = p2()
    xi, strict = support_function(fan, ray_divisor(fan, 0))
    assert xi.ray_values == (Fraction(-1), Fraction(0), Fraction(0))
    assert strict == frozenset()
    assert xi((1, 1)) == -1


def test_support_function_zero_divisor():
    fan = f1()
    xi, strict = support_function(fan, divisor([0, 0, 0, 0]))
    assert all(v == 0 for v in xi.ray_values)
    assert strict == frozenset()


def test_support_function_pullback_membership():
    # Coefficients of the pulled-back hyperplane class: the inserted ray
    # reaches equality, so it does not make the strict set.
    fan = f1()
    d = divisor([1, 1, 1, 0])
    xi, strict = support_function(fan, d)
    assert xi((1, 1)) == Fraction(0)
    assert 3 not in strict


def test_support_function_empty_polytope():
    fan = p2()
    with pytest.raises(EffectiveConeError):
        support_function(fan, scale(ray_divisor(fan, 0), -1))


def test_normal_fan_ample():
    fan = p2()
    nf = normal_fan(fan, ray_divisor(fan, 0))
    assert not nf.degenerate
    assert set(nf.max_cones) == set(fan.max_cones)


def test_normal_fan_coarsening():
    fan = f1()
    nf = normal_fan(fan, divisor([1, 0, 0, 1]))
    assert not nf.degenerate
    assert set(map(frozenset, nf.max_cones)) == {
        frozenset({0, 1}),
        frozenset({1, 2}),
        frozenset({2, 0}),
    }


def test_normal_fan_degenerate_segment():
    fan = p1xp1()
    nf = normal_fan(fan, scale(ray_divisor(fan, 0), 3))
    assert nf.degenerate
    assert len(nf.lineality_basis) == 1
    assert nf.lineality_basis[0][0] == 0  # the vertical axis survives


def test_locate_chamber_examples():
    fan = p2()
    loc = locate_chamber(fan, ray_divisor(fan, 0))
    assert loc.interior
    assert set(loc.sigma.max_cones) == set(fan.max_cones)
    assert loc.strict_rays == frozenset()
    zero = locate_chamber(fan, divisor([0, 0, 0]))
    assert not zero.interior
    assert zero.sigma.degenerate


def test_locate_chamber_f1():
    fan = f1()
    ample = locate_chamber(fan, divisor([1, 1, 1, 1]))
    assert ample.interior and ample.strict_rays == frozenset()
    inner = locate_chamber(fan, divisor([1, 0, 0, 2]))
    assert inner.interior and inner.strict_rays == frozenset({3})
    wall = locate_chamber(fan, divisor([1, 0, 0, 1]))
    assert not wall.interior and wall.strict_rays == frozenset()


def test_enumerate_chambers_counts():
    assert len(enumerate_maximal_chambers(p2())) == 1
    assert len(enumerate_maximal_chambers(p1xp1())) == 1
    chambers = enumerate_maximal_chambers(f1())
    assert len(chambers) == 2
    keys = {(tuple(sorted(map(tuple, map(sorted, ch.sigma_cones)))), tuple(sorted(ch.strict_rays))) for ch in chambers}
    assert (((0, 1), (0, 2), (1, 2)), (3,)) in keys
    assert (((0, 2), (0, 3), (1, 2), (1, 3)), ()) in keys


def test_enumerate_chamber_samples_locate_back():
    for fixture in (p2, p1xp1, f1, bl2_p2):
        fan = fixture()
        for chamber in enumerate_maximal_chambers(fan):
            loc = locate_chamber(fan, chamber.sample_divisor)
            assert loc.interior
            assert set(loc.sigma.max_cones) == set(chamber.sigma_cones)
            assert loc.strict_rays == chamber.strict_rays
            assert chamber.contains_strictly(chamber.sample_divisor)


def test_warm_chamber_calls_run_no_lp(monkeypatch):
    # Cone members, extreme subsets, chamber systems, the chamber list and
    # the nef regions' boundedness depend on the fan only: once the memo
    # holds them, repeating the chamber calls on the same divisors solves
    # no LP.
    import toricvol.lp as lp

    fan = bl2_p2()
    ample = divisor([3, 3, 3, 2, 2])

    def chamber_calls():
        chambers = enumerate_maximal_chambers(fan)
        for k, chamber in enumerate(chambers):
            d = chamber.sample_divisor
            location = locate_chamber(fan, d)
            gkz_cone(fan, chamber.sigma_cones, chamber.strict_rays)
            nef_decomposition(fan, located_cone(fan, location), d)
            nef_decomposition(fan, chamber, d)
            mixed_partial_h0(fan, d, [k % len(fan.rays)])
            ample_via_asymptotics(fan, d)
        return ample_via_asymptotics(fan, ample)

    assert chamber_calls()
    calls = []
    original = lp.solve_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counted)
    assert chamber_calls()
    assert calls == []


def test_enumerate_returns_fresh_lists():
    fan = bl2_p2()
    first = enumerate_maximal_chambers(fan)
    keys = [(ch.sigma_cones, ch.strict_rays, ch.sample_divisor) for ch in first]
    first.pop()
    first.reverse()
    second = enumerate_maximal_chambers(fan)
    assert second is not first
    assert [(ch.sigma_cones, ch.strict_rays, ch.sample_divisor) for ch in second] == keys
    third = enumerate_maximal_chambers(fan)
    assert third == second
    assert all(a is not b for a, b in zip(second, third))


def test_enumerate_dim3_gate():
    fan = p1_cubed()
    with pytest.raises(UnsupportedDimensionError):
        enumerate_maximal_chambers(fan)


def test_enumerate_dim3_p1cubed():
    fan = p1_cubed()
    chambers = enumerate_maximal_chambers(fan, allow_dim3=True)
    # No proper ray subset positively spans, and the octant fan is the
    # unique complete simplicial fan on the six axis rays.
    assert len(chambers) == 1
    assert set(chambers[0].sigma_cones) == set(fan.max_cones)
    assert chambers[0].strict_rays == frozenset()


def pentagon_suspension():
    """A complete fan whose rays also carry the suspended pentagram: cones
    glued facet to facet on opposite sides that cover space twice."""
    return make_fan(*suspension(2, PENTAGRAM[1], [{i, (i + 1) % 5} for i in range(5)]))


@pytest.mark.parametrize(
    "make",
    [
        bl1_p3,
        p1_cubed,
        lambda: make_fan(*star_fan_data(1)),
        lambda: make_fan(*star_fan_data(2)),
        pentagon_suspension,
    ],
    ids=["bl1_p3", "p1_cubed", "star1", "star2", "pentagon_suspension"],
)
def test_dim3_search_matches_pairwise_lp_referee(monkeypatch, make):
    """The integer certificate keeps exactly the fans that the pairwise
    LP prune keeps, on every ray subset, and the search solves no LP."""
    fan = make()
    calls = counting_solve_lp(monkeypatch)
    found = {}
    for size in range(4, len(fan.rays) + 1):
        for subset in combinations(range(len(fan.rays)), size):
            found[subset] = set(gkz._fans_on_rays_3d(fan, subset))
    assert calls == []
    assert any(found.values())
    for subset, fans in found.items():
        assert fans == pairwise_lp_fans_on_rays_3d(fan.rays, subset), subset


def test_gkz_membership_examples():
    fan = f1()
    chambers = enumerate_maximal_chambers(fan)
    coarse = next(ch for ch in chambers if ch.strict_rays)
    full = next(ch for ch in chambers if not ch.strict_rays)
    pullback = divisor([1, 0, 0, 1])
    assert gkz_membership(fan, coarse, pullback)
    assert gkz_membership(fan, full, pullback)  # wall: member of both closures
    assert not coarse.contains_strictly(pullback)
    assert not full.contains_strictly(pullback)
    assert gkz_membership(fan, full, divisor([1, 1, 1, 1]))
    assert not gkz_membership(fan, coarse, divisor([1, 1, 1, 1]))

    plane = p2()
    chamber = enumerate_maximal_chambers(plane)[0]
    assert not gkz_membership(plane, chamber, scale(ray_divisor(plane, 0), -1))


def test_chamber_dimension_formula():
    for fixture in (p2, f1):
        fan = fixture()
        for chamber in enumerate_maximal_chambers(fan):
            assert chamber.class_cone_dim() == len(fan.rays) - fan.dim
            # Simplicial complete fans have Picard rank #rays - dim, so the
            # class dimension also splits as rank + #strict rays.
            sigma_rays = frozenset().union(*chamber.sigma_cones)
            pic_rank = len(sigma_rays) - fan.dim
            assert chamber.class_cone_dim() == pic_rank + len(chamber.strict_rays)


def test_chamber_partition_on_f1():
    fan = f1()
    chambers = enumerate_maximal_chambers(fan)
    rng = random.Random(42)
    interior_seen = wall_seen = 0
    for _ in range(200):
        d = effective(fan, rng)
        strict_hits = [ch for ch in chambers if ch.contains_strictly(d)]
        closed_hits = [ch for ch in chambers if ch.contains(d)]
        assert closed_hits, d
        if strict_hits:
            assert len(strict_hits) == 1, d
            interior_seen += 1
        else:
            wall_seen += 1
        loc = locate_chamber(fan, d)
        if loc.interior:
            assert len(strict_hits) == 1
    assert interior_seen > 0 and wall_seen > 0


def test_pushforward():
    fan = f1()
    target = sigma_to_fan(fan, [{0, 1}, {1, 2}, {2, 0}])
    d = divisor([5, -2, 7, 3])
    assert pushforward(fan, target, d) == divisor([5, -2, 7])
    assert pushforward(fan, fan, d) == d
    zero = divisor([0, 0, 0, 0])
    assert pushforward(fan, target, zero) == divisor([0, 0, 0])
    stranger = p1xp1()  # carries (-1,0), which the source fan lacks
    with pytest.raises(ValueError):
        pushforward(fan, stranger, d)


def test_nef_decomposition_on_coarse_chamber():
    fan = f1()
    coarse = next(ch for ch in enumerate_maximal_chambers(fan) if ch.strict_rays)
    d = divisor([1, 0, 0, 2])
    nd = nef_decomposition(fan, coarse, d)
    assert nd.shift == (Fraction(0), Fraction(0))
    assert nd.remainder == (0, 0, 0, 1)
    assert nd.nef_coeffs == {0: 1, 1: 0, 2: 0}
    # Remainder concentrates on the inserted ray when its coefficient dips
    # below the support-function value.
    d2 = divisor([1, 0, 0, 3])
    nd2 = nef_decomposition(fan, coarse, d2)
    assert nd2.remainder == (0, 0, 0, 2)


def test_nef_decomposition_ample_is_trivial():
    fan = f1()
    full = next(ch for ch in enumerate_maximal_chambers(fan) if not ch.strict_rays)
    d = divisor([1, 1, 1, 1])
    nd = nef_decomposition(fan, full, d)
    assert nd.remainder == (0, 0, 0, 0)
    assert nd.shifted == d
    assert nd.nef_coeffs == {i: d[i] for i in range(4)}


def test_nef_decomposition_degenerate_zero():
    fan = p2()
    loc = locate_chamber(fan, divisor([0, 0, 0]))
    chamber = located_cone(fan, loc)
    nd = nef_decomposition(fan, chamber, divisor([0, 0, 0]))
    assert nd.shift == (Fraction(0), Fraction(0))
    assert all(v == 0 for v in nd.remainder)


def test_nef_decomposition_degenerate_nonzero_shift():
    # An axis class moved by a character: the decomposition finds the
    # shift normalizing the support function on the lineality space.
    fan = p1xp1()
    base = scale(ray_divisor(fan, 0), 3)
    moved = linear_equiv_shift(fan, base, (0, 1))
    assert moved == (3, 0, 1, -1)
    loc = locate_chamber(fan, moved)
    assert loc.sigma.degenerate
    chamber = located_cone(fan, loc)
    nd = nef_decomposition(fan, chamber, moved)
    assert nd.shift == (Fraction(0), Fraction(-1))
    assert nd.shifted == base
    assert all(v == 0 for v in nd.remainder)


def test_nef_decomposition_membership_error():
    fan = f1()
    coarse = next(ch for ch in enumerate_maximal_chambers(fan) if ch.strict_rays)
    with pytest.raises(ChamberMembershipError):
        nef_decomposition(fan, coarse, divisor([1, 1, 1, 1]))


def test_gkz_lemma_three_way_equivalence():
    # Membership, the glued linear data, and the decomposition agree on
    # random members and non-members.
    fan = f1()
    chambers = enumerate_maximal_chambers(fan)
    rng = random.Random(77)
    for _ in range(50):
        d = effective(fan, rng)
        for chamber in chambers:
            member = gkz_membership(fan, chamber, d)
            if member:
                nd = nef_decomposition(fan, chamber, d)
                assert all(v >= 0 for v in nd.remainder)
            else:
                with pytest.raises(ChamberMembershipError):
                    nef_decomposition(fan, chamber, d)


def test_pushforward_polytope_equality():
    fan = f1()
    chambers = enumerate_maximal_chambers(fan)
    rng = random.Random(99)
    full_rays = range(len(fan.rays))
    for _ in range(50):
        d = effective(fan, rng)
        for chamber in chambers:
            if not gkz_membership(fan, chamber, d):
                continue
            sigma_fan = sigma_to_fan(fan, chamber.sigma_cones)
            fd = pushforward(fan, sigma_fan, d)
            ambient = closure_vertices(region(fan, d, full_rays)).vertices
            target = closure_vertices(
                region(sigma_fan, fd, range(len(sigma_fan.rays)))
            ).vertices
            assert set(ambient) == set(target), (d, chamber.strict_rays)


def test_hhat0_on_chamber_examples():
    fan = f1()
    coarse = next(ch for ch in enumerate_maximal_chambers(fan) if ch.strict_rays)
    for dcoeff in (1, 2, 3):
        d = divisor([dcoeff, 0, 0, dcoeff + 1])
        assert hhat0_on_chamber(fan, coarse, d) == dcoeff * dcoeff
    plane = p2()
    gamma = enumerate_maximal_chambers(plane)[0]
    for dcoeff in (1, 2, 3):
        d = scale(ray_divisor(plane, 0), dcoeff)
        assert hhat0_on_chamber(plane, gamma, d) == dcoeff * dcoeff


def test_hhat0_degenerate_chamber_zero():
    fan = p1xp1()
    d = scale(ray_divisor(fan, 0), 2)
    loc = locate_chamber(fan, d)
    assert loc.sigma.degenerate
    chamber = located_cone(fan, loc)
    assert hhat0_on_chamber(fan, chamber, d) == 0


def test_ample_via_asymptotics_examples():
    plane = p2()
    assert ample_via_asymptotics(plane, ray_divisor(plane, 0))
    fan = f1()
    pullback = divisor([1, 0, 0, 1])
    assert hhat(fan, pullback)[1:] == (0, 0)  # vanishing at the class itself
    assert not ample_via_asymptotics(fan, pullback)
    box = p1xp1()
    d = divisor([1, 0, -1, 0])
    assert hhat(box, d)[1] > 0
    assert not ample_via_asymptotics(box, d)


def test_ample_via_asymptotics_requires_simplicial():
    fan = cube_fan()
    with pytest.raises(NotSimplicialError):
        ample_via_asymptotics(fan, divisor([1] * 8))


def test_ampleness_routes_in_dimension_3():
    from toricvol.fixtures import bl1_p3

    fan = bl1_p3()
    rng = random.Random(3)
    ample_pullback = divisor([3, 3, 3, 3, -1])
    assert is_ample(fan, ample_pullback) and ample_via_asymptotics(fan, ample_pullback)
    wall = divisor([1, 0, 0, 0, 1])  # pullback of a hyperplane: nef, not ample
    assert hhat(fan, wall)[1:] == (0, 0, 0)
    assert not is_ample(fan, wall) and not ample_via_asymptotics(fan, wall)
    for _ in range(20):
        d = divisor([rng.randint(-2, 2) for _ in range(5)])
        assert is_ample(fan, d) == ample_via_asymptotics(fan, d), d


def test_nonsimplicial_chamber_location():
    # The cube fan is complete but not simplicial: its own open chamber
    # does not exist, so even the most symmetric class is not interior.
    loc = locate_chamber(cube_fan(), divisor([1] * 8))
    assert not loc.sigma.degenerate
    assert not loc.interior
    assert all(len(c) == 4 for c in loc.sigma.max_cones)


def test_three_ampleness_routes_agree():
    rng = random.Random(5)
    for fixture in (p2, p1xp1, f1, bl2_p2, bl3_p2):
        fan = fixture()
        k = len(fan.rays)
        for _ in range(25):
            d = divisor([rng.randint(-3, 3) for _ in range(k)])
            direct = is_ample(fan, d)
            via = ample_via_asymptotics(fan, d)
            assert direct == via, (fixture.__name__, d)
            located = False
            try:
                loc = locate_chamber(fan, d)
                located = (
                    loc.interior
                    and not loc.strict_rays
                    and set(loc.sigma.max_cones) == set(fan.max_cones)
                )
            except EffectiveConeError:
                located = False
            assert located == direct, (fixture.__name__, d)

import dataclasses
import hashlib
import random
import sys
from fractions import Fraction
from itertools import combinations, islice

import pytest

import chamber_referees
import growth_referees
from general_lp import cone_contains
from generated_fans import polygon_fan_data, star_fan_data
from lp_referees import pairwise_lp_fans_on_rays_3d, projective_sample
from test_cold_path import PENTAGRAM, counting_solve_lp, suspension
from toricvol import gkz
from toricvol.asymptotics import _rates, hhat, mixed_partial_h0, self_intersection
from toricvol.divisor import (
    _basis_functional, divisor, is_ample, is_q_cartier, linear_equiv_shift, ray_divisor, scale
)
from toricvol.errors import (
    ChamberMembershipError,
    EffectiveConeError,
    NotCompleteError,
    NotSimplicialError,
    ToricError,
    UnsupportedDimensionError,
)
from toricvol.fan import is_complete, make_fan
from toricvol.fixtures import (
    bl1_p3,
    bl2_p2,
    bl3_p2,
    cube_fan,
    f1,
    p1,
    p1_cubed,
    p1xp1,
    p2,
    weighted_p112,
)
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
from toricvol.linalg import dot, nullspace, rank, to_integers
from toricvol.regions import _held_slot, closure_vertices, region


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


def test_support_function_rejects_a_vector_of_the_wrong_length():
    # It zipped the vector with each vertex: on P^2 at D_0, (1,) read -1
    # and (0, 1, 7) read 0.
    fan = p2()
    xi, _ = support_function(fan, ray_divisor(fan, 0))
    for vector in ((1,), (0, 1, 7), ()):
        with pytest.raises(ValueError, match="dimension 2"):
            xi(vector)


def test_support_function_reads_a_float_vector_exactly():
    # It returned the float pairing: on P^2 at (1, 1, 1), (0.1, 0.2) read
    # -0.30000000000000004.  Each entry is read at its exact value.
    fan = p2()
    xi, _ = support_function(fan, divisor([1, 1, 1]))
    value = xi((0.1, 0.2))
    assert type(value) is Fraction and value == Fraction(-10808639105689191, 36028797018963968)
    assert value == -(Fraction(0.1) + Fraction(0.2))
    assert xi((Fraction(1, 3), 2)) == Fraction(-7, 3)
    with pytest.raises(ValueError, match="bool"):
        xi((True, 0))
    with pytest.raises(TypeError, match="strings"):
        xi(("1", 0))


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


def fraction_chamber_path(fan, d):
    """Support values, normal fan and strict rays from ``Fraction`` vertices.

    The vertices are the sorted ``closure_vertices`` of the all-weak
    region, a ray is tight where its level is met exactly, and the
    lineality basis is ``linalg.nullspace`` of the ``Fraction`` vertex
    differences (all of space for a point).  None for an empty polytope.
    """
    k, n = len(fan.rays), fan.dim
    vertices = closure_vertices(region(fan, d, range(k))).vertices
    if not vertices:
        return None
    tight = [frozenset(i for i in range(k) if dot(v, fan.rays[i]) == -d[i]) for v in vertices]
    diffs = [tuple(a - b for a, b in zip(v, vertices[0])) for v in vertices[1:]]
    if diffs:
        lineality = tuple(nullspace(diffs))
    else:
        lineality = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    strict = frozenset(range(k)).difference(*tight)
    if not lineality:
        tight = [gkz._extreme_subset(fan, rays) for rays in tight]
    values = tuple(min(dot(v, ray) for v in vertices) for ray in fan.rays)
    return vertices, values, tuple(sorted(tight, key=sorted)), lineality, strict


def chamber_referee_divisors(fan, rng):
    """D = 0, each ray divisor, their sum, and seeded rational ones, degenerate ones included."""
    k = len(fan.rays)
    yield (Fraction(0),) * k
    for rho in range(k):
        yield ray_divisor(fan, rho)
        yield scale(ray_divisor(fan, rho), Fraction(3, 2))
    yield (Fraction(1),) * k
    for _ in range(4):
        yield tuple(Fraction(rng.randint(-3, 6), rng.choice((1, 2, 3))) for _ in range(k))


def test_chamber_path_matches_fraction_referee():
    from test_region_sum import COMPLETE_FIXTURES

    rng = random.Random(2222)
    lineality_dims = set()
    for make in COMPLETE_FIXTURES:
        fan = make()
        for d in chamber_referee_divisors(fan, rng):
            expected = fraction_chamber_path(fan, d)
            if expected is None:
                for call in (support_function, normal_fan, locate_chamber):
                    with pytest.raises(EffectiveConeError):
                        call(fan, d)
                continue
            vertices, values, cones, lineality, strict = expected
            xi, xi_strict = support_function(fan, d)
            assert (xi.vertices, xi.ray_values, xi_strict) == (vertices, values, strict), d
            sigma = normal_fan(fan, d)
            assert (sigma.max_cones, sigma.lineality_basis) == (cones, lineality), d
            assert all(type(x) is Fraction for row in lineality for x in row)
            loc = locate_chamber(fan, d)
            assert (loc.sigma, loc.strict_rays) == (sigma, strict), d
            interior = (
                not lineality
                and all(len(cone) == fan.dim for cone in cones)
                and len(strict) == len(fan.rays) - len(sigma.ray_set())
            )
            assert loc.interior == interior, d
            lineality_dims.add((fan.dim, len(lineality)))
    # Points, segments and full-dimensional polytopes in dimensions 2 and 3.
    assert {(2, 0), (2, 1), (2, 2), (3, 0), (3, 2), (3, 3)} <= lineality_dims


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
    for fixture in (*COMPLETE_2D, bl1_p3, p1_cubed):
        fan = fixture()
        for chamber in enumerate_maximal_chambers(fan, allow_dim3=True):
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


def test_enumerated_chambers_and_samples_are_pinned():
    # The chamber lists and sample divisors (the interior-sample LP's
    # points) of two fans; a change of the rows' type or order must keep them.
    samples = [ch.sample_divisor for ch in enumerate_maximal_chambers(bl2_p2())]
    assert samples == [
        (1, 0, 0, 2, 2), (1, 0, 1, 0, 3), (1, 1, 0, 3, 0), (1, 1, 1, 0, 0), (1, 2, 0, 2, 0)
    ]
    chambers = enumerate_maximal_chambers(cube_fan(), allow_dim3=True)
    listed = repr(
        [(tuple(tuple(sorted(c)) for c in ch.sigma_cones), tuple(sorted(ch.strict_rays))) for ch in chambers]
    )
    sampled = repr([tuple(map(str, ch.sample_divisor)) for ch in chambers])
    assert len(chambers) == 148
    assert hashlib.sha256(listed.encode()).hexdigest().startswith("588db0c889f1814a")
    assert hashlib.sha256(sampled.encode()).hexdigest().startswith("c214090b60be83c2")


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
    # Dimensions 1 and 4 are never searched, nor a 3-D fan of more than 8
    # rays, and an incomplete fan has no chambers to enumerate.
    for other in (p1(), make_fan(*star_fan_data(0, dim=4)), make_fan(*star_fan_data(5))):
        with pytest.raises(UnsupportedDimensionError):
            enumerate_maximal_chambers(other, allow_dim3=True)
    with pytest.raises(NotCompleteError):
        enumerate_maximal_chambers(make_fan(2, [(1, 0), (0, 1)], [(0, 1)]))


def test_enumerate_dim3_p1cubed():
    fan = p1_cubed()
    chambers = enumerate_maximal_chambers(fan, allow_dim3=True)
    # No proper ray subset positively spans, and the octant fan is the
    # unique complete simplicial fan on the six axis rays.
    assert len(chambers) == 1
    assert set(chambers[0].sigma_cones) == set(fan.max_cones)
    assert chambers[0].strict_rays == frozenset()


def polygon_fan(seed):
    def make():
        return make_fan(*polygon_fan_data(random.Random(seed)))

    make.__name__ = f"polygon{seed}"
    return make


def chamber_candidates(fan):
    """Every certified candidate of the chamber search, with its strict rays."""
    for cones in gkz._chambers(fan):
        yield cones, frozenset(range(len(fan.rays))).difference(*cones)


def check_projectivity_against_referee(fan, candidates):
    """The chamber's own LP and the functional LP accept the same candidates,
    and each sample of either lies strictly inside the chamber."""
    for cones, strict in candidates:
        sample = gkz._interior_sample(fan, cones, strict)
        expected = projective_sample(fan, cones)
        assert (sample is None) == (expected is None), cones
        if sample is not None:
            chamber = gkz_cone(fan, cones, strict)
            assert chamber.contains_strictly(sample) and chamber.contains_strictly(expected)


@pytest.mark.parametrize(
    "make",
    [
        bl1_p3,
        p1_cubed,
        *(lambda s=s: make_fan(*star_fan_data(s)) for s in (1, 2, 3)),
        *map(polygon_fan, range(4)),
    ],
    ids=["bl1_p3", "p1_cubed", "star1", "star2", "star3", *(f"polygon{i}" for i in range(4))],
)
def test_projectivity_matches_functional_lp_referee(make):
    fan = make()
    candidates = list(chamber_candidates(fan))
    assert candidates
    check_projectivity_against_referee(fan, candidates)


def test_projectivity_matches_functional_lp_referee_on_cube_fan():
    # 18 of cube_fan's 166 candidates are complete but not projective.
    # The referee runs on those and on a seeded dozen of the others (all
    # 166 take it ~20 s).
    fan = cube_fan()
    candidates = list(chamber_candidates(fan))
    rejected = [c for c in candidates if gkz._interior_sample(fan, *c) is None]
    accepted = [c for c in candidates if c not in rejected]
    assert (len(rejected), len(accepted)) == (18, 148)
    check_projectivity_against_referee(fan, rejected + random.Random(19).sample(accepted, 12))


def test_enumeration_memoizes_only_accepted_chamber_systems():
    # cube_fan certifies 166 candidates, of which 18 are not projective:
    # a fresh enumeration keeps the condition systems of the 148 chambers
    # and of nothing else.
    fan = make_fan(3, cube_fan().rays, cube_fan().max_cones)
    chambers = enumerate_maximal_chambers(fan, allow_dim3=True)
    assert len(list(chamber_candidates(fan))) == 166
    kept = {key for key in fan._memo if isinstance(key, tuple) and key[0] == "gkz_system"}
    assert len(chambers) == len(kept) == 148
    assert kept == {("gkz_system", ch.sigma_cones, ch.strict_rays) for ch in chambers}


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
            found[subset] = set(gkz._fans_on_rays(fan, subset))
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


def test_chamber_calls_reject_a_cone_of_another_fan():
    # nef_decomposition and hhat0_on_chamber used to answer, or fail with
    # TypeError / InvalidFanError, on an f1 chamber passed with p1xp1.
    coarse = next(ch for ch in enumerate_maximal_chambers(f1()) if ch.strict_rays)
    box = p1xp1()
    d = divisor([1, 0, 1, 0])
    for call in (gkz_membership, nef_decomposition, hhat0_on_chamber):
        with pytest.raises(ValueError, match="chamber cone belongs to a different fan"):
            call(box, coarse, d)
    # A chamber cone of P^2 on one cone holds no owner for ray 2, so it has no nef split.
    plane = p2()
    with pytest.raises(ValueError, match="must hold every ray"):
        nef_decomposition(plane, gkz_cone(plane, [{0, 1}], ()), divisor([1, 0, 0]))


def test_gkz_cone_checks_raw_ray_indices_on_every_call(monkeypatch):
    # One check over the raw entries of every cone and of the strict rays,
    # warm or cold; the memoized condition system checks nothing more.
    fan = make_fan(2, p2().rays, p2().max_cones)  # a fresh memo
    cold = gkz_cone(fan, fan.max_cones, ())
    checked = []
    check = gkz._check_rays

    def recorded(fan_, rays):
        rays = tuple(rays)
        checked.append(sorted(rays))
        return check(fan_, rays)

    monkeypatch.setattr(gkz, "_check_rays", recorded)
    assert gkz_cone(fan, fan.max_cones, ()) == cold
    assert checked == [[0, 0, 1, 1, 2, 2]]
    gkz_cone(fan, [{0, 1}], {2})
    assert checked == [[0, 0, 1, 1, 2, 2], [0, 1, 2]]


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
            # With no strict ray, the rays inside the cones give equality
            # rows, which leave the Picard rank of the coarse fan.
            closed = gkz_cone(fan, chamber.sigma_cones, ())
            assert bool(closed.equalities) == bool(chamber.strict_rays)
            assert closed.class_cone_dim() == pic_rank
            # Each equality row is kept once, in one sign.
            rows = set(closed.equalities) | set(closed.inequalities)
            assert not any(tuple(-v for v in row) in rows for row in closed.equalities)


def test_chamber_tests_reject_wrong_length_divisors():
    # The dots used to zip the rows with the coefficients and stop at the
    # shorter, so on P^2 contains((1,)) and contains_strictly((5,)) held.
    fan = p2()
    chamber = located_cone(fan, locate_chamber(fan, ray_divisor(fan, 0)))
    for d in ((1,), (5,), (1, 1), (1, 1, 1, 1)):
        for test in (chamber.contains, chamber.contains_strictly):
            with pytest.raises(ValueError, match=f"divisor has {len(d)} coefficients, fan has 3 rays"):
                test(d)
        with pytest.raises(ValueError, match="coefficients"):
            gkz_membership(fan, chamber, d)
    assert chamber.contains_strictly((5, 0, 0)) and chamber.contains((1, 1, 1))


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


def test_nef_decomposition_rejects_a_wrong_shift(monkeypatch):
    # The polytope postcondition compares the two integer vertex tables: a
    # shift that moves one coefficient by 1/3 must trip it.  The shifted
    # divisor's table is the one read on the fan's own arrangement.
    from toricvol import regions

    fan = bl2_p2()
    chamber = enumerate_maximal_chambers(fan)[0]
    d = scale(chamber.sample_divisor, Fraction(3, 2))
    assert nef_decomposition(fan, chamber, d).shifted == d
    original = gkz._divisor_slot
    own = regions._arrangement(fan.rays, fan.dim, fan.memo)

    def skewed(arrangement, coefficients, q):
        if arrangement is own:
            values = [Fraction(c, q) for c in coefficients]
            values[0] += Fraction(1, 3)
            coefficients, q = to_integers(values)
        return original(arrangement, coefficients, q)

    monkeypatch.setattr(gkz, "_divisor_slot", skewed)
    with pytest.raises(ToricError, match="polytope differs"):
        nef_decomposition(fan, chamber, d)


def test_a_zero_remainder_split_on_every_ray_reads_one_table(monkeypatch):
    # On the fan's own chamber a zero remainder makes the nef vector the
    # shifted one on the fan's own arrangement: one table, read once, and
    # no comparison of it with itself.  A chamber with a strict ray still
    # reads and compares two.
    fan = bl2_p2()
    chambers = enumerate_maximal_chambers(fan)
    own = next(ch for ch in chambers if set(ch.sigma_cones) == set(fan.max_cones))
    coarse = next(ch for ch in chambers if ch.strict_rays)
    tables = []
    original = gkz._closure_table
    monkeypatch.setattr(gkz, "_closure_table", lambda *args: tables.append(args) or original(*args))
    for chamber, reads in ((own, 1), (coarse, 2)):
        d = scale(chamber.sample_divisor, Fraction(3, 2))
        tables.clear()
        split = nef_decomposition(fan, chamber, d)
        assert split.shifted == d and len(tables) == reads
        assert any(split.remainder) == (reads == 2)


def test_nef_decomposition_rejects_a_moved_owner_row_on_a_strict_ray(monkeypatch):
    # Moving a strict ray's owner row by one unit moves that ray's
    # remainder 1 -> 2: still nonnegative, still on the strict rays, and
    # neither polytope changes, since the nef part leaves the strict rays
    # out.  Only the check against the section polytope's minimum on the
    # ray sees it.
    fan = bl2_p2()
    chamber = next(ch for ch in enumerate_maximal_chambers(fan) if ch.strict_rays)
    d = chamber.sample_divisor
    rho = min(chamber.strict_rays)
    assert nef_decomposition(fan, chamber, d).remainder[rho] == 1
    plan = gkz._nef_plan(fan, chamber.sigma_cones, chamber.strict_rays)
    (b, m), *rest = plan.rows[rho]
    assert d[b] == 1
    common = fan.configuration.table[0]
    rows = list(plan.rows)
    rows[rho] = ((b, m + common), *rest)
    moved = dataclasses.replace(plan, rows=tuple(rows))
    monkeypatch.setattr(gkz, "_nef_plan", lambda *args: moved)
    with pytest.raises(ToricError, match="strict ray"):
        nef_decomposition(fan, chamber, d)


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


def recorded_rates(monkeypatch):
    """The divisors whose rates the chamber code sums, in call order, as ``Fraction`` tuples.

    Every rate goes through ``_cleared_rates`` on the divisor cleared to
    integers: the ampleness probes call it directly.
    """
    import toricvol.asymptotics as asymptotics

    seen = []
    rates = asymptotics._cleared_rates

    def recorded(fan, coefficients, q, degrees):
        seen.append(tuple(Fraction(c, q) for c in coefficients))
        return rates(fan, coefficients, q, degrees)

    for module in (gkz, asymptotics):
        monkeypatch.setattr(module, "_cleared_rates", recorded)
    return seen


def assert_probes_inside(fan, d, probes, rays):
    """Every probe lies strictly inside d's chamber and moves d only along ``rays``."""
    chamber = located_cone(fan, locate_chamber(fan, d))
    assert probes
    for probe in probes:
        assert chamber.contains_strictly(probe), (d, probe)
        assert {i for i, (a, b) in enumerate(zip(probe, d)) if a != b} <= set(rays), (d, probe)


def star_fan(splits):
    def make():
        return make_fan(*star_fan_data(splits))

    make.__name__ = f"star{splits}"
    return make


# An ample class of star_fan_data(5) with one zero circuit sign: it lies on a type-cell wall.
STAR5_WALL = divisor([20, 41, 37, 15, 16, 21, 59, 26, 44])


def assert_no_higher_growth_at_referee_probes(fan, d):
    """Every divisor of the ``Fraction`` referee's 1 + 2k ampleness probes has ĥ^1..ĥ^n = 0."""
    probes = growth_referees.ample_probes(fan, d)
    assert len(probes) == 1 + 2 * len(fan.rays), d
    for probe in probes:
        assert not any(hhat(fan, probe)[1:]), (d, probe)


def on_cell_wall(fan, d):
    """Whether some circuit minor of [V | d] is zero (``growth_referees.circuit_minors``)."""
    return not all(growth_referees.circuit_minors(fan, d))


def test_chamber_probes_stay_strictly_inside_along_the_probed_rays(monkeypatch):
    probes = recorded_rates(monkeypatch)
    for make in (bl2_p2, f1):
        fan = make()
        for chamber in enumerate_maximal_chambers(fan):
            d = chamber.sample_divisor
            for rays in [*combinations(range(len(fan.rays)), 1), *combinations(range(len(fan.rays)), 2)]:
                # The derivatives come off the volume table: no rate is summed.
                mixed_partial_h0(fan, d, rays)
                assert probes == []
    for fan, d in ((bl1_p3(), divisor([3, 3, 3, 3, -1])), (bl2_p2(), divisor([3, 3, 3, 2, 2]))):
        # An open type cell proves the vanishing near d: no probe is taken.
        probes.clear()
        assert ample_via_asymptotics(fan, d)
        assert probes == []
        assert_no_higher_growth_at_referee_probes(fan, d)
    # A class on a cell wall runs the 1 + 2k probes.
    fan, d = star_fan(5)(), STAR5_WALL
    probes.clear()
    assert ample_via_asymptotics(fan, d)
    assert len(probes) == 1 + 2 * len(fan.rays)
    assert_probes_inside(fan, d, probes, range(len(fan.rays)))
    moved = [{i for i, (a, b) in enumerate(zip(probe, d)) if a != b} for probe in probes[1:]]
    assert moved == [{rho} for rho in range(len(fan.rays)) for _ in (1, -1)]


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


# ---------------------------------------------------------------------------
# Integer chamber tests and higher-degree probes against Fraction referees

COMPLETE_2D = (p2, p1xp1, f1, weighted_p112, bl2_p2, bl3_p2)
COMPLETE_SIMPLICIAL = (p1, *COMPLETE_2D, p1_cubed, bl1_p3)


def fraction_dots(rows, d):
    return [sum(Fraction(c) * Fraction(x) for c, x in zip(row, d)) for row in rows]


def fraction_membership(cone, d):
    """(contains, contains_strictly) by ``Fraction`` dots with the public rows."""
    on = all(v == 0 for v in fraction_dots(cone.equalities, d))
    slacks = fraction_dots(cone.inequalities, d)
    return on and all(v >= 0 for v in slacks), on and all(v > 0 for v in slacks)


def wall_divisors(cone, inside):
    """Divisors moved from ``inside`` along one coordinate onto each inequality's wall."""
    for row in cone.inequalities:
        rho = next(i for i, c in enumerate(row) if c)
        slack = sum(c * x for c, x in zip(row, inside))
        moved = list(inside)
        moved[rho] -= slack / row[rho]
        yield tuple(moved)


def membership_cases(fan, cone, inside, rng):
    yield inside
    yield from wall_divisors(cone, inside)
    for _ in range(12):
        t = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
        yield tuple(t * x + Fraction(rng.randint(-2, 2), rng.choice((5, 7))) for x in inside)
        yield tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 5))) for _ in fan.rays)


def chambers_with_interior_points(fan, rng):
    """Every maximal chamber with its sample, and the chamber each random class lands in."""
    for chamber in enumerate_maximal_chambers(fan):
        yield chamber, chamber.sample_divisor
    for _ in range(8):
        d = effective(fan, rng)
        yield located_cone(fan, locate_chamber(fan, d)), d


@pytest.mark.parametrize("make", COMPLETE_2D, ids=lambda f: f.__name__)
def test_chamber_membership_matches_fraction_referee_2d(make):
    fan = make()
    rng = random.Random(16)
    on_walls = 0
    for cone, inside in chambers_with_interior_points(fan, rng):
        for d in membership_cases(fan, cone, inside, rng):
            answer = (cone.contains(d), cone.contains_strictly(d))
            assert answer == fraction_membership(cone, d), d
            on_walls += answer == (True, False)
    assert on_walls


@pytest.mark.parametrize(
    "make, ample", [(bl1_p3, [3, 3, 3, 3, -1]), (p1_cubed, [1] * 6)], ids=["bl1_p3", "p1_cubed"]
)
def test_own_chamber_membership_matches_fraction_referee_3d(make, ample):
    fan = make()
    cone = gkz_cone(fan, fan.max_cones, frozenset())
    rng = random.Random(16)
    answers = set()
    for d in membership_cases(fan, cone, divisor(ample), rng):
        answer = (cone.contains(d), cone.contains_strictly(d))
        assert answer == fraction_membership(cone, d), d
        answers.add(answer)
    assert answers == {(True, True), (True, False), (False, False)}


def test_integer_rows_follow_the_public_rows():
    fan = bl2_p2()
    own = gkz_cone(fan, fan.max_cones, frozenset())
    fields = {f: getattr(own, f) for f in gkz.GKZCone.__dataclass_fields__ if f[0] != "_"}
    assert gkz.GKZCone(**fields) == own
    # Rows rescaled by positive rationals, rows with entries over unequal
    # denominators, one row dropped, one made an equality.
    scaled = tuple(
        tuple(Fraction(i + 1, 3) * c for c in row) for i, row in enumerate(own.inequalities)
    )
    skewed = tuple(
        tuple(Fraction(c * (j + 1), i + 2) for j, c in enumerate(row))
        for i, row in enumerate(own.inequalities)
    )
    ample = divisor([3, 3, 3, 2, 2])
    variants = [
        (dataclasses.replace(own, inequalities=scaled), ample),
        (dataclasses.replace(own, inequalities=skewed), ample),
        (dataclasses.replace(own, inequalities=own.inequalities[1:]), ample),
        (
            dataclasses.replace(
                own, equalities=own.inequalities[:1], inequalities=own.inequalities[1:]
            ),
            next(wall_divisors(own, ample)),
        ),
    ]
    rng = random.Random(7)
    for cone, seed in variants:
        seen = set()
        for d in membership_cases(fan, cone, seed, rng):
            answer = (cone.contains(d), cone.contains_strictly(d))
            assert answer == fraction_membership(cone, d), (cone, d)
            seen.add(answer[0])
        assert seen == {True, False}, cone


def test_chamber_rows_are_int_tuples_and_membership_clears_only_the_divisor(monkeypatch):
    # The rows are held once per fan as the referee's primitive integer
    # rows, so a fresh cone clears only the divisor it is asked about.
    import toricvol.linalg as linalg

    fan = bl2_p2()
    d = divisor([3, 3, 3, 2, 2])
    chambers = [gkz_cone(fan, fan.max_cones, frozenset()), *enumerate_maximal_chambers(fan)]
    for cone in chambers:
        rows = cone.equalities + cone.inequalities
        assert rows and all(type(row) is tuple and all(type(x) is int for x in row) for row in rows)
        referee = chamber_referees.gkz_system(fan, cone.sigma_cones, cone.strict_rays)
        assert (cone.equalities, cone.inequalities) == referee[2:]
    cleared = []
    counting(monkeypatch, linalg, "to_integers", lambda values: cleared.append(tuple(values)))
    assert gkz_cone(fan, fan.max_cones, frozenset()).contains(d)
    assert cleared == [d]


def fraction_ample_referee(fan, d):
    """The asymptotic ampleness test with ``Fraction`` dots and full ``hhat`` probes."""
    try:
        location = locate_chamber(fan, d)
    except EffectiveConeError:
        return False
    if location.sigma.degenerate or not location.interior:
        return False
    if set(location.sigma.max_cones) != set(fan.max_cones) or location.strict_rays:
        return False
    chamber = gkz_cone(fan, fan.max_cones, frozenset())
    assert not any(hhat(fan, d)[1:])
    slacks = fraction_dots(chamber.inequalities, d)
    for rho in range(len(fan.rays)):
        for sign in (1, -1):
            step = Fraction(1)
            for row, slack in zip(chamber.inequalities, slacks):
                if row[rho] * sign < 0:
                    step = min(step, slack / (-2 * row[rho] * sign))
            probe = list(d)
            probe[rho] += sign * step
            assert fraction_membership(chamber, probe)[1]
            assert not any(hhat(fan, tuple(probe))[1:])
    return True


def ample_cases(fan, rng, count):
    """Seeded ample classes (-K scaled, perturbed and shifted; every fixture is Fano) and random ones."""
    own = gkz_cone(fan, fan.max_cones, frozenset())
    for _ in range(count):
        t = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
        d = tuple(t + Fraction(rng.randint(-1, 1), 10) for _ in fan.rays)
        if fraction_membership(own, d)[1]:
            u = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(fan.dim)]
            yield linear_equiv_shift(fan, d, u)
        yield tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in fan.rays)


@pytest.mark.parametrize("make", COMPLETE_SIMPLICIAL, ids=lambda f: f.__name__)
def test_ample_via_asymptotics_matches_fraction_referee(make):
    fan = make()
    rng = random.Random(16)
    answers = set()
    for d in ample_cases(fan, rng, 8 if fan.dim < 3 else 3):
        answer = ample_via_asymptotics(fan, d)
        assert answer == fraction_ample_referee(fan, d) == is_ample(fan, d), d
        assert _rates(fan, d, slice(1, None)) == hhat(fan, d)[1:], d
        answers.add(answer)
    assert answers == {True, False}


def ample_classes(fan, rng, center, span, count):
    """Seeded classes center + a / b, |a| <= span and b in {1, 2} per ray, strictly inside the own chamber."""
    own = gkz_cone(fan, fan.max_cones, frozenset())
    for _ in range(count):
        d = tuple(x + Fraction(rng.randint(-span, span), rng.choice((1, 2))) for x in center)
        if fraction_membership(own, d)[1]:
            yield d


def crossing_walls(fan, classes):
    """Each class crossed with the first earlier class of another type cell, at a cell wall.

    A minor of [V | d] is linear in d, so the first minor whose sign
    differs, m_a at a and m_b at b, vanishes at (1 - t) a + t b with
    t = m_a / (m_a - m_b).  The segment of two ample classes is ample.
    """
    seen = []
    for b in classes:
        at_b = growth_referees.circuit_minors(fan, b)
        for a, at_a in seen:
            differ = [(x, y) for x, y in zip(at_a, at_b) if (x > 0) - (x < 0) != (y > 0) - (y < 0)]
            if differ:
                x, y = differ[0]
                t = x / (x - y)
                yield tuple((1 - t) * p + t * r for p, r in zip(a, b))
                break
        seen.append((b, at_b))


@pytest.mark.parametrize(
    "make", (*COMPLETE_SIMPLICIAL, *map(star_fan, range(1, 6))), ids=lambda f: f.__name__
)
def test_ampleness_on_and_off_cell_walls_matches_fraction_referee(monkeypatch, make):
    # Ample classes of open cells take no probe; one on a cell wall takes
    # the referee's 1 + 2k.  In the plane every circuit value of an
    # ample class is nonzero, so the walls come from star_fan_data(5),
    # around the functional LP's sample and around STAR5_WALL.
    fan = make()
    rng = random.Random(29)
    base = tuple(4 * x for x in projective_sample(fan, fan.max_cones))
    ample = list(ample_classes(fan, rng, base, 6, 16 if fan.dim < 3 else 12))
    if make.__name__ == "star5":
        ample += ample_classes(fan, random.Random(30), STAR5_WALL, 1, 8)
    walls = list(islice(crossing_walls(fan, ample), 3))
    if make.__name__ == "star5":
        walls.append(STAR5_WALL)
        assert len(walls) >= 3
    for d in walls:
        assert on_cell_wall(fan, d) and is_ample(fan, d), d
    others = [tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in fan.rays) for _ in range(8)]
    probes = recorded_rates(monkeypatch)
    answers = set()
    for d in (*ample, *walls, *others):
        probes.clear()
        answer = ample_via_asymptotics(fan, d)
        assert answer == is_ample(fan, d) == fraction_ample_referee(fan, d), d
        if answer and not on_cell_wall(fan, d):
            assert probes == [], d
        else:
            assert probes == growth_referees.ample_probes(fan, d), d
        answers.add(answer)
    assert True in answers


def counting(monkeypatch, module, name, record):
    """Route every binding of ``module.name`` in the package through ``record``."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        record(*args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("toricvol") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)


def test_warm_ampleness_clears_the_divisor_at_most_three_times(monkeypatch):
    # The class is cleared to integers for its chamber and once more for
    # its slacks, rates and probes; each probe is built cleared.  A
    # Fraction probe path clears 5k + 2 = 27 times here.  The same
    # divisor object asked again is its held slot's, cleared no time.
    import toricvol.linalg as linalg

    fan = bl2_p2()
    d = divisor([3, 3, 3, 2, 2])
    assert ample_via_asymptotics(fan, d)  # warm
    cleared = []
    counting(monkeypatch, linalg, "to_integers", lambda values: cleared.append(tuple(values)))
    assert ample_via_asymptotics(fan, d)
    assert cleared == []
    assert ample_via_asymptotics(fan, divisor([3, 3, 3, 2, 2]))  # equal, other objects
    assert 1 <= len(cleared) <= 3, cleared


@pytest.mark.parametrize(
    "make, ample, rays",
    [(bl2_p2, [3, 3, 3, 2, 2], [0, 4]), (bl1_p3, [3, 3, 3, 3, -1], [1, 4])],
    ids=["bl2_p2", "bl1_p3"],
)
def test_warm_mixed_partial_clears_the_divisor_once(monkeypatch, make, ample, rays):
    # The chamber is located on the slot of the cleared class, whose step
    # and grid points stay in integers; a Fraction grid clears every grid
    # point again, (n + 1)^r + 2 times in all.
    import toricvol.linalg as linalg

    fan = make()
    d = divisor(ample)
    expected = mixed_partial_h0(fan, d, rays)  # warm
    cleared = []
    counting(monkeypatch, linalg, "to_integers", lambda values: cleared.append(tuple(values)))
    assert mixed_partial_h0(fan, d, rays) == expected
    assert cleared == []  # the held divisor itself: no clearing at all
    copy = divisor(ample)
    assert copy == d and copy[0] is not d[0]
    assert mixed_partial_h0(fan, copy, rays) == expected
    assert cleared == [tuple(d)]


def test_a_divisor_outside_the_chamber_is_refused_before_it_is_held(monkeypatch):
    # hhat0_on_chamber tests membership before it holds d, so a divisor
    # outside the chamber keys no type cell and leaves the held slot, and
    # on a fan that is not complete it is refused as outside the chamber.
    from toricvol import regions

    fan = fresh(f1())
    coarse = next(ch for ch in enumerate_maximal_chambers(fan) if ch.strict_rays)
    assert hhat0_on_chamber(fan, coarse, divisor([2, 0, 0, 3])) == 4
    arrangement = regions._arrangement(fan.rays, fan.dim, fan.memo)
    held = arrangement.held
    keys = []
    counting(monkeypatch, regions, "_cell_key", lambda arrangement, _: keys.append(arrangement))
    other = divisor([1, 1, 1, 1])
    with pytest.raises(ChamberMembershipError):
        hhat0_on_chamber(fan, coarse, other)
    assert not gkz_membership(fan, coarse, other)
    assert keys == [] and arrangement.held is held
    blowup = make_fan(2, [(1, 0), (1, 1), (0, 1)], [(0, 1), (1, 2)])
    own = gkz_cone(blowup, blowup.max_cones, frozenset())
    with pytest.raises(ChamberMembershipError):
        hhat0_on_chamber(blowup, own, divisor([0, 1, 0]))
    with pytest.raises(NotCompleteError):
        hhat0_on_chamber(blowup, own, divisor([1, 0, 1]))


@pytest.mark.parametrize("make", (bl2_p2, bl1_p3), ids=lambda f: f.__name__)
def test_a_chamber_step_clears_its_divisor_once_and_keys_one_cell(monkeypatch, make):
    # locate_chamber, nef_decomposition, hhat, self_intersection and
    # mixed_partial_h0 on one divisor object: the first call clears it
    # and keys its type cell, the others read its held slot.  The nef
    # part of a chamber with strict rays keys one more cell, on its own
    # normals; on the fan's own chamber it is the held divisor.
    import toricvol.linalg as linalg
    from toricvol import regions

    fan = fresh(make())
    own = gkz_cone(fan, fan.max_cones, frozenset())
    chambers = [own, *(enumerate_maximal_chambers(fan) if fan.dim == 2 else [])]
    ample = divisor([3, 3, 3, 2, 2] if fan.dim == 2 else [3, 3, 3, 3, -1])

    def step(chamber, d):
        location = locate_chamber(fan, d)
        nef_decomposition(fan, chamber, d)
        hhat(fan, d)
        self_intersection(fan, d)
        mixed_partial_h0(fan, d, [len(fan.rays) - 1])
        return location

    for chamber in chambers:  # warm: the chamber systems, plans and cells
        step(chamber, ample if chamber is own else chamber.sample_divisor)
    cleared, keys = [], []
    counting(monkeypatch, linalg, "to_integers", lambda values: cleared.append(tuple(values)))
    counting(monkeypatch, regions, "_cell_key", lambda arrangement, _: keys.append(arrangement))
    arrangement = regions._arrangement(fan.rays, fan.dim, fan.memo)
    for chamber in chambers:
        base = ample if chamber is own else chamber.sample_divisor
        d = scale(base, Fraction(7, 3))
        cleared.clear(), keys.clear()
        assert step(chamber, d).interior
        assert cleared == [d]
        assert [a for a in keys if a is arrangement] == [arrangement]
        assert len(keys) == (2 if chamber.strict_rays else 1), chamber.strict_rays


def test_hhat0_on_chamber_clears_a_new_divisor_once(monkeypatch):
    # hhat0_on_chamber tests membership on the cleared divisor and hands
    # that pair to the held slot, so a new divisor of each of bl2_p2's
    # chambers is cleared once on the fan.  The chamber's own fan clears
    # the pushforward, which is not counted.
    import toricvol.linalg as linalg

    fan = fresh(bl2_p2())
    chambers = enumerate_maximal_chambers(fan)
    rates = [hhat0_on_chamber(fan, chamber, chamber.sample_divisor) for chamber in chambers]
    cleared, pushed = [], []
    counting(monkeypatch, linalg, "to_integers", cleared.append)
    push = gkz.pushforward
    monkeypatch.setattr(gkz, "pushforward", lambda *args: pushed.append(push(*args)) or pushed[-1])
    for chamber, rate in zip(chambers, rates):
        d = scale(chamber.sample_divisor, Fraction(7, 3))
        cleared.clear(), pushed.clear()
        assert hhat0_on_chamber(fan, chamber, d) == Fraction(7, 3) ** 2 * rate
        assert len(pushed) == 1
        assert [values for values in cleared if values is not pushed[0]] == [d], chamber.sigma_cones


def test_a_nef_split_on_cones_holding_every_ray_builds_no_nef_region(monkeypatch):
    # When every ray generates one of the cones, the nef region is a
    # region of the fan itself, on the fan's arrangement; only a chamber
    # with strict rays builds the arrangement of its own normals, and a
    # second split on that chamber builds none.
    from toricvol import regions

    fan = fresh(bl2_p2())
    own = gkz_cone(fan, fan.max_cones, frozenset())
    fan_arrangement = regions._arrangement(fan.rays, fan.dim, fan.memo)

    def plan(chamber):
        return gkz._nef_plan(fan, chamber.sigma_cones, chamber.strict_rays)

    nef_decomposition(fan, own, divisor([3, 3, 3, 2, 2]))
    full = [ch for ch in enumerate_maximal_chambers(fan) if not ch.strict_rays]
    for chamber in full:
        nef_decomposition(fan, chamber, chamber.sample_divisor)
    assert full and all(plan(ch).arrangement is fan_arrangement for ch in (own, *full))
    coarse = next(ch for ch in enumerate_maximal_chambers(fan) if ch.strict_rays)
    nef_decomposition(fan, coarse, coarse.sample_divisor)
    nef = plan(coarse).arrangement
    assert nef is not fan_arrangement
    assert nef.normals == tuple(fan.rays[rho] for rho in plan(coarse).support) != fan.rays
    builds = []
    counting(monkeypatch, regions, "_Arrangement", lambda *args: builds.append(args))
    nef_decomposition(fan, coarse, scale(coarse.sample_divisor, 2))
    assert builds == [] and plan(coarse).arrangement is nef


@pytest.mark.parametrize(
    "make", [*COMPLETE_2D, bl1_p3, p1_cubed, cube_fan], ids=lambda make: make.__name__
)
def test_mixed_partials_match_the_fraction_grid(monkeypatch, make):
    # Every maximal chamber's sample along every ray tuple of size 1..n;
    # on cube_fan, whose 148 samples make the Fraction grid slow, along
    # one ray and one ray pair per sample, turning with its index.  The
    # derivative, like the referee's hhat calls, reads the volume table
    # and runs no region sum.
    from toricvol import regions

    sums = []
    counting(monkeypatch, regions, "region_sum", lambda *args: sums.append(args))
    fan = make()
    k = len(fan.rays)
    pairs = list(combinations(range(k), 2))
    every = [rays for r in range(1, fan.dim + 1) for rays in combinations(range(k), r)]
    checked = 0
    for index, chamber in enumerate(enumerate_maximal_chambers(fan, allow_dim3=True)):
        d = chamber.sample_divisor
        for rays in [(index % k,), pairs[index % len(pairs)]] if make is cube_fan else every:
            expected = growth_referees.mixed_partial_h0(fan, d, rays)
            sums.clear()
            assert mixed_partial_h0(fan, d, rays) == expected, (d, rays)
            assert sums == [], (d, rays)
            checked += 1
    assert checked >= k + k * (k - 1) // 2


@pytest.mark.parametrize("make", [*COMPLETE_2D, bl1_p3], ids=lambda make: make.__name__)
def test_h0_partials_obey_the_euler_and_character_identities(make):
    # ĥ^0 is homogeneous of degree n and constant along div(chi^u), so
    # on an open chamber sum_rho d_rho dĥ^0/dd_rho = n ĥ^0(d) and
    # sum_rho <u, v_rho> dĥ^0/dd_rho = 0 for each coordinate u: checks
    # that need no referee.
    fan = make()
    n = fan.dim
    checked = 0
    for chamber in enumerate_maximal_chambers(fan, allow_dim3=True):
        for d in (chamber.sample_divisor, scale(chamber.sample_divisor, Fraction(7, 3))):
            partials = [mixed_partial_h0(fan, d, [rho]) for rho in range(len(fan.rays))]
            assert sum(c * p for c, p in zip(d, partials)) == n * hhat(fan, d)[0], d
            for axis in range(n):
                assert sum(ray[axis] * p for ray, p in zip(fan.rays, partials)) == 0, (d, axis)
            checked += 1
    assert checked >= 2


def nef_cases(fan, rng):
    """Chamber members: every maximal chamber's sample (2-D), the nef chamber
    of an ample class (3-D), and seeded rational divisors in their located
    chambers, degenerate ones included, each scaled and moved by a character."""
    k = len(fan.rays)
    if fan.dim == 2:
        cases = [(ch, ch.sample_divisor) for ch in enumerate_maximal_chambers(fan)]
    else:
        cases = [(gkz_cone(fan, fan.max_cones, frozenset()), divisor([3, 3, 3, 3, -1]))]
    for d in [divisor([0] * k), *(effective(fan, rng) for _ in range(6))]:
        cases.append((located_cone(fan, locate_chamber(fan, d)), d))
    for cone, d in list(cases):
        t = Fraction(rng.randint(1, 9), rng.choice((2, 3, 5)))
        u = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 7))) for _ in range(fan.dim)]
        cases.append((cone, linear_equiv_shift(fan, scale(d, t), u)))
    return cases


@pytest.mark.parametrize("make", (*COMPLETE_2D, bl1_p3), ids=lambda f: f.__name__)
def test_nef_decomposition_matches_fraction_referee(make):
    fan = make()
    cases = nef_cases(fan, random.Random(31))
    for cone, d in cases:
        answer = nef_decomposition(fan, cone, d)
        assert answer == growth_referees.nef_decomposition(fan, cone, d), (cone.sigma_cones, d)
        fields = (*answer.shifted, *answer.shift, *answer.nef_coeffs.values(), *answer.remainder)
        assert all(type(x) is Fraction for x in fields)
        # Once with d held, once after another divisor was held.
        for held in (d, tuple(c + 1 for c in d)):
            _held_slot(fan, held)
            assert nef_decomposition(fan, cone, d) == answer, (cone.sigma_cones, d, held)
    assert any(cone.lineality_basis for cone, _ in cases)


@pytest.mark.parametrize("make", (f1, bl2_p2, bl1_p3), ids=lambda f: f.__name__)
def test_a_corrupted_nef_plan_row_trips_a_postcondition(make):
    # The checks bite on the shared-slot path: with d held, one owner row
    # of the per-chamber plan moved by one unit of a nonzero coefficient
    # raises ToricError on every ray the chamber's cones hold.
    fan = make()
    tried = 0
    for cone, d in nef_cases(fan, random.Random(37)):
        if not any(d):
            continue
        locate_chamber(fan, d)  # holds d
        expected = nef_decomposition(fan, cone, d)
        key = ("nef_plan", cone.sigma_cones, cone.strict_rays)
        plan = fan._memo[key]
        b = next(i for i, c in enumerate(d) if c)
        for rho in sorted(plan.support):
            rows = list(plan.rows)
            rows[rho] += ((b, 1),)
            fan._memo[key] = dataclasses.replace(plan, rows=tuple(rows))
            try:
                with pytest.raises(ToricError, match="internal"):
                    nef_decomposition(fan, cone, d)
            finally:
                fan._memo[key] = plan
            tried += 1
        assert nef_decomposition(fan, cone, d) == expected
    assert tried >= 2 * len(fan.rays)


@pytest.mark.parametrize("make", COMPLETE_SIMPLICIAL, ids=lambda f: f.__name__)
def test_ample_probes_match_fraction_referee(monkeypatch, make):
    # The probes are built as integers over q b in lowest terms; they are
    # the divisors d +- step e_rho of the Fraction formulation, in order.
    fan = make()
    probes = recorded_rates(monkeypatch)
    divisors = [ch.sample_divisor for ch in enumerate_maximal_chambers(fan)] if fan.dim == 2 else []
    divisors += ample_cases(fan, random.Random(19), 6 if fan.dim < 3 else 2)
    answers = set()
    for d in divisors:
        probes.clear()
        answer = ample_via_asymptotics(fan, d)
        answers.add(answer)
        if answer and not on_cell_wall(fan, d):
            # An open cell: no probe is taken, and the referee's probes all vanish.
            assert probes == [], d
            assert_no_higher_growth_at_referee_probes(fan, d)
        else:
            assert probes == growth_referees.ample_probes(fan, d), d
    assert answers == {True, False}


@pytest.mark.parametrize(
    "make, ample",
    [(bl2_p2, [3, 3, 3, 2, 2]), (bl1_p3, [3, 3, 3, 3, -1]), (star_fan(5), STAR5_WALL)],
    ids=["bl2_p2", "bl1_p3", "star5_wall"],
)
def test_warm_ampleness_solves_nothing_and_skips_the_section_polytope(monkeypatch, make, ample):
    import toricvol.asymptotics as asymptotics
    import toricvol.linalg as linalg

    fan = make()
    d = divisor(ample)
    assert ample_via_asymptotics(fan, d) and is_q_cartier(fan, d) is not None  # warm
    solves, read = [], []
    counting(monkeypatch, linalg, "solve", lambda *args: solves.append(args))
    counting(monkeypatch, asymptotics, "_lawrence_sum", lambda _f, _s, _w, degrees: read.append(degrees))
    assert is_q_cartier(fan, d) is not None
    assert solves == []
    assert ample_via_asymptotics(fan, d)
    assert solves == []
    if on_cell_wall(fan, d):
        # The probes read the volume table's columns of degrees 1..n only,
        # never degree 0, the section polytope's.
        assert read == [slice(1, None)] * (2 * len(fan.rays) + 1)
    else:
        # An open cell's kept table answers: no rate is summed at all.
        assert read == []
    # The counters do see a full hhat's degree 0 and a non-simplicial cone's solve.
    hhat(fan, d)
    assert read[-1] == slice(None)
    assert is_q_cartier(cube_fan(), divisor([1] * 8)) is not None
    assert solves


@pytest.mark.parametrize(
    "make, search",
    [
        *((make, True) for make in (*COMPLETE_2D, bl1_p3, p1_cubed, *map(polygon_fan, range(4)))),
        (cube_fan, True),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_chamber_systems_match_fraction_referees(make, search):
    # Every maximal chamber and the chambers of the zero divisor and of 40 seeded divisors,
    # degenerate ones included.  The systems, and the cone functionals of
    # each member, match one Fraction solve per ray and basis.
    fan = make()
    common = fan.configuration.table[0]
    rng = random.Random(18)
    cases = []
    if search:
        cases += [(ch, ch.sample_divisor) for ch in enumerate_maximal_chambers(fan, allow_dim3=True)]
    for d in [divisor([0] * len(fan.rays))] + [effective(fan, rng) for _ in range(40)]:
        cases.append((located_cone(fan, locate_chamber(fan, d)), d))
    for cone, d in cases:
        system = (cone.members, cone.bases, cone.equalities, cone.inequalities)
        assert system == chamber_referees.gkz_system(fan, cone.sigma_cones, cone.strict_rays)
        coefficients, q = to_integers(d)
        us = [
            tuple(Fraction(x, common * q) for x in u)
            for u in (_basis_functional(fan, basis, coefficients) for basis in cone.bases)
        ]
        owners = gkz._gkz_system(fan, cone.sigma_cones, cone.strict_rays)[2]
        values = tuple(dot(us[owner], ray) for owner, ray in zip(owners, fan.rays))
        assert (us, values) == chamber_referees.piecewise_linear_data(fan, cone, d), d
    assert any(cone.lineality_basis for cone, _ in cases)
    assert any(not cone.lineality_basis for cone, _ in cases)


def fresh(fan):
    """A new Fan on the same data, so that its per-fan memo starts empty."""
    return make_fan(fan.dim, fan.rays, fan.max_cones)


def star_fan(splits):
    def make():
        return make_fan(*star_fan_data(splits))

    make.__name__ = f"star{splits}"
    return make


@pytest.mark.parametrize(
    "make",
    [*COMPLETE_2D, bl1_p3, p1_cubed, cube_fan, *map(star_fan, range(1, 5)), *map(polygon_fan, range(4))],
    ids=lambda make: make.__name__,
)
def test_cone_members_and_extreme_subsets_match_lp_referee(monkeypatch, make):
    # Every cone and tight set that enumeration, gkz_cone and the location
    # of the chamber samples, of 0, of the sum of the ray divisors and of
    # seeded divisors meet (each answer recorded as the helper gives it),
    # degenerate and non-simplicial chambers included: the members read
    # off the basis table are the rays cone_contains puts in the cone,
    # and the extreme subset the rays it finds outside the cone of the
    # others.
    facts = {kind: {} for kind in ("cone_members", "extreme_subset")}
    for kind in facts:
        helper = getattr(gkz, f"_{kind}")

        def recorded(fan, rays, helper=helper, found=facts[kind]):
            found[rays] = helper(fan, rays)
            return found[rays]

        monkeypatch.setattr(gkz, f"_{kind}", recorded)
    fan = fresh(make())
    k = len(fan.rays)
    rng = random.Random(26)
    divisors = [divisor([0] * k), divisor([1] * k)]
    for chamber in enumerate_maximal_chambers(fan, allow_dim3=True):
        gkz_cone(fan, chamber.sigma_cones, chamber.strict_rays)
        divisors.append(chamber.sample_divisor)
    divisors += [effective(fan, rng) for _ in range(20)]
    for d in divisors:
        located_cone(fan, locate_chamber(fan, d))
    assert facts["cone_members"] and facts["extreme_subset"]
    for cone, members in facts["cone_members"].items():
        gens = [fan.rays[i] for i in sorted(cone)]
        assert members == {rho for rho, ray in enumerate(fan.rays) if cone_contains(gens, ray)}, cone
    for rays, extreme in facts["extreme_subset"].items():
        others = {i: [fan.rays[j] for j in rays if j != i] for i in rays}
        held = {i for i in rays if others[i] and cone_contains(others[i], fan.rays[i])}
        assert extreme == rays - held, rays


def test_gkz_cone_rejects_a_lower_dimensional_cone():
    # A cone that spans no full-dimensional space holds no ray basis, so
    # it has no members and no condition system.
    cases = [(p2(), {0}), (bl1_p3(), {0, 1}), (cube_fan(), {0, 1}), (cube_fan(), {0, 1, 6, 7})]
    assert rank([cube_fan().rays[i] for i in (0, 1, 6, 7)]) == 2
    for fan, cone in cases:
        with pytest.raises(ValueError, match="cone has no independent ray basis outside the strict set"):
            gkz_cone(fresh(fan), [cone], ())
    # A cone that meets the strict set is refused before any system is built.
    with pytest.raises(ValueError, match="cone generators must avoid the strict-ray set"):
        gkz_cone(fresh(p2()), [{0, 1}], {1})


def test_cold_lp_census(monkeypatch):
    # A cold enumeration solves one LP per certified candidate, the one
    # that decides projectivity and gives the sample: 5 on bl2_p2 and 166
    # on cube_fan, whose own face LPs are warmed first.  Cold chamber
    # location, chamber cones, nef splits and ampleness tests on a fresh
    # simplicial fan solve none.
    calls = counting_solve_lp(monkeypatch)
    for make, certified in ((bl2_p2, 5), (cube_fan, 166)):
        fan = fresh(make())
        is_complete(fan)
        calls.clear()
        enumerate_maximal_chambers(fan, allow_dim3=True)
        assert len(calls) == certified, make.__name__
    for make in (bl3_p2, bl1_p3, star_fan(3)):
        fan = fresh(make())
        calls.clear()
        rng = random.Random(27)
        k = len(fan.rays)
        for d in [divisor([0] * k), divisor([1] * k), *(effective(fan, rng) for _ in range(12))]:
            location = locate_chamber(fan, d)
            nef_decomposition(fan, located_cone(fan, location), d)
            ample_via_asymptotics(fan, d)
        assert calls == [], make.__name__


def test_hhat0_on_chamber_builds_each_chamber_fan_once(monkeypatch):
    import toricvol.fan as fan_module

    fan = bl3_p2()
    chambers = enumerate_maximal_chambers(fan)
    first = [hhat0_on_chamber(fan, ch, ch.sample_divisor) for ch in chambers]
    built = []
    original = fan_module.fan_diagnostics

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(fan_module, "fan_diagnostics", counted)
    assert [hhat0_on_chamber(fan, ch, ch.sample_divisor) for ch in chambers] == first
    assert built == []
    # The counter does see a chamber fan built afresh.
    sigma_to_fan(fan, chambers[0].sigma_cones)
    assert built

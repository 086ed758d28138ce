import random
from fractions import Fraction
from functools import partial

import pytest

import fraction_linalg
from complex_referees import EVERY_FIXTURE
from generated_fans import star_fan_data
from toricvol.divisor import (
    divisor,
    is_ample,
    is_cartier,
    is_q_cartier,
    linear_equiv_shift,
    ray_divisor,
    scale,
)
from toricvol.errors import NotCompleteError
from toricvol.fan import validate_fan
from toricvol.fixtures import f1, p1, p2, quadrant_fan, square_cone_fan, weighted_p112


def test_parse_divisor():
    d = divisor([1, "1/2", "-3"])
    assert d == (Fraction(1), Fraction(1, 2), Fraction(-3))
    assert divisor(["+3", "-1/2", "04/6", Fraction(5, 7), -2]) == (
        Fraction(3), Fraction(-1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(-2)
    )
    assert all(type(c) is Fraction for c in divisor([1, "2", Fraction(3)]))


@pytest.mark.parametrize(
    "coeff",
    ["1_0", "1e3", " 1/2 ", "\u0661", "1/0", "1/-2", "", "0.5", True, 0.5, None, [1]],
)
def test_divisor_rejects_other_spellings(coeff):
    # Fraction() would read the first four as 10, 1000, 1/2 and 1, True as
    # 1 and 0.5 at its binary value; only ints, Fractions and ASCII
    # "p" / "p/q" strings pass.
    with pytest.raises(ValueError):
        divisor([0, coeff, 0])


@pytest.mark.parametrize("factor", ["1_0", " 1e3 ", "1/0", True, 0.1, None])
def test_scale_and_ray_divisor_read_factors_like_divisor(factor):
    # Fraction() read "1_0" as 10, " 1e3 " as 1000 and 0.1 at its binary
    # value, in factors and in the entries of linear_equiv_shift's character.
    with pytest.raises(ValueError):
        scale(divisor([1, 2]), factor)
    with pytest.raises(ValueError):
        ray_divisor(p2(), 0, factor)
    with pytest.raises(ValueError):
        linear_equiv_shift(p2(), divisor([1, 0, 0]), (factor, 0))


def test_scale_and_ray_divisor_examples():
    assert scale(divisor([1, 2]), "-1/2") == (Fraction(-1, 2), Fraction(-1))
    assert scale(divisor([1]), Fraction(2, 3)) == (Fraction(2, 3),)
    assert ray_divisor(p2(), 2, "3/4") == (0, 0, Fraction(3, 4))
    assert all(type(c) is Fraction for c in ray_divisor(p2(), 1, 5))


def test_scale_reads_the_divisor_at_exact_values():
    # scale((0.1, 1), 2) gave the float 0.2, and scale((True, 0, 0), 3)
    # gave (3, 0, 0), which h_all answered although it rejects (True, 0, 0).
    scaled = scale((0.1, 1), 2)
    assert scaled == (2 * Fraction(0.1), 2)
    assert all(type(c) is Fraction for c in scaled)
    assert scale((Fraction(1, 2), 3), "2/3") == (Fraction(1, 3), 2)
    from toricvol.cohomology import h_all

    with pytest.raises(ValueError, match="bools"):
        h_all(p2(), (True, 0, 0))
    with pytest.raises(ValueError, match="bools"):
        scale((True, 0, 0), 3)
    with pytest.raises(TypeError, match="strings"):
        scale(("1", 0), 2)


@pytest.mark.parametrize("index", [-1, 3, 7])
def test_ray_divisor_rejects_other_indices(index):
    # ray_divisor(p2(), -1) used to return D_2.
    with pytest.raises(ValueError, match=f"ray indices \\[{index}\\] are not among the fan's 3 rays"):
        ray_divisor(p2(), index)


def test_q_cartier_p2():
    fan = p2()
    data = is_q_cartier(fan, ray_divisor(fan, 0))
    assert data is not None
    # On the cone spanned by rays 0 and 1 the functional is (-1, 0).
    idx = list(fan.max_cones).index(frozenset({0, 1}))
    assert data.u_sigma[idx] == (Fraction(-1), Fraction(0))
    assert is_cartier(fan, ray_divisor(fan, 0))


def test_q_cartier_square_cone_fails():
    fan = square_cone_fan()
    assert is_q_cartier(fan, ray_divisor(fan, 0)) is None


def test_zero_divisor_always_cartier():
    for fan in (p2(), square_cone_fan(), f1()):
        data = is_q_cartier(fan, divisor([0] * len(fan.rays)))
        assert data is not None
        assert all(all(v == 0 for v in u) for u in data.u_sigma)


def test_weighted_fan_fractional_cartier_data():
    fan = weighted_p112()
    d = ray_divisor(fan, 0)
    data = is_q_cartier(fan, d)
    assert data is not None
    assert not data.is_integral(d)  # Q-Cartier, not Cartier
    assert is_cartier(fan, scale(d, 2))


def test_is_cartier_reads_a_float_divisor_at_its_exact_value():
    fan = p2()
    assert is_cartier(fan, (1.0, 0, 0))
    assert not is_cartier(fan, (0.5, 0, 0))
    assert not is_cartier(fan, (0.1, 0.0, 0.0))
    weighted = weighted_p112()
    assert not is_cartier(weighted, (1.0, 0.0, 0.0))
    assert is_cartier(weighted, (2.0, 0.0, 0.0))


def test_ample_p2():
    fan = p2()
    assert is_ample(fan, ray_divisor(fan, 0))
    assert not is_ample(fan, divisor([0, 0, 0]))
    assert not is_ample(fan, scale(ray_divisor(fan, 0), -1))


def test_ample_f1_exceptional():
    fan = f1()
    assert not is_ample(fan, ray_divisor(fan, 3))
    assert is_ample(fan, divisor([1, 1, 1, 1]))


def test_ample_requires_complete():
    with pytest.raises(NotCompleteError):
        is_ample(quadrant_fan(), divisor([1, 1]))


def test_ample_scaling_invariance():
    fan = f1()
    rng = random.Random(2)
    found = 0
    while found < 10:
        d = divisor([rng.randint(-3, 3) for _ in range(4)])
        if is_ample(fan, d):
            found += 1
            assert is_ample(fan, scale(d, 2))
            assert is_ample(fan, scale(d, Fraction(1, 3)))


def test_ample_implies_nef_inequalities():
    fan = f1()
    rng = random.Random(9)
    checked = 0
    while checked < 10:
        d = divisor([rng.randint(-3, 3) for _ in range(4)])
        if not is_ample(fan, d):
            continue
        data = is_q_cartier(fan, d)
        for mc, u in zip(fan.max_cones, data.u_sigma):
            for rho, ray in enumerate(fan.rays):
                value = sum(a * b for a, b in zip(u, ray))
                assert value >= -d[rho]
        checked += 1


def test_linear_equiv_shift_examples():
    fan = p2()
    shifted = linear_equiv_shift(fan, ray_divisor(fan, 0), (1, 0))
    assert shifted == (Fraction(2), Fraction(0), Fraction(-1))
    d = divisor([5, -2, 7])
    assert linear_equiv_shift(fan, d, (0, 0)) == d
    line = p1()
    moved = linear_equiv_shift(line, divisor([3, 4]), (2,))
    assert moved == (Fraction(5), Fraction(2))
    assert sum(moved) == sum(divisor([3, 4]))  # degree is the class invariant
    halves = linear_equiv_shift(fan, ray_divisor(fan, 0), ("-1/2", Fraction(1, 3)))
    assert halves == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    assert all(type(c) is Fraction for c in halves)


def wrong_length_calls():
    from toricvol.asymptotics import hhat, self_intersection
    from toricvol.cohomology import cech_oracle, euler_char, graded_piece_dim, h_all, weak_ray_set
    from toricvol.gkz import locate_chamber, pushforward
    from toricvol.regions import region

    return (
        h_all, euler_char, cech_oracle, hhat, self_intersection, locate_chamber, is_q_cartier,
        lambda fan, d: region(fan, d, ()),
        lambda fan, d: pushforward(fan, fan, d),
        lambda fan, d: weak_ray_set(fan, d, (0, 0)),
        lambda fan, d: graded_piece_dim(fan, d, (0, 0), 0),
        lambda fan, d: linear_equiv_shift(fan, d, (1, 0)),
    )


@pytest.mark.parametrize("extra", (-1, 1))
def test_wrong_length_divisor_is_rejected(extra):
    # h_all(p2, (3, 0, 0, 5)) used to drop the 5 and answer (10, 0, 0);
    # pushforward dropped the extra coefficient too.
    fan = p2()
    d = divisor([3, 0, 0, 5][: 3 + extra])
    for call in wrong_length_calls():
        with pytest.raises(ValueError, match=f"divisor has {3 + extra} coefficients, fan has 3 rays"):
            call(fan, d)


def test_string_coefficients_are_rejected_outside_divisor():
    # Only ``divisor`` reads text; elsewhere " 1" would be parsed leniently.
    from toricvol.asymptotics import hhat
    from toricvol.cohomology import euler_char, h_all

    fan = p2()
    for call in (h_all, euler_char, hhat, is_q_cartier):
        with pytest.raises(TypeError, match="not strings"):
            call(fan, ("1", "2", " 1"))
    assert h_all(fan, divisor(["1", "2", "1"])) == (15, 0, 0)


def malformed_calls():
    """(call on P², message, and the error type when it is not ValueError)."""
    from toricvol.asymptotics import hhat, mixed_partial_h0, self_intersection
    from toricvol.cohomology import cech_ranks, graded_piece_dim, h_all, weak_ray_set
    from toricvol.errors import PreconditionError
    from toricvol.fan import Cone, cone_multiplicity, subfan
    from toricvol.gkz import (
        ample_via_asymptotics, gkz_cone, locate_chamber, normal_fan, sigma_to_fan, support_function
    )
    from toricvol.homology import local_cohomology_ranks, sphere_complex
    from toricvol.regions import HalfOpenRegion, ehrhart_probe, is_bounded_subset, region

    d = divisor([1, 1, 1])
    half_plane = HalfOpenRegion(((1, 0),), (Fraction(0),), (True,), 2)

    def lineality(basis):  # P²'s own chamber with the given lineality basis
        return lambda fan: gkz_cone(fan, fan.max_cones, (), lineality_basis=basis)

    text = ("1", "2", "1")  # h_all rejects it with this message
    strings = "values must be numbers, not strings"
    warm = ([0, 1, 2], [0, True, 2.0])  # the second call used to hit the first's memo entry
    not_ints = "ray indices \\[True, 2.0\\] are not integers"
    flag = (True, 0, 0)  # each call below used to read it as (1, 0, 0)
    bools = "values must be numbers, not bools"
    return (
        (lambda fan: linear_equiv_shift(fan, d, (1,)), "character has 1 entries"),
        (lambda fan: linear_equiv_shift(fan, d, (1, 2, 3)), "character has 3 entries"),
        (lambda fan: weak_ray_set(fan, d, (0,)), "point has 1 coordinates"),
        (lambda fan: graded_piece_dim(fan, d, (0, 0, 0), 0), "point has 3 coordinates"),
        (lambda fan: graded_piece_dim(fan, d, (0, 0), -1), "in 0..2, got -1"),
        (lambda fan: graded_piece_dim(fan, d, (0, 0), 7), "in 0..2, got 7"),
        (lambda fan: graded_piece_dim(fan, d, (0, 0), True), "in 0..2, got True"),
        (lambda fan: graded_piece_dim(fan, d, (Fraction(1, 2), 0), 0), "\\(Fraction\\(1, 2\\), 0\\) has"),
        (lambda fan: graded_piece_dim(fan, d, (0.5, 0), 0), "\\(0.5, 0\\) has coordinates that are not"),
        (lambda fan: graded_piece_dim(fan, d, (True, 0), 0), "\\(True, 0\\) has coordinates that are not"),
        (lambda fan: region(fan, d, [7]), "ray indices \\[7\\]"),
        (lambda fan: region(fan, d, [0, -1, 3]), "ray indices \\[-1, 3\\]"),
        (lambda fan: ehrhart_probe(fan, d, [7], 2), "ray indices \\[7\\]"),
        (lambda fan: ehrhart_probe(fan, d, [0], 0), "m_max must be an integer of at least 1, got 0"),
        (lambda fan: ehrhart_probe(fan, d, [0], -3), "got -3"),
        (lambda fan: ehrhart_probe(fan, d, [0], True), "got True"),
        (lambda fan: ehrhart_probe(fan, d, [0], 2.0), "got 2.0"),
        (lambda fan: gkz_cone(fan, [{0, 7}], ()), "ray indices \\[7\\]"),
        (lambda fan: gkz_cone(fan, [{0, 1}], (9,)), "ray indices \\[9\\]"),
        (lambda fan: gkz_cone(fan, [{-1, 1}], ()), "ray indices \\[-1\\]"),
        (lambda fan: sigma_to_fan(fan, [{0, 1}, {1, 7}]), "ray indices \\[7\\]"),
        (lambda fan: gkz_cone(fan, [{0, "a"}], ()), "ray indices \\['a'\\] are not integers"),
        (lambda fan: sigma_to_fan(fan, [{0, "a"}]), "ray indices \\['a'\\] are not integers"),
        (lambda fan: gkz_cone(fan, [{0, 1}], (True,)), "ray indices \\[True\\] are not integers"),
        (lambda fan: gkz_cone(fan, [[0, 1], [True, 2]], ()), "ray indices \\[True\\] are not integers"),
        (lambda fan: sigma_to_fan(fan, [[0, 1], [1.0, 2]]), "ray indices \\[1.0\\] are not integers"),
        (lambda fan: local_cohomology_ranks(fan, [7]), "ray indices \\[7\\]"),
        (lambda fan: cech_ranks(fan, [-1]), "ray indices \\[-1\\]"),
        (lambda fan: [local_cohomology_ranks(fan, rays) for rays in warm], not_ints),
        (lambda fan: [cech_ranks(fan, rays) for rays in warm], not_ints),
        (lambda fan: is_bounded_subset(fan, [-1]), "ray indices \\[-1\\]"),
        (lambda fan: region(fan, d, [True]), "ray indices \\[True\\] are not integers"),
        (lambda fan: region(fan, d, [1.0]), "ray indices \\[1.0\\] are not integers"),
        (lambda fan: ray_divisor(fan, True), "ray indices \\[True\\] are not integers"),
        (lambda fan: is_bounded_subset(fan, [0.0, 1.0, 2.0]), "\\[0.0, 1.0, 2.0\\] are not integers"),
        (lambda fan: mixed_partial_h0(fan, d, [True]), "got \\[True\\]", PreconditionError),
        (lambda fan: mixed_partial_h0(fan, d, [1.0]), "got \\[1.0\\]", PreconditionError),
        (lambda fan: cone_multiplicity(fan, Cone(frozenset({-1, 0}), 2)), "ray indices \\[-1\\]"),
        (lambda fan: cone_multiplicity(fan, Cone(frozenset({5, 0}), 2)), "ray indices \\[5\\]"),
        (lambda fan: region(fan, text, [0]), strings, TypeError),
        (lambda fan: support_function(fan, text), strings, TypeError),
        (lambda fan: normal_fan(fan, text), strings, TypeError),
        (lambda fan: locate_chamber(fan, text), strings, TypeError),
        (lambda fan: mixed_partial_h0(fan, text, [0]), strings, TypeError),
        (lambda fan: ample_via_asymptotics(fan, text), strings, TypeError),
        (lambda fan: self_intersection(fan, text), strings, TypeError),
        (lambda fan: self_intersection(fan, (1, None, 1)), "Rational instance", TypeError),
        (lambda fan: ehrhart_probe(fan, text, [0], 2), strings, TypeError),
        (lambda fan: region(fan, (1, None, 1), [0]), "Rational instance", TypeError),
        (lambda fan: locate_chamber(fan, (1, None, 1)), "Rational instance", TypeError),
        (lambda fan: subfan(fan, [5]), "ray indices \\[5\\]"),
        (lambda fan: subfan(fan, [True]), "ray indices \\[True\\] are not integers"),
        (lambda fan: sphere_complex(fan, ["a"]), "ray indices \\['a'\\] are not integers"),
        (lambda fan: weak_ray_set(fan, text, (0, 0)), strings, TypeError),
        (lambda fan: graded_piece_dim(fan, text, (0, 0), 0), strings, TypeError),
        (lambda fan: weak_ray_set(fan, (1, None, 1), (0, 0)), "Rational instance", TypeError),
        (lambda fan: weak_ray_set(fan, d, (True, 0)), "\\(True, 0\\) has a bool coordinate"),
        (lambda fan: weak_ray_set(fan, d, ("1", 0)), strings, TypeError),
        (lambda fan: half_plane.contains((0, False)), "\\(0, False\\) has a bool coordinate"),
        (lambda fan: half_plane.contains(("1", 0)), strings, TypeError),
        (lambda fan: linear_equiv_shift(fan, text, (1, 0)), strings, TypeError),
        (lineality([(" 1/2 ", 1)]), "' 1/2 ' is not an integer"),
        (lineality([(1, True)]), "True is not an integer"),
        (lineality([("1e3", 0)]), "'1e3' is not an integer"),
        (lineality([(1,)]), "lineality vector needs 2 entries"),
        (lambda fan: h_all(fan, flag), bools),
        (lambda fan: hhat(fan, flag), bools),
        (lambda fan: locate_chamber(fan, flag), bools),
        (lambda fan: ample_via_asymptotics(fan, flag), bools),
        (lambda fan: is_q_cartier(fan, flag), bools),
        (lambda fan: linear_equiv_shift(fan, flag, (1, 0)), bools),
        (lambda fan: gkz_cone(fan, fan.max_cones, ()).contains(flag), bools),
        (lambda fan: h_all(fan, (Fraction(1, 2), False, 0)), bools),
        (lineality([(1, 0, 0)]), "needs 2 entries"),
    )


def test_malformed_points_characters_and_ray_indices_are_rejected():
    # Each call used to answer: a short character or point was read as if
    # zero-padded, a long one truncated, and unknown ray indices dropped;
    # ehrhart_probe gave an empty table for m_max <= 0, gkz_cone and
    # sigma_to_fan raised IndexError, and graded_piece_dim read degree -1
    # as the top degree and raised IndexError on degree 7.  True and 1.0
    # were read as ray 1 (mixed_partial_h0 and is_bounded_subset raised
    # TypeError on some), and cone_multiplicity read ray -1 as ray 2 and
    # raised IndexError on ray 5.  The rank functions read [0, True, 2.0]
    # as [0, 1, 2] once that subset was memoized; gkz_cone and
    # sigma_to_fan raised a bare TypeError on a cone {0, 'a'}, and
    # gkz_cone took a strict True for ray 1 of the cone.  String and None
    # coefficients failed in region, the chamber functions, weak_ray_set
    # and graded_piece_dim with "bad operand type for unary -", and in
    # ehrhart_probe with "can't multiply sequence"; every divisor is now
    # cleared like h_all clears it.  subfan returned a subfan for ray 5,
    # read True as ray 1, and sphere_complex took ray 'a'.
    fan = p2()
    for call, message, *error in malformed_calls():
        for _ in range(2):  # a failed memoized compute stores nothing
            with pytest.raises(error[0] if error else ValueError, match=message):
                call(fan)


def test_float_points_and_coefficients_are_read_at_their_exact_values():
    # The exact value of the float 0.3 lies below 3/10, and that of
    # 0.1 + 0.2 above the exact 0.1 plus the exact 0.2; each call used to
    # decide or compute in float arithmetic.
    from toricvol.cohomology import weak_ray_set
    from toricvol.gkz import gkz_cone
    from toricvol.regions import HalfOpenRegion

    fan = p2()
    d = (Fraction(-3, 10), 0, 0)
    assert weak_ray_set(fan, d, (0.3, 0)) == {1}
    assert weak_ray_set(fan, d, (Fraction(3, 10), 0)) == weak_ray_set(fan, d, (0.5, 0)) == {0, 1}
    tight = HalfOpenRegion(((1, 1),), (Fraction(0.1 + 0.2),), (True,), 2)
    assert not tight.contains((0.1, 0.2))
    assert tight.contains((0.1, 0.25)) and tight.contains((Fraction(0.1 + 0.2), 0))
    shifted = linear_equiv_shift(fan, (0.1, 0, 0), (1, 0))
    assert shifted == (Fraction(0.1) + 1, 0, -1)
    assert all(type(c) is Fraction for c in shifted)
    cone = gkz_cone(fan, fan.max_cones, (), lineality_basis=[("1/2", 1)])
    assert cone.lineality_basis == ((Fraction(1, 2), Fraction(1)),)


def test_rank_functions_check_ray_indices_on_every_call(monkeypatch):
    # The public rank functions check the raw entries before the memo
    # lookup, warm or cold; the region sums weigh their subsets, built
    # from ray bitmasks, through the memo readers, which check nothing.
    from toricvol import cohomology, homology
    from toricvol.cohomology import cech_oracle, cech_ranks, h_all
    from toricvol.fan import _check_rays
    from toricvol.homology import local_cohomology_ranks

    fan = validate_fan(2, p2().rays, p2().max_cones)  # a fresh memo
    cold = (local_cohomology_ranks(fan, [0, 2]), cech_ranks(fan, [0, 2]))
    checked = []

    def recorded(fan_, rays):
        rays = tuple(rays)
        checked.append(rays)
        return _check_rays(fan_, rays)

    for module in (homology, cohomology):
        monkeypatch.setattr(module, "_check_rays", recorded)
    assert (local_cohomology_ranks(fan, [2, 0]), cech_ranks(fan, [2, 0])) == cold
    assert checked == [(2, 0), (2, 0)]
    d = divisor([2, -1, 1])
    assert h_all(fan, d) == cech_oracle(fan, d)
    subset = frozenset({0, 2})
    assert (homology._local_ranks(fan, subset), cohomology._cech_ranks(fan, subset)) == cold
    assert len(checked) == 2


def cartier_referee(fan, d):
    """``u_sigma`` by one ``Fraction`` solve per maximal cone, or None."""
    us = []
    for mc in fan.max_cones:
        idx = sorted(mc)
        u = fraction_linalg.solve([fan.rays[i] for i in idx], [-d[i] for i in idx])
        if u is None:
            return None
        us.append(tuple(u))
    return tuple(us)


@pytest.mark.parametrize(
    "make",
    [*EVERY_FIXTURE, *(partial(validate_fan, *star_fan_data(s)) for s in (1, 2, 3))],
    ids=[f.__name__ for f in EVERY_FIXTURE] + ["star1", "star2", "star3"],
)
def test_q_cartier_matches_per_cone_solve(make):
    # Simplicial cones read u off the fan's integer inverses; the referee
    # solves every cone over Fraction.  Principal divisors (shifted by a
    # random rational u) are Q-Cartier on every fan, the others mostly
    # only on simplicial ones.
    fan = make()
    rng = random.Random(16)
    k = len(fan.rays)
    for trial in range(30):
        d = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(k)]
        if trial % 3 == 0:
            u = [Fraction(rng.randint(-5, 5), rng.choice((1, 4))) for _ in range(fan.dim)]
            d = [-sum(a * b for a, b in zip(u, ray)) for ray in fan.rays]
        elif trial % 3 == 1:
            d = [int(c) for c in d]
        d = tuple(d)
        data = is_q_cartier(fan, d)
        expected = cartier_referee(fan, d)
        if expected is None:
            assert data is None, (d,)
        else:
            assert data is not None and data.u_sigma == expected, (d,)
            assert all(type(v) is Fraction for u in data.u_sigma for v in u)

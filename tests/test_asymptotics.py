import math
import random
from fractions import Fraction

import pytest

from growth_referees import derivative_weights
from toricvol.asymptotics import (
    _rates,
    asymptotic_rr_check,
    hhat,
    mixed_partial_h0,
    self_intersection,
)
from toricvol.cohomology import h_all
from toricvol.divisor import divisor, is_q_cartier, linear_equiv_shift, ray_divisor, scale
from toricvol.errors import ChamberWallError, NotQCartierError, PreconditionError
from toricvol.fan import Cone, cone_multiplicity
from toricvol.fixtures import bl1_p3, bl2_p2, f1, p1, p1xp1, p2, weighted_p112


def test_hhat_examples():
    fan = p2()
    assert hhat(fan, scale(ray_divisor(fan, 0), 3)) == (9, 0, 0)
    line = p1()
    assert hhat(line, scale(ray_divisor(line, 0), -2)) == (0, 2)
    box = p1xp1()
    assert hhat(box, divisor([2, 0, -3, 0])) == (0, 12, 0)


def test_hhat_homogeneity():
    rng = random.Random(6)
    for fixture in (p2, p1xp1, f1):
        fan = fixture()
        k = len(fan.rays)
        for _ in range(10):
            d = divisor([rng.randint(-4, 4) for _ in range(k)])
            base = hhat(fan, d)
            for m in (2, 3):
                scaled = hhat(fan, scale(d, m))
                assert scaled == tuple(m**fan.dim * v for v in base)


def test_hhat_class_invariance():
    rng = random.Random(13)
    for fixture in (p2, p1xp1, f1):
        fan = fixture()
        k = len(fan.rays)
        for _ in range(10):
            d = divisor([rng.randint(-4, 4) for _ in range(k)])
            u = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(fan.dim))
            assert hhat(fan, linear_equiv_shift(fan, d, u)) == hhat(fan, d)


def test_hhat_asymptotic_duality():
    # hhat^i(D) = hhat^(n-i)(-D): up to its boundary, the region of W for
    # -D is minus the region of the complement of W for D.
    rng = random.Random(15)
    for fixture in (p1, p2, p1xp1, f1, weighted_p112, bl2_p2, bl1_p3):
        fan = fixture()
        for _ in range(6):
            d = divisor([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in fan.rays])
            negated = tuple(-c for c in d)
            assert hhat(fan, d) == hhat(fan, negated)[::-1], (fixture.__name__, d)


def test_h_all_integer_shift_invariance():
    rng = random.Random(14)
    for fixture in (p2, p1xp1, f1):
        fan = fixture()
        k = len(fan.rays)
        for _ in range(10):
            d = divisor([rng.randint(-4, 4) for _ in range(k)])
            u = tuple(rng.randint(-5, 5) for _ in range(fan.dim))
            assert h_all(fan, linear_equiv_shift(fan, d, u)) == h_all(fan, d)


def test_self_intersection_p2():
    fan = p2()
    for d in (1, 2, 3):
        assert self_intersection(fan, scale(ray_divisor(fan, 0), d)) == d * d
        assert self_intersection(fan, scale(ray_divisor(fan, 0), -d)) == d * d


def test_self_intersection_p1_both_signs():
    line = p1()
    for a in (3, 0, -4):
        assert self_intersection(line, scale(ray_divisor(line, 0), a)) == a


def test_self_intersection_fractional():
    fan = p2()
    d = scale(ray_divisor(fan, 0), Fraction(3, 2))
    assert self_intersection(fan, d) == Fraction(9, 4)


def test_self_intersection_not_q_cartier():
    from toricvol.fixtures import cube_fan

    fan = cube_fan()
    assert is_q_cartier(fan, ray_divisor(fan, 0)) is None
    with pytest.raises(NotQCartierError):
        self_intersection(fan, ray_divisor(fan, 0))
    assert self_intersection(fan, divisor([1] * 8)) == 8  # the octahedron, 3! * 4/3


def test_self_intersection_builds_no_cartier_data_on_simplicial_fans(monkeypatch):
    # Every Weil divisor of a complete simplicial fan is Q-Cartier.
    import toricvol.asymptotics as asymptotics

    asked = []
    original = asymptotics.is_q_cartier
    monkeypatch.setattr(asymptotics, "is_q_cartier", lambda fan, d: asked.append(d) or original(fan, d))
    for make, d in ((p2, (3, 0, 0)), (bl2_p2, (1, 1, 1, 1, 1)), (bl1_p3, (3, 3, 3, 3, -1))):
        self_intersection(make(), divisor(d))
    assert asked == []
    from toricvol.fixtures import cube_fan

    self_intersection(cube_fan(), divisor([1] * 8))
    assert asked


def test_rr_check_examples():
    fan = p2()
    assert asymptotic_rr_check(fan, scale(ray_divisor(fan, 0), 3)) == (9, 9)
    assert asymptotic_rr_check(fan, scale(ray_divisor(fan, 0), -3)) == (9, 9)
    box = p1xp1()
    lhs, rhs = asymptotic_rr_check(box, divisor([2, 0, -3, 0]))
    assert (lhs, rhs) == (-12, -12)


def test_rr_check_random():
    rng = random.Random(19)
    for fixture in (p2, p1xp1, f1, weighted_p112):
        fan = fixture()
        k = len(fan.rays)
        for _ in range(10):
            d = divisor([rng.randint(-4, 4) for _ in range(k)])
            if is_q_cartier(fan, d) is None:
                continue
            lhs, rhs = asymptotic_rr_check(fan, d)
            assert lhs == rhs, (fixture.__name__, d)


def test_limit_convergence_probe():
    # The constants are the exact gaps at m = 1.  Plane: by Pick, the
    # triangle of D_0 (area 1/2, b = 3 boundary lattice points) has gap
    # b/m + 2/m^2 <= (b + 2)/m = 5/m.  Line: h^1(O(-2m)) = 2m - 1, gap 1/m.
    fan = p2()
    d = ray_divisor(fan, 0)
    target = hhat(fan, d)
    n = fan.dim
    for m in range(1, 21):
        hs = h_all(fan, scale(d, m))
        for i in range(n + 1):
            gap = abs(Fraction(hs[i] * math.factorial(n), m**n) - target[i])
            assert gap <= Fraction(5, m)
    line = p1()
    d = scale(ray_divisor(line, 0), -2)
    target = hhat(line, d)
    for m in range(1, 21):
        hs = h_all(line, scale(d, m))
        for i in range(2):
            gap = abs(Fraction(hs[i], m) - target[i])
            assert gap <= Fraction(1, m)


def test_derivative_weights_are_exact_on_polynomials():
    # sum w_k p(k * step) = p'(0) for every polynomial of degree <= n: the
    # weights of the Fraction grid referee of mixed_partial_h0.
    rng = random.Random(15)
    for n in range(1, 6):
        for step in (Fraction(1), Fraction(1, 3), Fraction(7, 100), Fraction(5, 2)):
            weights = derivative_weights(n, step)
            for _ in range(5):
                coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)]

                def p(x):
                    return sum(c * x**j for j, c in enumerate(coeffs))

                total = sum(w * p(k * step) for k, w in enumerate(weights))
                assert total == coeffs[1], (n, step, coeffs)


def test_mixed_partial_examples():
    fan = p2()
    d = scale(ray_divisor(fan, 0), 3)
    assert mixed_partial_h0(fan, d, [0, 1]) == 2
    assert mixed_partial_h0(fan, d, [0]) == 6
    assert mixed_partial_h0(fan, d, [1, 2]) == 2


def test_mixed_partial_reads_a_float_divisor_at_its_exact_value():
    # The grid is built on the divisor cleared to integers, so a float
    # coefficient is its exact binary value, as everywhere else.
    assert mixed_partial_h0(p2(), (0.1, 0, 0), [0]) == 2 * Fraction(0.1)
    assert mixed_partial_h0(bl2_p2(), (3.0, 3.0, 3.0, 2.0, 2.1), [0, 4]) == 2
    assert mixed_partial_h0(bl2_p2(), (3, 3, 3, 2, Fraction(2.1)), [0, 4]) == 2


def test_mixed_partial_multiplicity_constant():
    fan = weighted_p112()
    d = divisor([1, 1, 1])
    # The cone on rays 2 and 0 has lattice index 2.
    assert cone_multiplicity(fan, Cone(frozenset({2, 0}), 2)) == 2
    assert mixed_partial_h0(fan, d, [2, 0]) == Fraction(2, 2)
    assert mixed_partial_h0(fan, d, [0, 1]) == 2


def test_mixed_partial_non_cone_pair_vanishes():
    fan = f1()
    ample = divisor([1, 1, 1, 1])
    # Rays 0 and 1 span no cone of the ambient fan (ray 3 subdivides).
    assert mixed_partial_h0(fan, ample, [0, 1]) == 0
    # On the chamber of the coarser fan they do span a cone.
    inner = divisor([1, 0, 0, 2])
    assert mixed_partial_h0(fan, inner, [0, 1]) == 2


def test_mixed_partial_wall_and_argument_errors():
    fan = f1()
    wall = divisor([1, 0, 0, 1])
    with pytest.raises(ChamberWallError):
        mixed_partial_h0(fan, wall, [0, 1])
    ample = divisor([1, 1, 1, 1])
    with pytest.raises(PreconditionError):
        mixed_partial_h0(fan, ample, [0, 0])
    with pytest.raises(PreconditionError):
        mixed_partial_h0(fan, ample, [0, 1, 2])


@pytest.mark.parametrize("rays", ([-1], [3, -1], [4], [7], [0, 4]))
def test_mixed_partial_rejects_unknown_rays(rays):
    # f1 has rays 0..3; a negative index must not wrap around to ray 3.
    with pytest.raises(PreconditionError, match=r"0\.\.3"):
        mixed_partial_h0(f1(), divisor([1, 0, 0, 2]), rays)


def test_distinct_chamber_polynomials_on_f1():
    # The two maximal chambers carry different growth polynomials,
    # witnessed by a mixed partial vanishing on one and not the other.
    fan = f1()
    gamma_full = divisor([1, 1, 1, 1])  # ample chamber
    gamma_coarse = divisor([1, 0, 0, 2])  # chamber of the 3-ray fan
    assert mixed_partial_h0(fan, gamma_full, [0, 1]) == 0
    assert mixed_partial_h0(fan, gamma_coarse, [0, 1]) == 2


@pytest.mark.parametrize("fixture", [p2, bl2_p2, weighted_p112, bl1_p3], ids=lambda f: f.__name__)
def test_rates_are_slices_of_hhat(fixture):
    # Each slice weights the regions by that slice of their rank vectors.
    fan = fixture()
    rng = random.Random(16)
    for _ in range(6):
        d = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in fan.rays)
        full = hhat(fan, d)
        for degrees in (slice(None), slice(1), slice(1, None), slice(0, None, 2)):
            assert _rates(fan, d, degrees) == full[degrees], (d, degrees)

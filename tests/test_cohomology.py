import math
import random
from itertools import product

import pytest

from toricvol.cohomology import (
    cech_oracle,
    cech_ranks,
    euler_char,
    graded_piece_dim,
    h_all,
    weak_ray_set,
)
from complex_referees import uncleared_cech_ranks
from generated_fans import star_fan_data
from toricvol.asymptotics import self_intersection
from toricvol.divisor import divisor, ray_divisor, scale
from toricvol.errors import CapExceededError, NotCompleteError
from toricvol.fan import Cone, cone_multiplicity, make_fan
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
    quadrant_fan,
)
from toricvol.gkz import ample_via_asymptotics
from toricvol.regions import bounded_subsets, lattice_points, region


def test_weak_ray_set():
    fan = p2()
    d = ray_divisor(fan, 0)
    assert weak_ray_set(fan, d, (0, 0)) == frozenset({0, 1, 2})
    assert weak_ray_set(fan, scale(d, -3), (2, -1)) == frozenset()
    assert weak_ray_set(fan, d, (5, 5)) == frozenset({0, 1})


def test_graded_piece_examples():
    fan = p2()
    d = ray_divisor(fan, 0)
    assert graded_piece_dim(fan, d, (0, 0), 0) == 1
    assert graded_piece_dim(fan, scale(d, -3), (2, -1), 2) == 1
    for i in range(3):
        assert graded_piece_dim(fan, d, (5, 5), i) == 0


def test_graded_piece_on_noncomplete_fan():
    fan = quadrant_fan()
    d = divisor([0, 0])
    # Graded pieces stay available; the subfan here has a contractible
    # sphere section, so every local rank vanishes.
    assert weak_ray_set(fan, d, (1, 1)) == frozenset({0, 1})
    for i in range(3):
        assert graded_piece_dim(fan, d, (1, 1), i) == 0
    for call in (h_all, cech_oracle, euler_char, self_intersection, ample_via_asymptotics):
        with pytest.raises(NotCompleteError):
            call(fan, d)


def test_h_all_examples():
    fan = p2()
    assert h_all(fan, scale(ray_divisor(fan, 0), 2)) == (6, 0, 0)
    assert h_all(fan, scale(ray_divisor(fan, 0), -3)) == (0, 0, 1)
    box = p1xp1()
    d = divisor([2, 0, -3, 0])
    assert h_all(box, d) == (0, 6, 0)


def test_h0_equals_section_polytope_count():
    rng = random.Random(4)
    for fixture in (p2, p1xp1, f1):
        fan = fixture()
        k = len(fan.rays)
        for _ in range(20):
            d = divisor([rng.randint(-4, 4) for _ in range(k)])
            full = frozenset(range(k))
            count = len(lattice_points(region(fan, d, full)))
            assert h_all(fan, d)[0] == count


def test_p2_line_bundles_at_large_dilation():
    # h(O(m)) = (C(m+2, 2), 0, 0) and, by Serre duality, h(O(-m)) = (0, 0, C(m-1, 2)).
    fan = p2()
    m = 10**5
    assert h_all(fan, scale(ray_divisor(fan, 0), m)) == (math.comb(m + 2, 2), 0, 0)
    assert h_all(fan, scale(ray_divisor(fan, 0), -m)) == (0, 0, math.comb(m - 1, 2))


def test_p1_cubed_sections_closed_form():
    fan = p1_cubed()  # rays +-e1, +-e2, +-e3 in that interleaved order
    for a, b, c in ((0, 0, 0), (60, 1, 7), (13, 60, 29), (45, 52, 60)):
        expected = ((a + 1) * (b + 1) * (c + 1), 0, 0, 0)
        assert h_all(fan, divisor([a, 0, b, 0, c, 0])) == expected


def test_serre_duality_at_large_dilation():
    # h^i(D) = h^(n-i)(K - D) with K = -sum D_rho, on smooth complete fans.
    # The generated star fans split unimodular cones at the sum of their
    # rays, which keeps every cone unimodular.
    rng = random.Random(50)
    fans = [(fixture.__name__, fixture()) for fixture in (p1, p2, p1xp1, f1, bl2_p2, bl3_p2, p1_cubed, bl1_p3)]
    fans += [(f"star{s}_{n}d", make_fan(*star_fan_data(s, dim=n))) for s, n in ((3, 3), (6, 3), (2, 4))]
    for name, fan in fans:
        assert all(cone_multiplicity(fan, Cone(c, fan.dim)) == 1 for c in fan.max_cones)
        for _ in range(2):
            d = scale(divisor([rng.randint(-1, 1) for _ in fan.rays]), 50)
            dual = divisor([-1 - c for c in d])
            assert h_all(fan, dual) == h_all(fan, d)[::-1], (name, d)


def test_euler_examples():
    fan = p2()
    assert euler_char(fan, scale(ray_divisor(fan, 0), 2)) == 6
    assert euler_char(fan, scale(ray_divisor(fan, 0), -3)) == 1
    line = p1()
    assert euler_char(line, scale(ray_divisor(line, 0), -2)) == -1


def test_euler_alternating_sum_random():
    rng = random.Random(8)
    for fixture in (p2, p1xp1, f1):
        fan = fixture()
        k = len(fan.rays)
        for _ in range(15):
            d = divisor([rng.randint(-5, 5) for _ in range(k)])
            hs = h_all(fan, d)
            assert euler_char(fan, d) == sum((-1) ** i * h for i, h in enumerate(hs))


def test_euler_weights_keep_no_subfan():
    # _euler_weight memoizes its integer per subset; the subfan it counts
    # is built afresh and not kept in the fan's memo.
    shared = bl3_p2()
    fan = make_fan(shared.dim, shared.rays, shared.max_cones)  # an empty memo
    d = (2, -1, 0, 1, -1, 1)
    hs = h_all(fan, d)
    assert euler_char(fan, d) == sum((-1) ** i * h for i, h in enumerate(hs))
    keys = [key for key in fan._memo if isinstance(key, tuple)]
    assert any(key[0] == "euler" for key in keys)
    assert not any(key[0] == "subfan" for key in keys)


def test_cech_oracle_examples():
    fan = p2()
    assert cech_oracle(fan, scale(ray_divisor(fan, 0), 2)) == (6, 0, 0)
    box = p1xp1()
    assert cech_oracle(box, divisor([2, 0, -3, 0])) == (0, 6, 0)
    for fixture in (p1, p2, p1xp1, f1):
        ff = fixture()
        zero = divisor([0] * len(ff.rays))
        assert cech_oracle(ff, zero) == (1,) + (0,) * ff.dim
        assert h_all(ff, zero) == (1,) + (0,) * ff.dim


def test_oracle_equivalence_random_2d():
    rng = random.Random(12)
    for fixture in (p1, p2, p1xp1, f1):
        fan = fixture()
        k = len(fan.rays)
        for _ in range(20):
            d = divisor([rng.randint(-5, 5) for _ in range(k)])
            assert h_all(fan, d) == cech_oracle(fan, d), d


def test_oracle_on_nonsimplicial_complete_fan():
    fan = cube_fan()
    rng = random.Random(21)
    for _ in range(3):
        d = divisor([rng.randint(-2, 2) for _ in range(8)])
        assert h_all(fan, d) == cech_oracle(fan, d), d


def cech_ranks_full(fan, weak_rays):
    """The ranks of ``cech_ranks`` from the full Cech complex (all ordered tuples, repeats allowed).

    Exponentially bigger matrices than the alternating complex, each
    coboundary ranked in full on the rows of ``coboundary_row``; a check
    of the reduction, not a production path.
    """
    return uncleared_cech_ranks(fan, weak_rays, lambda cones, size: product(cones, repeat=size))


def test_full_vs_alternating_cech():
    fan = p2()
    rng = random.Random(31)
    subsets = list(bounded_subsets(fan))
    for _ in range(5):
        d = divisor([rng.randint(-4, 4) for _ in range(3)])
        for subset in subsets:
            assert cech_ranks(fan, subset) == cech_ranks_full(fan, subset)
        assert h_all(fan, d) == cech_oracle(fan, d)


@pytest.mark.parametrize("splits, dim", [(4, 4), (6, 4), (10, 3)], ids=["star4d_4", "star4d_6", "star10"])
def test_oracle_on_generated_fans(splits, dim):
    # The cover table lists only the tuples of cones that share a ray, so
    # the Cech referee reaches 4-D stars and many-ray 3-D stars, where
    # the complex of every tuple of up to n + 2 cones took minutes.
    fan = make_fan(*star_fan_data(splits, dim=dim))
    rng = random.Random(splits)
    for _ in range(3):
        d = divisor([rng.randint(-2, 3) for _ in fan.rays])
        assert cech_oracle(fan, d) == h_all(fan, d), d


def test_oracle_cover_table_is_capped():
    # star4d_12's stars bound its cover table by 151 902 tuples, past the
    # cap: the oracle refuses before the table or any Cech rank is kept,
    # while h_all answers.
    fan = make_fan(*star_fan_data(12, dim=4))
    d = divisor([1] * len(fan.rays))
    assert h_all(fan, d)[0] > 0
    with pytest.raises(CapExceededError, match="may hold 151902 tuples .* capped at 100000"):
        cech_oracle(fan, d)
    assert not any(key == "cech_cover" or key[0] == "cech" for key in fan._memo), "memo kept Cech work"


def test_warm_calls_run_no_lp(monkeypatch):
    # Boundedness and vertex bases depend on the fan only: once the memo
    # holds them, no divisor needs another LP.
    import toricvol.lp as lp
    from toricvol.asymptotics import hhat, self_intersection
    from toricvol.fixtures import bl2_p2

    fan = bl2_p2()
    h_all(fan, divisor([1, 0, 2, -1, 0]))
    hhat(fan, divisor([1, 0, 2, -1, 0]))
    calls = []
    original = lp.solve_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counted)
    rng = random.Random(16)
    for _ in range(5):
        d = divisor([rng.randint(-4, 4) for _ in fan.rays])
        h_all(fan, d)
        euler_char(fan, d)
        hhat(fan, d)
        self_intersection(fan, d)
    assert calls == []

"""Dimension-4 closed forms on P^4 and P^1 x P^3.

Lattice counts here fix the first coordinate and sum 2-D slices slab by
slab over the second, sphere complexes reach dimension 3 and region
vertices come from 4-subsets of the rays, none of which a 2-D or 3-D
fan runs.  The counts of m H on P^4 are pinned up to m = 3161, the
largest m whose box of first two ranges, (m + 1)^2 integer points, fits
``regions.FIBER_BUDGET``.
"""

import json
import math
from itertools import combinations

import pytest

from toricvol import regions
from toricvol.asymptotics import hhat, self_intersection
from toricvol.cli import main
from toricvol.cohomology import cech_oracle, euler_char, h_all
from toricvol.divisor import divisor, ray_divisor, scale
from toricvol.fan import make_fan


def p4():
    rays = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)]
    return make_fan(4, rays, [set(c) for c in combinations(range(5), 4)])


def p1_x_p3():
    """Rays +-e1 of P^1, then e2, e3, e4, -(e2 + e3 + e4) of P^3."""
    rays = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, -1, -1, -1)]
    cones = [{a} | set(c) for a in (0, 1) for c in combinations(range(2, 6), 3)]
    return make_fan(4, rays, cones)


@pytest.mark.parametrize("m", [0, 1, 2, 3, -1, -4, -5, -6, -7])
def test_p4_line_bundles(m):
    fan = p4()
    d = scale(ray_divisor(fan, 0), m)
    if m >= 0:
        expected = (math.comb(m + 4, 4), 0, 0, 0, 0)
    else:
        expected = (0, 0, 0, 0, math.comb(-m - 1, 4))
    ranks = h_all(fan, d)
    assert ranks == expected
    assert euler_char(fan, d) == sum((-1) ** i * h for i, h in enumerate(ranks))
    assert cech_oracle(fan, d) == ranks


def test_p4_hyperplane_growth():
    fan = p4()
    hyperplane = ray_divisor(fan, 0)
    assert hhat(fan, hyperplane) == (1, 0, 0, 0, 0)
    assert self_intersection(fan, hyperplane) == 1


def test_p1_x_p3_products():
    fan = p1_x_p3()
    # 2 H_1 + 3 H_2: h^0 = 3 * C(6, 3), and vol = C(4, 1) * 2 * 3^3.
    d = divisor([2, 0, 3, 0, 0, 0])
    assert h_all(fan, d) == (60, 0, 0, 0, 0)
    assert hhat(fan, d)[0] == self_intersection(fan, d) == 216
    # O(-3, 1): h^1(P^1, O(-3)) * h^0(P^3, O(1)) = 2 * 4.
    d = divisor([-3, 0, 1, 0, 0, 0])
    assert h_all(fan, d) == (0, 8, 0, 0, 0)
    assert cech_oracle(fan, d) == (0, 8, 0, 0, 0)


def counted_slices(monkeypatch):
    """The argument tuples of every slice built (``regions._plan_slice``) from now on."""
    slices = []
    build = regions._plan_slice
    monkeypatch.setattr(regions, "_plan_slice", lambda *args: slices.append(args) or build(*args))
    return slices


@pytest.mark.parametrize("m", [1000, 3161])
def test_p4_large_multiples_of_the_hyperplane(monkeypatch, m):
    # h^0(m H) = C(m + 4, 4).  The per-prefix walk took (m + 1)^2 slices,
    # 1 002 001 at m = 1000; the slab sums take fewer than 10 per integer
    # of the first range: 9 985 at m = 1000.
    fan = p4()
    slices = counted_slices(monkeypatch)
    assert h_all(fan, scale(ray_divisor(fan, 0), m)) == (math.comb(m + 4, 4), 0, 0, 0, 0)
    assert len(slices) <= 10 * m


def test_p4_past_the_box_cap_exits_3_before_any_slice(monkeypatch, tmp_path):
    # At m = 3162 the box's first two ranges hold 3163^2 > 10^7 points,
    # counted before any slice is built.
    fan_path, divisor_path, out = tmp_path / "p4.json", tmp_path / "d.json", tmp_path / "report.json"
    rays = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)]
    fan_path.write_text(json.dumps({"dim": 4, "rays": rays, "cones": list(combinations(range(5), 4))}))
    divisor_path.write_text(json.dumps({"coeffs": [3162, 0, 0, 0, 0]}))
    slices = counted_slices(monkeypatch)
    assert main(["cohom", "--fan", str(fan_path), "--divisor", str(divisor_path), "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    assert "lattice scan needs 10004569 fibers" in report["error"]["message"]
    assert slices == []

"""A fan is set up once: validation's proof feeds completeness and faces.

``fan_diagnostics`` runs the glued test (``fan._glued_cover_once``)
first; when it accepts, the fan starts with ``Fan.complete`` and
``Fan.simplicial`` set and its faces are read with no rank.  The
kernel direction of each (n - 1)-subset of the rays is kept in one table
per fan, read by the glued test and by the cocircuit patterns of
``regions``.  The referees here keep the rank-based ``is_complete``,
``is_simplicial`` and ``all_cones`` that every fan took before, on the
``Fraction`` ranks of ``fraction_linalg``, and the diagnostics of
invalid lists are pinned as they were before the glued test moved.
"""

import json
import random
from itertools import combinations
from math import comb

import pytest

import fraction_linalg
from complex_referees import EVERY_FIXTURE
from generated_fans import polygon_fan_data, star_fan_data
from test_region_sum import POLY12_RAYS
from toricvol import fan as fan_module
from toricvol import fixtures, linalg
from toricvol.cli import main
from toricvol.cohomology import cech_oracle, h_all
from toricvol.divisor import divisor
from toricvol.fan import Cone, all_cones, fan_diagnostics, is_complete, is_simplicial, make_fan
from toricvol.lp import is_face_subset
from toricvol.regions import bounded_subsets


def referee_all_cones(fan):
    """Every face of every maximal cone, each cone's independence and each face's dimension ranked."""
    found = {}
    for mc in fan.max_cones:
        idx = sorted(mc)
        gens = {i: fan.rays[i] for i in idx}
        if fraction_linalg.rank(list(gens.values())) == len(idx):
            faces = [frozenset(s) for r in range(len(idx) + 1) for s in combinations(idx, r)]
        else:
            faces = [frozenset()] + [
                frozenset(sub)
                for r in range(1, len(idx) + 1)
                for sub in combinations(idx, r)
                if is_face_subset([gens[i] for i in sub], [gens[i] for i in idx if i not in sub], fan.dim)
            ]
        for face in faces:
            vecs = [fan.rays[i] for i in sorted(face)]
            found.setdefault(face, Cone(face, fraction_linalg.rank(vecs) if vecs else 0))
    grouped = [[] for _ in range(fan.dim + 1)]
    for cone in found.values():
        grouped[cone.dim].append(cone)
    return tuple(tuple(sorted(bucket, key=lambda c: sorted(c.ray_indices))) for bucket in grouped)


def referee_is_simplicial(fan):
    return all(fraction_linalg.rank([fan.rays[i] for i in mc]) == len(mc) for mc in fan.max_cones)


def referee_is_complete(fan):
    """Every maximal cone of full rank and every facet of two of them."""
    if not fan.max_cones:
        return False
    if any(fraction_linalg.rank([fan.rays[i] for i in mc]) != fan.dim for mc in fan.max_cones):
        return False
    facets = referee_all_cones(fan)[fan.dim - 1]
    return all(sum(f.ray_indices <= mc for mc in fan.max_cones) == 2 for f in facets)


FAN_DATA = (
    [(f.__name__, (f().dim, f().rays, f().max_cones)) for f in EVERY_FIXTURE]
    + [(f"star{s}", star_fan_data(s)) for s in range(1, 7)]
    + [("star4d_2", star_fan_data(2, dim=4))]
    + [("poly12", (2, POLY12_RAYS, [{i, (i + 1) % 12} for i in range(12)]))]
    + [(f"polygon{seed}", polygon_fan_data(random.Random(seed))) for seed in range(6)]
)


@pytest.mark.parametrize("data", [data for _, data in FAN_DATA], ids=[name for name, _ in FAN_DATA])
def test_completeness_and_faces_match_the_rank_referee(data):
    # Each fact asked first of a fresh fan, so no order of the memo hides a
    # wrong one.
    for first in (is_complete, is_simplicial, all_cones):
        fan = make_fan(*data)
        first(fan)
        assert is_complete(fan) == referee_is_complete(fan)
        assert is_simplicial(fan) == referee_is_simplicial(fan)
        assert all_cones(fan) == referee_all_cones(fan)


def test_a_complete_simplicial_fan_proves_each_fact_once(monkeypatch):
    # Validation, boundedness and the cohomology of a fresh star6 take
    # each kernel direction once per (n - 1)-subset and rank nothing.
    kernels, ranks = [], []
    kernel_direction, sparse_rank = fan_module._kernel_direction, linalg._sparse_rank

    def counted(rows, n):
        kernels.append(tuple(map(tuple, rows)))
        return kernel_direction(rows, n)

    monkeypatch.setattr(fan_module, "_kernel_direction", counted)
    monkeypatch.setattr(linalg, "_sparse_rank", lambda rows: ranks.append(1) or sparse_rank(rows))
    fan = make_fan(*star_fan_data(6))
    assert kernels and len(kernels) == len(set(kernels))
    bounded_subsets(fan)
    assert len(kernels) == len(set(kernels)) == comb(len(fan.rays), fan.dim - 1)
    assert is_complete(fan) and is_simplicial(fan)
    assert all_cones(fan) == referee_all_cones(fan)
    d = divisor([1] * len(fan.rays))
    assert h_all(fan, d) == cech_oracle(fan, d)
    assert len(kernels) == comb(len(fan.rays), fan.dim - 1)
    assert ranks == []
    # A non-simplicial fan is no glued cover: it is ranked in validation
    # and its faces after it.
    cube = fixtures.cube_fan()
    cube = make_fan(cube.dim, cube.rays, cube.max_cones)
    validation = len(ranks)
    all_cones(cube)
    assert len(ranks) > validation > 0


# Every invalid cone list of tests/test_fan.py and a few more, with the
# diagnostics fan_diagnostics gave before the glued test ran first.
RAYS, CONES = [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {2, 0}]
INVALID = [
    ((2, [(2, 0), *RAYS[1:]], CONES), ["ray 0 not primitive"]),
    ((2, [(1, 0), (0, 1), (1, 1)], [{0, 1}, {0, 2}]), ["improper intersection of cone 0 and cone 1"]),
    ((2, [(1, 0), (-1, 0)], [{0, 1}]), ["cone 0 is not strongly convex"]),
    ((2, [(0, 0), (0, 1)], [{0, 1}]), ["ray 0 is zero"]),
    ((2, [(1, 0), (2, 0)], [{0}, {1}]), ["ray 1 not primitive", "ray 1 duplicates ray 0"]),
    ((0, [], []), ["dimension 0 is not positive"]),
    ((-1, [], []), ["dimension -1 is not positive"]),
    ((2, RAYS, [[0, 1], [1, 2], [2, 0, 0]]), ["cone 2 repeats ray 0"]),
    ((2, [(1.5, 0), *RAYS[1:]], CONES), ["ray 0 has entries [1.5] that are not integers"]),
    ((2, [(1, 0), ("1", 1), (-1, -1)], CONES), ["ray 1 has entries ['1'] that are not integers"]),
    ((2, [(1, 0), (0, True), (-1, -1)], CONES), ["ray 1 has entries [True] that are not integers"]),
    ((2, RAYS, [{0.9, 1}, {1, 2}, {2, 0}]), ["cone 0 has indices [0.9] that are not integers"]),
    ((2, RAYS, [{0, 1}, {1, "2"}, {2, 0}]), ["cone 1 has indices ['2'] that are not integers"]),
    ((2, RAYS, [{0, 1}, {1, 2}, {2, False}]), ["cone 2 has indices [False] that are not integers"]),
    ((2.0, RAYS, CONES), ["dimension 2.0 is not an integer"]),
    ((True, [(1,), (-1,)], [{0}, {1}]), ["dimension True is not an integer"]),
    (("2", RAYS, CONES), ["dimension '2' is not an integer"]),
    ((2, [(1, 0), (0, 1), (1, 1)], [{0, 1, 2}]), ["ray 2 is not an extreme ray of cone 0"]),
    # P^2's cones with an unused ray, a repeated cone or a cone inside
    # another (the first passes the glued test), and a list that fails
    # several checks.
    ((2, [*RAYS, (1, 1)], CONES), ["ray 3 not used by any cone"]),
    ((2, RAYS, [*CONES, {1, 0}]), ["cone 3 duplicates cone 0"]),
    (
        (2, RAYS, [*CONES, {1}]),
        ["cone 3 is contained in cone 0", "cone 3 is contained in cone 1"],
    ),
    (
        (
            2,
            [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)],
            [{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {4, 1}, {1, 2}],
        ),
        [
            "ray 5 not used by any cone",
            "improper intersection of cone 0 and cone 4",
            "improper intersection of cone 0 and cone 5",
            "cone 6 duplicates cone 1",
        ],
    ),
    # A ray of the wrong length, an empty cone and an index past the rays.
    ((2, [(1, 0, 0), *RAYS[1:]], CONES), ["ray 0 has length 3, expected 2"]),
    ((2, RAYS, [*CONES, set()]), ["cone 3 is empty"]),
    ((2, RAYS, [{0, 1}, {1, 3}, {2, 0}]), ["cone 1 references unknown ray 3"]),
]


@pytest.mark.parametrize("data, expected", INVALID)
def test_invalid_lists_keep_their_diagnostics(data, expected):
    assert fan_diagnostics(*data)[0] == expected


P2 = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [2, 0]]}

# Every invalid fan document of tests/test_cli.py, with the result or
# error of its ``validate`` report as it was before the glued test ran
# first; an error message starts with the path of the document.
INVALID_DOCUMENTS = [
    (dict(P2, rays=[[2, 0], [0, 1], [-1, -1]]), {"diagnostics": ["ray 0 not primitive"], "valid": False}),
    (dict(P2, cones=[[0, 1], [1, 2], [2, 0, 0]]), {"diagnostics": ["cone 2 repeats ray 0"], "valid": False}),
    ({"dim": -1, "rays": [], "cones": []}, {"diagnostics": ["dimension -1 is not positive"], "valid": False}),
    (dict(P2, dim=2.0), "2.0 is not an integer"),
    (dict(P2, dim=True), "true is not an integer"),
    (dict(P2, rays=[[1.7, 0], [0, 1], [-1, -1]]), "1.7 is not an integer"),
    (dict(P2, rays=[[True, 0], [0, 1], [-1, -1]]), "true is not an integer"),
    (dict(P2, cones=[[0, 1.0], [1, 2], [2, 0]]), "1.0 is not an integer"),
    (dict(P2, cones=[[False, 1], [1, 2], [2, 0]]), "false is not an integer"),
    (dict(P2, dim="2"), '"2" is not an integer'),
    (dict(P2, rays=[[1, 0], [0, " 1"], [-1, -1]]), '" 1" is not an integer'),
    (dict(P2, cones=[["0", 1], [1, 2], [2, 0]]), '"0" is not an integer'),
]


@pytest.mark.parametrize("doc, expected", INVALID_DOCUMENTS)
def test_validate_reports_on_invalid_documents_are_unchanged(tmp_path, doc, expected):
    path, out = tmp_path / "fan.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--fan", str(path), "--out", str(out)]) == 2
    report = json.loads(out.read_text(encoding="utf-8"))
    if isinstance(expected, str):
        expected = {
            "diagnostics": [],
            "kind": "validation",
            "message": f"{path}: malformed fan fields: {expected}",
        }
        assert report["error"] == expected
    else:
        assert report["result"] == expected

"""Self-checks of the benchmark harness.

Run with ``python3 -m pytest perfbench/test_determinism.py`` from the
repository root.  Each traced run takes tens of seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def traced(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=900,
    )
    lines = proc.stdout.splitlines()
    tags = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    return tags, json.loads(lines[-1])


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", ["sections", "dilation", "growth"])
def test_same_seed_repeats_counts_and_results(workload):
    tags_a, first = traced(workload, 5)
    tags_b, second = traced(workload, 5)
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)
    assert counts(first)["lp.solve_lp.calls"] > 0
    assert tags_a["inputs_sha256"] == tags_b["inputs_sha256"]
    assert tags_a["results_sha256"] == tags_b["results_sha256"]


def test_another_seed_draws_other_divisors():
    tags_a, _ = traced("sections", 5)
    tags_b, _ = traced("sections", 6)
    assert tags_a["inputs_sha256"] != tags_b["inputs_sha256"]


def test_zoo_matches_fixtures():
    from toricvol import fixtures

    import workloads

    for name, (dim, rays, cones) in workloads.ZOO.items():
        fan = getattr(fixtures, name)()
        assert fan.dim == dim
        assert fan.rays == tuple(rays)
        assert set(fan.max_cones) == {frozenset(c) for c in cones}


def test_referee_counts_match_known_values():
    import referee

    p2 = [(1, 0), (0, 1), (-1, -1)]
    assert referee.h0_count(p2, (3, 0, 0)) == 10
    assert referee.h0_count(p2, (-1, 0, 0)) == 0
    assert referee.twice_area(p2, (3, 0, 0)) == 9
    assert referee.edge_lattice_length(p2, (3, 0, 0), 0) == 3
    cube = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    assert referee.h0_count(cube, (1, 1, 1, 1, 1, 1)) == 27

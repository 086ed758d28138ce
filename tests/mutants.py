"""Seeded mutants of the count and region code, each with the tests that must kill it.

A mutant names a module of ``toricvol``, a function in it (a dotted
name for a method), a text that occurs exactly once in that function's
source, the text that replaces it, and the test ids that must fail on
the mutated code.  ``tests/test_demos.py`` checks, in the tier-1 suite,
that every old text still occurs exactly once in its function and that
every test id names a test.  Running

    python tests/mutants.py [name ...]

copies the repository's ``src`` and ``tests`` into a fresh temporary
directory per mutant, applies the edit there, runs the mutant's tests
and reports each mutant as killed (every listed test failed) or
survived, with its time.  The exit status is 1 when a mutant survived.
The working tree is never edited.
"""

import ast
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str
    function: str
    old: str
    new: str
    tests: tuple[str, ...]


WIDE_BOXES = "tests/test_slab_counts.py::test_slab_counts_match_the_per_prefix_walk_on_wide_boxes"
WIDE_BOXES_4D = "tests/test_slab_counts.py::test_4d_slab_counts_match_the_per_prefix_walk_on_wide_boxes"
CELL_WALLS = "tests/test_count_plans.py::test_standalone_measures_on_cell_walls_match_the_plain_scan"
PLAIN_SCAN = "tests/test_count_plans.py::test_the_count_core_matches_a_plain_point_scan"
BOX_REFEREE = "tests/test_count_plans.py::test_a_plans_box_is_the_range_of_every_vertex_of_its_entry"

MUTANTS = (
    Mutant(
        "degree-one slab fit",
        "regions",
        "_slab_count",
        "                d1, d2 = f1 - f0, f2 - 2 * f1 + f0\n"
        "                if f3 != f0 + d1 * (n - 1) + d2 * math.comb(n - 1, 2):\n"
        '                    raise ToricError(f"internal: slice counts on the slab {first}..{last} are not quadratic")\n',
        "                d1, d2 = f1 - f0, 0\n",
        (WIDE_BOXES,),
    ),
    Mutant(
        "wide slabs from 5p",
        "regions",
        "_slab_count",
        "wide = last - first >= 4 * p",
        "wide = last - first >= 5 * p",
        (WIDE_BOXES,),
    ),
    Mutant(
        "breakpoints read only past 8p",
        "regions",
        "_slab_count",
        "if len(xs) > 4 * p:",
        "if len(xs) > 8 * p:",
        (WIDE_BOXES,),
    ),
    Mutant(
        "period forced to 1",
        "regions",
        "_slab_count",
        "p = plan.period",
        "p = 1",
        (WIDE_BOXES,),
    ),
    Mutant(
        "slab slices shifted by the first coordinate",
        "regions",
        "_slab_count",
        "bound - a[-3] * x",
        "bound - a[0] * x",
        (WIDE_BOXES_4D,),
    ),
    Mutant(
        "breakpoints on the first three entries",
        "regions",
        "_plan_breaks",
        "normals = [a[-3:] for _, _, a in plan.facets]",
        "normals = [a[:3] for _, _, a in plan.facets]",
        (WIDE_BOXES_4D,),
    ),
    Mutant(
        "slab sums without the prefix shift",
        "regions",
        "_lattice_count",
        "_slab_count(plan, [(a, bound - sum(map(mul, a, prefix))) for a, bound in rows], heads[-1], lo, hi)",
        "_slab_count(plan, rows, heads[-1], lo, hi)",
        (WIDE_BOXES_4D,),
    ),
    Mutant(
        "period of the middle two entries",
        "regions",
        "_period",
        "abs(a[-2] * b[-1] - a[-1] * b[-2])",
        "abs(a[1] * b[2] - a[2] * b[1])",
        (WIDE_BOXES_4D,),
    ),
    Mutant(
        "standalone measures read the first table entry",
        "regions",
        "_region_entry",
        "for mask, _, vertices in _realized_masks(slot) if mask == weak",
        "for mask, _, vertices in _realized_masks(slot)",
        (CELL_WALLS, "tests/test_regions.py::test_integer_volumes_match_fraction_referee"),
    ),
    Mutant(
        "closure tables without the boundedness check",
        "regions",
        "_closure_table",
        '    if not _is_bounded(arrangement, weak):\n        raise UnboundedRegionError("region closure is unbounded")\n',
        "",
        (
            "tests/test_regions.py::test_closure_vertices_unbounded_raises",
            "tests/test_regions.py::test_closure_vertices_without_fan_memo",
        ),
    ),
    Mutant(
        "extreme test ignores the row orientation",
        "regions",
        "_cell_plan",
        "sign * x * (1 if mask >> i & 1 else -1) >= 0",
        "sign * x >= 0",
        (BOX_REFEREE, PLAIN_SCAN),
    ),
    Mutant(
        "upper end read off the least vertex",
        "regions",
        "_cell_plan",
        "for sign in (1, -1):",
        "for sign in (1, 1):",
        (BOX_REFEREE, PLAIN_SCAN),
    ),
    Mutant(
        "slot counts one too many above 3",
        "regions",
        "_slot_count",
        "count = _lattice_count(plan, _slot_bounds(slot), box)",
        "count = _lattice_count(plan, _slot_bounds(slot), box); count += count > 3",
        ("tests/test_region_sum.py::test_region_sum_matches_sweep_poly12",),
    ),
    Mutant(
        "glued facts recorded when the glued test rejects",
        "fan",
        "fan_diagnostics",
        "    if glued:\n",
        "    if True:\n",
        ("tests/test_fan.py::test_completeness", "tests/test_fan.py::test_simpliciality"),
    ),
    Mutant(
        "a facet of one cone counted as paired",
        "fan",
        "Fan.complete",
        ") != 2:",
        ") > 2:",
        ("tests/test_fan.py::test_completeness",),
    ),
    Mutant(
        "one face sign flipped in the Cech cover table",
        "cohomology",
        "_cover_table",
        "-1 if i & 1 else 1",
        "-1 if i & 1 or not (layer or i) else 1",
        (
            "tests/test_cohomology.py::test_oracle_on_nonsimplicial_complete_fan",
            "tests/test_acceptance.py::test_criterion_1_oracle_equivalence",
        ),
    ),
    Mutant(
        "the empty tuple (augmentation) dropped",
        "cohomology",
        "_cover_table",
        "layers, index = [((-1, ()),)], {(): 0}",
        "layers, index = [(((1 << len(fan.rays)) - 1, ()),)], {(): 0}",
        (
            "tests/test_cohomology.py::test_cech_oracle_examples",
            "tests/test_linalg.py::test_clearing_keeps_every_chain_complex_rank[star3]",
        ),
    ),
    Mutant(
        "a tuple of cones that share a ray skipped by the extension",
        "cohomology",
        "_cover_table",
        "range(t[-1] + 1 if t else 0, len(masks))",
        "range(t[-1] + 2 if t else 0, len(masks))",
        (
            "tests/test_cohomology.py::test_oracle_on_nonsimplicial_complete_fan",
            "tests/test_linalg.py::test_clearing_keeps_every_chain_complex_rank[star3]",
        ),
    ),
    Mutant(
        "cocircuit patterns read the wrong kernel",
        "fan",
        "_Configuration.patterns",
        "u = self.kernel(combo)",
        "u = self.kernel(tuple(max(j - 1, 0) for j in combo))",
        ("tests/test_cold_path.py::test_cocircuit_patterns_match_the_fraction_referee",),
    ),
    Mutant(
        "floor sums one point short per run",
        "regions",
        "floor_sum",
        "top = a * n + b",
        "top = a * (n - 1) + b",
        ("tests/test_regions.py::test_floor_sum_matches_brute_force", PLAIN_SCAN),
    ),
    Mutant(
        "envelope runs one step past the overtaking line",
        "regions",
        "_run_end",
        "end = min(end, (r * lq - lr * q) // g)",
        "end = min(end, (r * lq - lr * q) // g + 1)",
        ("tests/test_regions.py::test_slice_count_matches_fiber_listing", PLAIN_SCAN),
    ),
    Mutant(
        "zero circuit values raised, not lowered",
        "regions",
        "_Arrangement.__init__",
        "ties.append(-1 if min((j, x) for j, x in zip(indices, lam) if x)[1] > 0 else 1)",
        "ties.append(1 if min((j, x) for j, x in zip(indices, lam) if x)[1] > 0 else -1)",
        (CELL_WALLS, "tests/test_region_sum.py::test_region_sum_matches_sweep_poly12"),
    ),
    Mutant(
        "Lawrence sign counted on the weak basis rows",
        "regions",
        "_lawrence_columns",
        "(basis & ~mask)",
        "(basis & mask)",
        (
            "tests/test_type_cells.py::test_cell_triangulations_match_the_sorted_apex_referee",
            "tests/test_region_sum.py::test_region_sum_matches_sweep_star4",
        ),
    ),
    Mutant(
        "held divisor found by equal entries",
        "regions",
        "_held_slot",
        "all(map(is_, d, held[2]))",
        "all(map(lambda x, y: x == y, d, held[2]))",
        ("tests/test_region_sum.py::test_true_after_one_in_the_same_place_is_still_rejected",),
    ),
    Mutant(
        "cells evicted newest first",
        "regions",
        "_Arrangement._count",
        "self.cells.popitem(last=False)",
        "self.cells.popitem()",
        ("tests/test_type_cells.py::test_a_tiny_cell_budget_changes_no_answer",),
    ),
    Mutant(
        "contains on raw levels",
        "regions",
        "HalfOpenRegion.contains",
        "levels, q = self._cleared",
        "levels, q = self.levels, 1",
        ("tests/test_regions.py::test_contains_decides_at_the_exact_levels",),
    ),
)


def module_path(root: Path, module: str) -> Path:
    return root / "src" / "toricvol" / f"{module}.py"


def function_span(source: str, function: str) -> tuple[int, int]:
    """The character offsets of the (dotted) function's definition in the module source."""
    nodes = ast.parse(source).body
    for part in function.split("."):
        node = next(
            n for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part
        )
        nodes = node.body
    lines = source.splitlines(keepends=True)
    return sum(map(len, lines[: node.lineno - 1])), sum(map(len, lines[: node.end_lineno]))


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How often the mutant's old text occurs in its function."""
    source = module_path(root, mutant.module).read_text(encoding="utf-8")
    start, end = function_span(source, mutant.function)
    return source[start:end].count(mutant.old)


def apply(mutant: Mutant, root: Path) -> None:
    """Edit the mutant's function in the copy at ``root``; ValueError unless its old text occurs once."""
    path = module_path(root, mutant.module)
    source = path.read_text(encoding="utf-8")
    start, end = function_span(source, mutant.function)
    body = source[start:end]
    if body.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {body.count(mutant.old)} times in {mutant.function}")
    path.write_text(source[:start] + body.replace(mutant.old, mutant.new) + source[end:], encoding="utf-8")


def failed_tests(output: str) -> set[str]:
    """The ids of the FAILED and ERROR lines of a pytest ``-rfE`` summary."""
    found = set()
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                found.add(line[len(tag):].split(" - ")[0].strip())
    return found


def run(mutant: Mutant) -> tuple[bool, set[str], float]:
    """(killed, surviving test ids, seconds) of the mutant, tested in a fresh copy."""
    began = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="toricvol-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        apply(mutant, copy)
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *mutant.tests],
            cwd=copy,
            capture_output=True,
            text=True,
        )
    survivors = set(mutant.tests) - failed_tests(result.stdout)
    return not survivors, survivors, time.perf_counter() - began


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survived = 0
    for mutant in chosen:
        killed, survivors, seconds = run(mutant)
        survived += not killed
        verdict = "killed" if killed else "SURVIVED " + ", ".join(sorted(survivors))
        print(f"{seconds:7.1f} s  {mutant.name}: {verdict}", flush=True)
    print(f"{len(chosen) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Every demo script runs to completion under ``python -O``.

``-O`` strips ``assert`` statements, so this checks that the library's
internal cross-checks do not rely on them; a static scan keeps the
library free of ``assert`` statements altogether, one keeps every LP
in the one capped-gap form of ``lp.py``, one keeps every lattice count
on the one slice walk, one keeps its runtime on the standard library,
one keeps every region's count on its divisor's cell table, one keeps
each count box on two vertices per axis, one keeps
a normal set's divisor-free state on its one arrangement, one more
keeps its divisor-free tables on its one configuration, and two keep
the per-fan memo on its eleven kinds, one by reading every ``memo(...)``
key of the library and one by asking every kind of question.
One checks that every seeded mutant of ``tests/mutants.py`` still
matches its function.  Another scan keeps the Cech referee from reading the sphere-complex rank vectors it checks, and
one the volume referees from reading the volume tables.  One keeps
floating point off every path: no float literal, no ``float`` use and
no ``math`` function other than the integer ones, one keeps
every private member read on ``self``, and one keeps every object's
``__dict__`` out of reach: no ``vars()`` call and no ``__dict__``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted((ROOT / "src" / "toricvol").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_optimized(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-O", str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_library_has_no_assert():
    assert SOURCES
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"


def test_library_solves_lps_in_one_form():
    # Every LP is a capped-gap LP: only lp.py calls the simplex, the
    # general feasibility LP is gone, and no call asks for a second form.
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{where} imports feasible_point" for a in node.names if a.name == "feasible_point"]
            elif isinstance(node, ast.Attribute) and node.attr == "feasible_point":
                found.append(f"{where} reads feasible_point")
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "solve_lp" and path.name != "lp.py":
                    found.append(f"{where} calls solve_lp")
                found += [
                    f"{where} passes {kw.arg}"
                    for kw in node.keywords
                    if kw.arg in ("maximize", "nonneg", "a_eq", "b_eq")
                ]
    assert not found, found


def readers(name):
    """Every "module:function" of the library that reads ``name``, or imports it."""
    assert SOURCES
    found = set()

    def visit(node, owner, path):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.Lambda):
                inner = "<lambda>"
            elif isinstance(child, ast.alias) and child.name == name:
                found.add(f"{path.name}:{owner} imports it")
            elif getattr(child, "attr", None) == name or (
                getattr(child, "id", None) == name and not isinstance(child.ctx, ast.Store)
            ):
                found.add(f"{path.name}:{owner}")
            visit(child, inner, path)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "<module>", path)
    return found


def test_library_walks_slices_in_one_function():
    # Every lattice count runs the one count core: only the slice walk
    # reads floor_sum, so a second count path cannot creep back.  One
    # function builds every slice, ``_plan_slice``, and only it walks one
    # with ``_slice_count``; the core calls it for a 2-D count and its
    # slab sums for every count of dimension n >= 3, so the core keeps no
    # slice loop of its own.
    found = readers("floor_sum")
    assert found == {"regions.py:_slice_count"}, found
    found = readers("_slice_count")
    assert found == {"regions.py:_plan_slice"}, found
    found = readers("_plan_slice")
    assert found == {"regions.py:_lattice_count", "regions.py:_slab_count"}, found
    found = readers("_slab_count")
    assert found == {"regions.py:_lattice_count"}, found


def test_library_counts_every_region_on_the_cell_table():
    # Standalone regions and region sums share one count path: only the
    # cell plan builds a count plan, so no plan from a closure's own
    # vertices comes back, and only the closure table and the realized
    # table classify a cell's vertices.
    found = readers("_count_plan")
    assert found == {"regions.py:_cell_plan"}, found
    found = readers("_cell_vertices")
    assert found == {"regions.py:_closure_table", "regions.py:_realized_masks"}, found
    for name in ("_own_plan", "_integer_vertices", "_vertex_table", "_polytope_table"):
        assert readers(name) == set(), name


def test_library_bounds_each_count_box_by_two_vertices_per_axis():
    # A count plan keeps two vertices' box rows per axis, the least and
    # the greatest (``_cell_plan``): only the plan builder reads the
    # arrangement's box rows, so no count path goes back to solving
    # every vertex of a region for its box.
    found = readers("corners")
    assert found == {"regions.py:_cell_plan"}, found


def test_every_mutant_edits_one_place_of_its_function():
    # The mutant gate (``python tests/mutants.py``) runs outside tier-1;
    # here each record must still match its function once and name
    # tests that exist, so a refactor cannot silently retire a mutant.
    import mutants

    assert len(mutants.MUTANTS) >= 8
    for mutant in mutants.MUTANTS:
        assert mutants.occurrences(mutant) == 1, mutant.name
        assert mutant.old != mutant.new and mutant.tests, mutant.name
        for test in mutant.tests:
            path, name = test.split("::")
            name = name.split("[")[0]  # a parametrized id names one case of its function
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            assert any(isinstance(n, ast.FunctionDef) and n.name == name for n in tree.body), test


def test_library_bounds_type_cells_in_one_function():
    # One least-recently-used bound holds the type cells: only the
    # arrangement's count reads CELL_BUDGET, so a second admission rule
    # cannot creep back, and nothing admits a cell or flags it kept.
    found = readers("CELL_BUDGET")
    assert found == {"regions.py:_count"}, found
    mentions = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            names = {getattr(node, "id", None), getattr(node, "name", None), getattr(node, "attr", None)}
            if "admit" in names or isinstance(node, ast.Attribute) and node.attr == "kept":
                mentions.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not mentions, mentions


def test_library_holds_divisor_free_state_on_the_arrangement():
    # A normal set's divisor-free facts live on its one ``_Arrangement``:
    # no memo kind of the held divisor, of mask decisions or of nef
    # regions comes back, and only the held-slot pair and the
    # arrangement's constructor (``__init__``) read ``held``, so a second
    # holder of the last divisor cannot creep back.
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        for kind in ("last_divisor", "bounded_masks", "nef_region"):
            assert kind not in text, f"{path.name} mentions {kind!r}"
    found = readers("held")
    assert found == {"regions.py:_held_slot", "regions.py:_divisor_slot", "regions.py:__init__"}, found



# The helpers and memo kinds that a normal set's ``fan._Configuration`` replaced.
RETIRED_HELPERS = (
    "_bind_memo", "_basis_inverses", "_basis_table", "_KernelTable", "_kernel_table",
    "_unbounded_patterns", "_inside_masks",
)
RETIRED_KINDS = ("normals", "basis_inverses", "kernels", "cocircuits", "inside_masks")


def test_library_reads_divisor_free_tables_off_one_configuration():
    # Every divisor-free table of a ray or normal set lives on its one
    # ``fan._Configuration``: only its binder and the arrangement's take
    # the vectors, their dimension and a memo in one call, and neither a
    # retired helper nor a retired memo kind comes back.
    calls = []
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        for name in RETIRED_HELPERS:
            assert name not in text, f"{path.name} mentions {name}"
        for kind in RETIRED_KINDS:
            assert f'"{kind}"' not in text and f"'{kind}'" not in text, f"{path.name} keys {kind!r}"
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            attrs = {arg.attr for arg in node.args if isinstance(arg, ast.Attribute)}
            if {"dim", "memo"} <= attrs and attrs & {"rays", "normals"}:
                func = node.func
                calls.append((getattr(func, "id", None) or getattr(func, "attr", None), path.name, node.lineno))
    assert calls and {name for name, *_ in calls} <= {"_configuration", "_arrangement"}, calls


# The kinds of the per-fan memo (``Fan.memo``): a key is a kind, or a tuple
# that starts with one.  A fan's own facts are ``Fan`` fields instead.
MEMO_KINDS = {
    "configuration", "arrangement", "triangulation", "cech_cover", "profile", "euler", "cech",
    "gkz_system", "nef_plan", "maximal_chambers", "sigma_fan",
}


def test_library_keys_the_per_fan_memo_by_its_eleven_kinds():
    # Every ``memo(...)`` call of the library keys a constant kind, or a
    # tuple that starts with one, and the kinds are exactly MEMO_KINDS: a
    # cache that no call reads again cannot creep back unseen.
    kinds = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and "memo" in (getattr(func, "id", None), getattr(func, "attr", None)):
                key = node.args[0]
                kind = key.elts[0] if isinstance(key, ast.Tuple) else key
                assert isinstance(kind, ast.Constant) and isinstance(kind.value, str), f"{path.name}:{node.lineno}"
                kinds.add(kind.value)
    assert kinds == MEMO_KINDS, sorted(kinds ^ MEMO_KINDS)


def test_calls_fill_the_per_fan_memo_with_its_kinds_only():
    # Every question the library answers on a fan, each where the fan
    # supports it, leaves only keys of MEMO_KINDS in its memo.
    from generated_fans import star_fan_data
    from toricvol import fixtures
    from toricvol.asymptotics import hhat, self_intersection
    from toricvol.cohomology import cech_oracle, euler_char, h_all
    from toricvol.divisor import divisor
    from toricvol.fan import make_fan
    from toricvol.gkz import (
        enumerate_maximal_chambers, hhat0_on_chamber, locate_chamber, located_cone, nef_decomposition,
    )

    p4 = make_fan(*star_fan_data(0, dim=4))
    for fan in (fixtures.bl3_p2(), fixtures.bl1_p3(), fixtures.cube_fan(), p4):
        d = divisor([1] * len(fan.rays))
        assert h_all(fan, d) == cech_oracle(fan, d)
        euler_char(fan, d)
        hhat(fan, d)
        self_intersection(fan, d)
        location = locate_chamber(fan, d)
        chamber = located_cone(fan, location)
        nef_decomposition(fan, chamber, d)
        if location.interior:
            hhat0_on_chamber(fan, chamber, d)
        if fan.dim <= 3:
            assert enumerate_maximal_chambers(fan, allow_dim3=True)
        found = {key[0] if isinstance(key, tuple) else key for key in fan._memo}
        assert found <= MEMO_KINDS, (fan, sorted(found - MEMO_KINDS))


def test_library_imports_only_the_standard_library():
    assert SOURCES
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {name}"


def test_cech_referee_reads_no_sphere_complex():
    # The Cech oracle must stay independent of the rank vectors it checks.
    tree = ast.parse((ROOT / "src" / "toricvol" / "cohomology.py").read_text(encoding="utf-8"))
    referee = {"cech_oracle", "cech_ranks", "_cech_ranks", "_cech_rank_vector", "_cover_table"}
    production = {
        "local_cohomology_ranks", "_local_ranks", "sphere_complex", "_sphere_complex", "reduced_homology_ranks",
        "_component_ranks", "_components",
    }
    functions = [
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name in referee
    ]
    assert {node.name for node in functions} == referee
    for node in functions:
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        assert not names & production, f"{node.name} mentions {sorted(names & production)}"


def test_volume_referees_read_no_volume_table():
    # The triangulation referees must stay independent of the Lawrence
    # volume tables they check: they read a region's vertex table only.
    tree = ast.parse((ROOT / "tests" / "arrangement_referees.py").read_text(encoding="utf-8"))
    referee = {
        "affine_rank", "_pulling_simplices", "pulling_volume",
        "_sorted_apex_simplices", "sorted_apex_volume", "weighted_volumes",
    }
    production = {
        "_lawrence_columns", "_lawrence_sum", "_h0_partial", "_simple_cell", "lawrence", "weights",
        "ties", "columns", "powers", "level", "den", "normalized_volume", "hhat", "self_intersection",
        "mixed_partial_h0",
    }
    functions = [
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name in referee
    ]
    assert {node.name for node in functions} == referee
    for node in functions:
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        assert not names & production, f"{node.name} mentions {sorted(names & production)}"


def test_lowered_level_referee_reads_no_cell():
    # The referee of the simple cell lowers the levels at a concrete eps
    # with a bound of its own: it must never read a circuit, a cell key,
    # the symbolic lowering or a volume table.
    tree = ast.parse((ROOT / "tests" / "arrangement_referees.py").read_text(encoding="utf-8"))
    referee = {"lowered_levels", "lowered_divisor"}
    production = {
        "_cell_key", "_cell_vertices", "_simple_cell", "ties", "_arrangement", "_Arrangement",
        "circuits", "key", "cells", "vertices", "masks", "_realized_masks", "_divisor_slot",
        "_lawrence_columns", "_lawrence_sum", "lawrence", "weights", "columns", "den",
    }
    functions = [
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name in referee
    ]
    assert {node.name for node in functions} == referee
    for node in functions:
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        assert not names & production, f"{node.name} mentions {sorted(names & production)}"


def test_gkz_reads_ray_in_cone_facts_off_the_basis_table():
    # Which rays lie in a cone, and which rays of a tight set are extreme,
    # come from the fan's integer basis inverses: from .lp the chamber
    # module takes only the capped-gap LP of its samples and the
    # relative-interior LP.
    tree = ast.parse((ROOT / "src" / "toricvol" / "gkz.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[-1] == "lp"
        for alias in node.names
    }
    assert imported == {"gap_lp", "relative_interior_functional"}
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not names & {"cone_contains", "_kernel_direction"}


def test_library_reads_no_private_member_of_another_object():
    # A single-underscore attribute is read only off ``self``: a private
    # member has one owner, and another module or object asks its public
    # methods instead.
    assert SOURCES
    reads = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
                continue
            on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
            if not on_self and not node.attr.startswith("__"):
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not reads, reads


def test_library_reaches_into_no_instance_dict():
    # Facts live in declared fields, cached properties and memos, never
    # in entries written into, or read out of, an object's __dict__.
    assert SOURCES
    reaches = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars":
                reaches.append(f"{path.name}:{node.lineno} vars()")
            elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
                reaches.append(f"{path.name}:{node.lineno} .__dict__")
            elif isinstance(node, ast.Constant) and node.value == "__dict__":
                reaches.append(f"{path.name}:{node.lineno} '__dict__'")
    assert not reaches, reaches


# The math functions that take and return integers only.
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def test_library_has_no_floating_point():
    assert SOURCES
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant):
                assert not isinstance(node.value, (float, complex)), f"{where} float literal"
            elif isinstance(node, ast.Name):
                assert node.id != "float", f"{where} uses float"
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "math":
                    assert node.attr in INTEGER_MATH, f"{where} uses math.{node.attr}"
            elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
                names = {alias.name for alias in node.names}
                assert node.module == "math" and names <= INTEGER_MATH, f"{where} imports {names}"
            elif isinstance(node, ast.Import):
                assert "cmath" not in {alias.name for alias in node.names}, f"{where} imports cmath"

"""Out-of-program layer tracer for the toricvol package.

The tracer wraps, from outside, the public functions of each toricvol
module and replaces every binding of the same function object in every
``toricvol.*`` namespace, so that ``from .lp import solve_lp``-style
imports inside the package go through the wrapper too.  ``Fan.memo`` is
wrapped on the class to count hits and misses per key kind.  Private
helpers (``lp._pivot`` and the like) stay unwrapped, so their time is
the self time of the public function that calls them.

Spans (name, start, end, parent) are kept in memory and written out by
:meth:`Tracer.write_spans`; per-function calls, self and inclusive time
and a few size counts are aggregated while the spans are recorded.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("lp", "linalg", "regions", "homology", "cohomology", "asymptotics", "gkz", "divisor", "fan")

# Leaf helpers cheaper than a span: wrapping them would mostly measure
# the wrapper.  Their time stays in the self time of their callers.
UNWRAPPED = {"linalg.dot", "linalg.vec_sub"}


def _box(vertices) -> int:
    """Candidates the lattice scan visits: the integer points of the bounding box."""
    size = 1 if vertices else 0
    for j in range(len(vertices[0]) if vertices else 0):
        lo = math.ceil(min(v[j] for v in vertices))
        hi = math.floor(max(v[j] for v in vertices))
        size *= max(0, hi - lo + 1)
    return size


class Tracer:
    """Spans and counters for one process; install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.phase = "none"
        self.calls: dict[str, Counter] = defaultdict(Counter)
        self.self_s: dict[str, Counter] = defaultdict(Counter)
        self.total_s: dict[str, Counter] = defaultdict(Counter)
        self.sizes: dict[str, Counter] = defaultdict(Counter)
        self._inner_vertices: dict[int, tuple] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        from toricvol.fan import Fan

        wrappers: dict[int, object] = {}
        for layer in LAYERS + ("cli",):
            mod = importlib.import_module(f"toricvol.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                qual = f"{layer}.{attr}"
                if qual in UNWRAPPED or (layer == "cli" and attr != "main"):
                    continue
                wrappers[id(obj)] = self._wrap(qual, obj)
        modules = [
            mod for name, mod in sys.modules.items() if name == "toricvol" or name.startswith("toricvol.")
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        self._patches.append((Fan, "memo", Fan.memo))
        Fan.memo = self._wrap_memo(Fan.memo)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, qual: str, fn):
        name_id = self._name_id(qual)
        sizer = getattr(self, "_size_" + qual.replace(".", "_"), None)
        stack, child = self._stack, self._child
        s_name, s_start, s_end, s_parent = (
            self.span_name, self.span_start, self.span_end, self.span_parent,
        )
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(s_name)
            s_name.append(name_id)
            s_parent.append(stack[-1] if stack else -1)
            s_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            start = perf_counter()
            s_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                s_end[idx] = end
                stack.pop()
                kids = child.pop()
                duration = end - start
                if child:
                    child[-1] += duration
                phase = tracer.phase
                tracer.calls[phase][qual] += 1
                tracer.self_s[phase][qual] += duration - kids
                tracer.total_s[phase][qual] += duration
            if sizer is not None:
                sizer(idx, args, kwargs, result)
            return result

        return wrapper

    def _wrap_memo(self, memo):
        tracer = self

        @functools.wraps(memo)
        def counted_memo(fan, key, compute):
            kind = key if isinstance(key, str) else key[0]
            missed = []

            def counted_compute():
                missed.append(True)
                return compute()

            result = memo(fan, key, counted_compute)
            outcome = "misses" if missed else "hits"
            tracer.sizes[tracer.phase][f"fan.memo.{kind}.{outcome}"] += 1
            return result

        return counted_memo

    # -- size counts taken from arguments and results --------------------

    def _size_lp_solve_lp(self, idx, args, kwargs, result):
        objective = args[0] if args else kwargs["objective"]
        a_ub = args[1] if len(args) > 1 else kwargs.get("a_ub", ())
        a_eq = args[3] if len(args) > 3 else kwargs.get("a_eq", ())
        sizes = self.sizes[self.phase]
        sizes["lp.solve_lp.rows"] += len(a_ub) + len(a_eq)
        sizes["lp.solve_lp.vars"] += len(objective)

    def _size_linalg_rank(self, idx, args, kwargs, result):
        matrix = args[0] if args else kwargs["matrix"]
        if len(matrix):
            self.sizes[self.phase]["linalg.rank.entries"] += len(matrix) * len(matrix[0])

    def _size_regions_closure_vertices(self, idx, args, kwargs, result):
        self.sizes[self.phase]["regions.closure_vertices.vertices"] += len(result.vertices)
        parent = self.span_parent[idx]
        if parent >= 0 and self.names[self.span_name[parent]] == "regions.lattice_points":
            self._inner_vertices[parent] = result.vertices

    def _size_regions_lattice_points(self, idx, args, kwargs, result):
        sizes = self.sizes[self.phase]
        sizes["regions.lattice_points.box"] += _box(self._inner_vertices.pop(idx, ()))
        sizes["regions.lattice_points.accepted"] += len(result)

    # -- output -------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write every span as ``name start end parent`` lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for i in range(len(self.span_name)):
                out.write(
                    f"{self.names[self.span_name[i]]} {self.span_start[i]:.9f} "
                    f"{self.span_end[i]:.9f} {self.span_parent[i]}\n"
                )
        return len(self.span_name)

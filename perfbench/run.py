"""toricvol benchmark: warm library ops, cold set-up and the CLI path.

Usage (from the repository root):

    python3 perfbench/run.py --workload sections --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics in ROUNDS rounds, each a
fresh set-up of the workload's fans, whole cycles of warm ops for a
share of ``--seconds``, and one pass of in-process CLI calls:

* ``ops_per_s``, ``op_p50_ms``, ``op_p90_ms``: over every warm op;
* ``cli_p50_ms``: over every CLI call of every round;
* ``setup_s``: median over the rounds of building the fans and filling
  their memo;
* ``peak_rss_mb``: the process's peak resident set.

Times are reported at the reference speed of ``clock.py``; the raw
figures are printed as ``# raw_*`` lines.  ``--trace 1`` runs a fixed
number of cycles twice, plain and then under the layer tracer, and
reports per-layer counts and self times; the counts are deterministic
for a given seed.  Every result is checked by a referee; the last stdout
line is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Single process, single thread, closed loop with one caller.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from clock import REFERENCE_S, Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sections", "dilation", "growth")

ROUNDS = 3
TRACE_CYCLES = 1


class StepAborted(Exception):
    """An operation of the current step raised; the rest of the step is skipped."""


class Runner:
    """Times operations, counts failures and digests every result."""

    def __init__(self, seed: int):
        self.seed = seed
        self.clock = Clock()
        self.cycle_index = 0
        self.intervals: list[tuple[float, float] | None] = []
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.inputs = hashlib.sha256()

    def op(self, kind, fan_name, fn, *args):
        self.attempted += 1
        self.inputs.update(f"{kind}|{fan_name}|{args[1:]!r}\n".encode())
        try:
            result, start, end = self.clock.call(fn, *args)
        except Exception:  # a failing op is counted, reported and skipped
            self.intervals.append(None)
            self._fail(f"{kind} on {fan_name} raised:\n{traceback.format_exc(limit=3)}")
            raise StepAborted from None
        self.intervals.append((start, end))
        self.digest.update(f"{kind}|{fan_name}|{result!r}\n".encode())
        return result

    def latencies(self, scaled: bool) -> list[float]:
        """Per-op seconds, at the reference speed or raw; failed ops are infinite."""
        inf = float("inf")
        if scaled:
            return [self.clock.scaled(*iv) if iv else inf for iv in self.intervals]
        return [iv[1] - iv[0] if iv else inf for iv in self.intervals]

    def step(self, fn, *args):
        try:
            return fn(self, *args)
        except StepAborted:
            return None

    def check(self, ok, fan_name, message):
        if not ok:
            self._fail(f"{fan_name}: {message}")

    def _fail(self, message):
        self.failed += 1
        if self.failed <= 10:
            print(f"FAILED {message}", file=sys.stderr)


def import_program():
    """Import toricvol from this checkout's sources, never from elsewhere."""
    if not (SRC / "toricvol" / "__init__.py").is_file():
        print(f"perfbench: no toricvol sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import toricvol

    if Path(toricvol.__file__).resolve().parent != (SRC / "toricvol").resolve():
        print(f"perfbench: imported toricvol from {toricvol.__file__}", file=sys.stderr)
        raise SystemExit(2)


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile.

    A beta-weighted mean of all order statistics, centred on the p-th: on
    a machine whose speed wobbles from one op to the next it is far
    steadier than the single order statistic a plain percentile picks.
    The weights are integrals of the Beta(p(n+1), (1-p)(n+1)) density
    over [i/n, (i+1)/n], by Simpson's rule on four panels.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        if not 0.0 < t < 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (4 * n)
        panels = [density(lo + k * h) for k in range(5)]
        weights.append(h / 3 * (panels[0] + 4 * panels[1] + 2 * panels[2] + 4 * panels[3] + panels[4]))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_cycles(workloads, cycle, workload, fans, runner, first=0, cycles=None, seconds=None):
    """Whole cycles from index ``first``: a fixed count, or until ``seconds`` have elapsed.

    Returns the index after the last cycle run.
    """
    start = perf_counter()
    index = first
    while True:
        runner.cycle_index = index
        cycle(runner, fans, workloads.cycle_rng(workload, runner.seed, index))
        index += 1
        if cycles is not None and index - first >= cycles:
            break
        if seconds is not None and perf_counter() - start >= seconds:
            break
    return index


def run_cli(workloads, make_calls, fans, runner, workdir, seed, tracer=None):
    """In-process ``cli.main`` on fresh fan documents; every call validates its fan.

    Returns the (start, end) interval of each call.
    """
    from toricvol import cli

    workdir.mkdir(parents=True, exist_ok=True)
    intervals = []
    calls = make_calls(fans, workloads.cycle_rng("cli", seed, 0))
    for k, (name, command, d) in enumerate(calls):
        fan_path, div_path = workloads.write_documents(workdir, name, d, f"call{k}")
        out_path = workdir / f"call{k}_report.json"
        argv = workloads.cli_argv(command, fan_path, div_path, out_path)
        runner.attempted += 1
        if tracer is not None:
            tracer.install()
        try:
            status, start, end = runner.clock.call(cli.main, argv)
            intervals.append((start, end))
        except Exception:  # counted as a failed call
            status = None
            runner.check(False, name, f"cli {argv} raised:\n{traceback.format_exc(limit=3)}")
        finally:
            if tracer is not None:
                tracer.uninstall()
        if status is None:
            continue
        runner.check(status == 0, name, f"cli {command[0]} exited {status}")
        report = json.loads(out_path.read_text())
        runner.digest.update(json.dumps(report.get("result"), sort_keys=True).encode())
        workloads.check_cli_report(runner, name, fans[name], command, d, report)
    return intervals


def plain_run(workload, seed, seconds):
    """ROUNDS rounds of: fresh set-up, warm-op cycles, one pass of CLI calls.

    Interleaving the three phases spreads each metric's samples over the
    whole run, so a slow stretch of the machine touches one sample of
    each rather than all of one metric's.
    """
    import workloads

    fan_names, cycle, make_calls = workloads.WORKLOADS[workload]
    runner = Runner(seed)
    clock = runner.clock
    setups, cli_intervals = [], []
    workdir = OUT / f"work-{workload}-{seed}"
    index = 0
    try:
        for _ in range(ROUNDS):
            fans, parts = {}, []
            for name in fan_names:
                built, start, end = clock.call(workloads.build_fans, [name])
                fans.update(built)
                parts.append((start, end))
            setups.append(parts)
            index = run_cycles(
                workloads, cycle, workload, fans, runner, first=index, seconds=seconds / ROUNDS
            )
            cli_intervals += run_cli(workloads, make_calls, fans, runner, workdir, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = len(runner.intervals)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {"cycles": index}
    for scaled in (False, True):
        succeeded = [t for t in runner.latencies(scaled) if t != float("inf")]
        span = clock.scaled if scaled else (lambda start, end: end - start)
        cli_times = [span(*iv) for iv in cli_intervals]
        setup_times = [sum(span(*iv) for iv in parts) for parts in setups]
        metrics = {
            "ops_per_s": (len(succeeded) / sum(succeeded), "1/s", ops),
            "op_p50_ms": (1000 * quantile(succeeded, 0.5), "ms", ops),
            "op_p90_ms": (1000 * quantile(succeeded, 0.9), "ms", ops),
            "cli_p50_ms": (1000 * quantile(cli_times, 0.5), "ms", len(cli_times)),
            "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
            "peak_rss_mb": (rss_mb, "MB", 1),
        }
        if not scaled:
            info.update({f"raw_{name}": value for name, (value, *_) in metrics.items()})
    info["slowdown_vs_reference"] = statistics.median(clock.burst_s) / REFERENCE_S
    info["error_rate"] = runner.failed / runner.attempted
    return runner, metrics, info


def traced_run(workload, seed):
    """Set-up, TRACE_CYCLES cycles plain then traced, and one CLI pass, all but the plain cycles traced."""
    import workloads
    from tracer import Tracer

    fan_names, cycle, make_calls = workloads.WORKLOADS[workload]
    tracer = Tracer()
    tracer.phase = "setup"
    tracer.install()
    try:
        fans = workloads.build_fans(fan_names)
    finally:
        tracer.uninstall()

    plain = Runner(seed)
    run_cycles(workloads, cycle, workload, fans, plain, cycles=TRACE_CYCLES)
    runner = Runner(seed)
    tracer.phase = "ops"
    tracer.install()
    try:
        run_cycles(workloads, cycle, workload, fans, runner, cycles=TRACE_CYCLES)
    finally:
        tracer.uninstall()
    runner.check(runner.digest.digest() == plain.digest.digest(), workload, "traced results differ from plain ones")
    runner.attempted += plain.attempted
    runner.failed += plain.failed

    tracer.phase = "cli"
    workdir = OUT / f"work-{workload}-{seed}-traced"
    try:
        run_cli(workloads, make_calls, fans, runner, workdir, seed, tracer=tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.txt.gz"
    nspans = tracer.write_spans(spans_path)
    overhead = sum(runner.latencies(True)) / sum(plain.latencies(True))
    metrics = layer_metrics(tracer, overhead)
    info = {
        "spans": nspans,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "ops_self_shares": layer_shares(tracer, "ops"),
        "ops_inclusive_shares": inclusive_shares(tracer, "ops"),
        "error_rate": runner.failed / runner.attempted,
    }
    return runner, metrics, info


FUNCTIONS = (
    "lp.solve_lp", "lp.max_over_cone_is_zero", "lp.feasible_point",
    "linalg.rank", "linalg.solve", "linalg.det", "linalg.nullspace",
    "regions.closure_vertices", "regions.normalized_volume",
    "regions.is_bounded_subset", "regions.lattice_points",
    "homology.local_cohomology_ranks", "homology.reduced_homology_ranks",
    "cohomology.h_all", "cohomology.cech_oracle", "cohomology.cech_ranks", "cohomology.euler_char",
    "asymptotics.hhat", "asymptotics.self_intersection", "asymptotics.mixed_partial_h0",
    "gkz.enumerate_maximal_chambers", "gkz.locate_chamber", "gkz.gkz_cone",
    "gkz.nef_decomposition", "gkz.ample_via_asymptotics",
    "divisor.is_q_cartier", "fan.fan_diagnostics", "cli.main",
)
# Functions whose self time is not worth a metric of its own.
CALLS_ONLY = {"lp.max_over_cone_is_zero", "lp.feasible_point", "linalg.nullspace"}
SIZES = (
    "lp.solve_lp.rows", "lp.solve_lp.vars", "linalg.rank.entries",
    "regions.closure_vertices.vertices", "regions.lattice_points.box",
    "regions.lattice_points.accepted",
)
# Functions whose time including callees is reported too: the layers the
# workloads were chosen to load.
INCLUSIVE = (
    "regions.lattice_points", "regions.normalized_volume", "regions.closure_vertices",
    "gkz.enumerate_maximal_chambers", "gkz.locate_chamber", "gkz.nef_decomposition",
)
MEMO_KINDS = (
    "bounded_subset", "bounded_subsets", "profile", "cech", "subfan",
    "all_cones", "is_complete", "is_simplicial",
)


def _summed(per_phase, phases=None):
    total = {}
    for phase, counter in per_phase.items():
        if phases is None or phase in phases:
            for key, value in counter.items():
                total[key] = total.get(key, 0) + value
    return total


def layer_shares(tracer, phase):
    """Each layer's share of the self time recorded in one phase."""
    from tracer import LAYERS

    self_s = _summed(tracer.self_s, {phase})
    whole = sum(self_s.values()) or 1.0
    layers = LAYERS + ("cli",)
    return {
        layer: sum(v for k, v in self_s.items() if k.split(".")[0] == layer) / whole
        for layer in layers
    }


def inclusive_shares(tracer, phase):
    """Share of the phase's traced time spent inside each of INCLUSIVE."""
    whole = sum(_summed(tracer.self_s, {phase}).values()) or 1.0
    total_s = _summed(tracer.total_s, {phase})
    return {fn: total_s.get(fn, 0.0) / whole for fn in INCLUSIVE}


def layer_metrics(tracer, overhead):
    calls = _summed(tracer.calls)
    self_s = _summed(tracer.self_s)
    total_s = _summed(tracer.total_s)
    sizes = _summed(tracer.sizes)
    metrics = {}
    for fn in FUNCTIONS:
        metrics[f"{fn}.calls"] = (calls.get(fn, 0), "count")
        if fn not in CALLS_ONLY:
            metrics[f"{fn}.self_s"] = (self_s.get(fn, 0.0), "s")
    for fn in INCLUSIVE:
        metrics[f"{fn}.total_s"] = (total_s.get(fn, 0.0), "s")
    for key in SIZES:
        metrics[key] = (sizes.get(key, 0), "count")
    box = sizes.get("regions.lattice_points.box", 0)
    accepted = sizes.get("regions.lattice_points.accepted", 0)
    metrics["regions.lattice_points.hit_ratio"] = (accepted / box if box else 0.0, "ratio")
    hits = misses = 0
    for kind in MEMO_KINDS:
        h = sizes.get(f"fan.memo.{kind}.hits", 0)
        m = sizes.get(f"fan.memo.{kind}.misses", 0)
        metrics[f"fan.memo.{kind}.hits"] = (h, "count")
        metrics[f"fan.memo.{kind}.misses"] = (m, "count")
    for key, value in sizes.items():
        if key.startswith("fan.memo."):
            if key.endswith(".hits"):
                hits += value
            else:
                misses += value
    metrics["fan.memo.hits"] = (hits, "count")
    metrics["fan.memo.misses"] = (misses, "count")
    metrics["fan.memo.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    warm = _summed(tracer.sizes, {"ops"})
    metrics["fan.memo.warm_misses"] = (
        sum(v for k, v in warm.items() if k.startswith("fan.memo.") and k.endswith(".misses")),
        "count",
    )
    for layer, share in layer_shares(tracer, "ops").items():
        metrics[f"layer.{layer}.share"] = (share, "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def emit(runner, metrics, info):
    for name, value in info.items():
        if isinstance(value, dict):
            value = " ".join(f"{k}={v:.3f}" for k, v in value.items())
        print(f"# {name}: {value}")
    print(f"# inputs_sha256: {runner.inputs.hexdigest()}")
    print(f"# results_sha256: {runner.digest.hexdigest()}")
    for name, (value, unit, *n) in metrics.items():
        suffix = f" (n={n[0]})" if n else ""
        print(f"{name} = {value:.6g} {unit}{suffix}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": min(runner.failed, runner.attempted),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()
                },
            }
        )
    )


def run_all(args):
    """Each workload in its own process, so RSS and memo state are its own."""
    combined = {}
    attempted = failed = 0
    for workload in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            raise SystemExit(1)
        print(f"## {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            combined[f"{workload}.{name}"] = metric
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    if args.workload == "all":
        run_all(args)
        return 0
    if args.trace:
        runner, metrics, info = traced_run(args.workload, args.seed)
    else:
        runner, metrics, info = plain_run(args.workload, args.seed, args.seconds)
    emit(runner, metrics, info)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

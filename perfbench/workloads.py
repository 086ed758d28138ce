"""The benchmark's fan zoo, seeded inputs, warm-op cycles and CLI calls.

Fans are built fresh with ``make_fan`` from the data below (the same
data as ``toricvol.fixtures``, whose cached instances would share one
memo across workloads).  A workload is a cycle of steps; each step runs
timed library calls through ``run.op`` and checks every result against
a referee that the production path does not share.  Cycles always run
whole, so every run sees the same mix of fans and operations; the seed
only draws the divisors.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from toricvol import asymptotics, cohomology, fan as fan_mod, gkz, homology, regions

import referee

ZOO = {
    "p2": (2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)]),
    "p1xp1": (2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (2, 1), (1, 3), (3, 0)]),
    "f1": (2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 3), (3, 1), (1, 2), (2, 0)]),
    "weighted_p112": (2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)]),
    "bl2_p2": (
        2,
        [(1, 0), (0, 1), (-1, -1), (1, 1), (0, -1)],
        [(0, 3), (3, 1), (1, 2), (2, 4), (4, 0)],
    ),
    "bl3_p2": (
        2,
        [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
        [(i, (i + 1) % 6) for i in range(6)],
    ),
    "bl1_p3": (
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)],
        [(0, 1, 4), (0, 2, 4), (1, 2, 4), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    ),
}


def build_fans(names):
    """Fresh fans with a filled per-fan memo: what every CLI call pays first."""
    fans = {}
    for name in names:
        dim, rays, cones = ZOO[name]
        fan = fan_mod.make_fan(dim, rays, cones)
        fan_mod.is_complete(fan)
        fan_mod.is_simplicial(fan)
        for subset in regions.bounded_subsets(fan):
            if any(homology.local_cohomology_ranks(fan, subset)):
                cohomology.cech_ranks(fan, subset)
        fans[name] = fan
    return fans


def shift(fan, coeffs, u):
    """The linearly equivalent divisor coeffs + div(chi^u)."""
    return tuple(Fraction(c) + sum(a * b for a, b in zip(u, ray)) for c, ray in zip(coeffs, fan.rays))


def _scaled(coeffs, m):
    return tuple(m * Fraction(c) for c in coeffs)


# ---------------------------------------------------------------------------
# sections: small integer divisors, h^i three ways


SECTIONS_FANS = ("p2", "p1xp1", "f1", "weighted_p112", "bl2_p2", "bl3_p2", "bl1_p3")


def sections_cycle(run, fans, rng):
    for name in SECTIONS_FANS:
        fan = fans[name]
        d = tuple(Fraction(rng.randint(-4, 4)) for _ in fan.rays)
        run.step(_sections_step, name, fan, d)


def _sections_step(run, name, fan, d):
    h = run.op("h_all", name, cohomology.h_all, fan, d)
    oracle = run.op("cech_oracle", name, cohomology.cech_oracle, fan, d)
    chi = run.op("euler_char", name, cohomology.euler_char, fan, d)
    run.check(h == oracle, name, f"h_all {h} != cech_oracle {oracle} for {d}")
    run.check(chi == sum((-1) ** i * x for i, x in enumerate(h)), name, f"euler {chi} vs h {h}")
    count = referee.h0_count(fan.rays, d)
    run.check(h[0] == count, name, f"h^0 {h[0]} != brute-force count {count} for {d}")


# The CLI calls leave out the fans whose cold set-up alone takes seconds.
SECTIONS_CLI_FANS = ("p2", "p1xp1", "f1", "weighted_p112", "bl2_p2")


def sections_cli(fans, rng):
    calls = []
    for k, name in enumerate(SECTIONS_CLI_FANS):
        d = tuple(Fraction(rng.randint(-4, 4)) for _ in fans[name].rays)
        command = ["cohom", "--check-oracle"] if k % 2 == 0 else ["euler"]
        calls.append((name, command, d))
    return calls


# ---------------------------------------------------------------------------
# dilation: h^i(mD) over a sweep of m


# (fan, base divisor, dilation factors).  Bases are fixed shapes, nef and
# not; the seed moves each one within its linear-equivalence class, which
# changes the divisor but neither its cohomology nor the lattice work.
DILATION_BASES = (
    ("p2", (1, 0, 0), (100, 250)),
    ("p2", (-1, -1, -2), (20, 40)),
    ("p1xp1", (1, 0, -2, 0), (40, 80)),
    ("f1", (1, 1, 1, -1), (20, 40)),
    ("weighted_p112", (1, 0, 0), (150, 300)),
    ("weighted_p112", (0, 0, -3), (40, 80)),
    ("bl2_p2", (1, 1, 1, -1, -1), (30, 50)),
    ("bl1_p3", (0, 0, 0, 1, 1), (10, 14)),
    ("bl1_p3", (0, 0, 0, -2, 0), (10, 14)),
)
DILATION_FANS = tuple(sorted({name for name, _, _ in DILATION_BASES}))


def _random_shift(fan, rng):
    return tuple(rng.randint(-3, 3) for _ in range(fan.dim))


def dilation_cycle(run, fans, rng):
    for name, base, factors in DILATION_BASES:
        fan = fans[name]
        for m in factors:
            d = _scaled(shift(fan, base, _random_shift(fan, rng)), m)
            run.step(_dilation_step, name, fan, d)


def _dilation_step(run, name, fan, d):
    h = run.op("h_all", name, cohomology.h_all, fan, d)
    oracle = run.op("cech_oracle", name, cohomology.cech_oracle, fan, d)
    run.check(h == oracle, name, f"h_all {h} != cech_oracle {oracle} for {d}")
    count = referee.h0_count(fan.rays, d)
    run.check(h[0] == count, name, f"h^0 {h[0]} != brute-force count {count} for {d}")


def dilation_cli(fans, rng):
    calls = []
    for name in DILATION_FANS:
        fan = fans[name]
        base, factors = next((b, f) for n, b, f in DILATION_BASES if n == name)
        calls.append((name, ["cohom"], _scaled(shift(fan, base, _random_shift(fan, rng)), factors[0])))
    return calls


# ---------------------------------------------------------------------------
# growth: asymptotic rates, self-intersections and GKZ chambers


# bl3_p2 (18 chambers) and p1_cubed are left out: one cycle on them takes
# over 5 s, mostly in a handful of operations, which would leave a run
# too few cycles for steady figures.
GROWTH_2D = ("p2", "p1xp1", "f1", "weighted_p112", "bl2_p2")
GROWTH_3D = ("bl1_p3",)
GROWTH_FANS = GROWTH_2D + GROWTH_3D


def _random_scale(rng):
    return Fraction(rng.randint(3, 12), rng.choice((2, 3, 5)))


def _near_anticanonical(fan, rng):
    """A small perturbation of a multiple of -K, ample on every fan of the zoo (all Fano)."""
    t = _random_scale(rng)
    near = [t + Fraction(rng.randint(-1, 1), 10) for _ in fan.rays]
    return shift(fan, near, _random_shift(fan, rng))


def growth_cycle(run, fans, rng):
    index = run.cycle_index
    for name in GROWTH_2D:
        fan = fans[name]
        chambers = run.step(_enumerate_step, name, fan)
        if not chambers:
            continue
        own = [ch for ch in chambers if set(ch.sigma_cones) == set(fan.max_cones)]
        chosen = chambers[(run.seed + index) % len(chambers)]
        d = shift(fan, _scaled(chosen.sample_divisor, _random_scale(rng)), _random_shift(fan, rng))
        ray = rng.randrange(len(fan.rays))
        run.step(_chamber_step, name, fan, chosen, d, ray)
        if own:
            ample = shift(fan, _scaled(own[0].sample_divisor, _random_scale(rng)), _random_shift(fan, rng))
            run.step(_ample_step, name, fan, ample)
    for name in GROWTH_3D:
        fan = fans[name]
        ample = _near_anticanonical(fan, rng)
        run.step(_own_chamber_step, name, fan, ample)
        run.step(_ample_step, name, fan, ample)
        d = tuple(Fraction(rng.randint(-12, 12), rng.choice((2, 3, 5))) for _ in fan.rays)
        run.step(_volume_step, name, fan, d)


def _same_chamber(location, chamber):
    return (
        location.interior
        and set(location.sigma.max_cones) == set(chamber.sigma_cones)
        and location.strict_rays == chamber.strict_rays
    )


def _enumerate_step(run, name, fan):
    chambers = run.op("enumerate_maximal_chambers", name, gkz.enumerate_maximal_chambers, fan)
    run.check(bool(chambers), name, "no maximal chamber")
    for ch in chambers:
        sample = ch.sample_divisor
        run.check(
            referee.strictly_inside(ch.equalities, ch.inequalities, sample),
            name,
            f"sample divisor {sample} not strictly inside its chamber",
        )
        location = run.op("locate_chamber", name, gkz.locate_chamber, fan, sample)
        run.check(_same_chamber(location, ch), name, f"locate_chamber({sample}) left its chamber")
    return chambers


def _check_volumes(run, name, fan, d, values, selfint):
    alternating = sum((-1) ** i * v for i, v in enumerate(values))
    run.check(selfint == alternating, name, f"self-intersection {selfint} != alternating hhat {values}")
    if fan.dim == 2:
        area = referee.twice_area(fan.rays, d)
        run.check(values[0] == area, name, f"hhat_0 {values[0]} != shoelace {area} for {d}")


def _chamber_step(run, name, fan, chamber, d, ray):
    run.check(referee.strictly_inside(chamber.equalities, chamber.inequalities, d), name, "input left its chamber")
    location = run.op("locate_chamber", name, gkz.locate_chamber, fan, d)
    run.check(_same_chamber(location, chamber), name, f"locate_chamber({d}) left its chamber")
    split = run.op("nef_decomposition", name, gkz.nef_decomposition, fan, chamber, d)
    _check_nef_split(run, name, fan, chamber, d, split)
    values = run.op("hhat", name, asymptotics.hhat, fan, d)
    selfint = run.op("self_intersection", name, asymptotics.self_intersection, fan, d)
    _check_volumes(run, name, fan, d, values, selfint)
    partial = run.op("mixed_partial_h0", name, asymptotics.mixed_partial_h0, fan, d, [ray])
    edge = 2 * referee.edge_lattice_length(fan.rays, d, ray)
    run.check(partial == edge, name, f"d hhat_0 / d D_{ray} = {partial}, twice the edge length is {edge}")


def _check_nef_split(run, name, fan, chamber, d, split):
    expected = shift(fan, d, split.shift)
    run.check(split.shifted == expected, name, "nef split: shifted divisor is not d + div(shift)")
    run.check(all(e >= 0 for e in split.remainder), name, "nef split: negative remainder")
    run.check(
        all(e == 0 for rho, e in enumerate(split.remainder) if rho not in chamber.strict_rays),
        name,
        "nef split: remainder off the strict rays",
    )
    run.check(
        all(split.shifted[rho] == c + split.remainder[rho] for rho, c in split.nef_coeffs.items()),
        name,
        "nef split: parts do not add up",
    )


def _ample_step(run, name, fan, d):
    ample = run.op("ample_via_asymptotics", name, gkz.ample_via_asymptotics, fan, d)
    run.check(ample is True, name, f"ample class {d} reported not ample")


def _own_chamber_step(run, name, fan, d):
    chamber = run.op("gkz_cone", name, gkz.gkz_cone, fan, fan.max_cones, frozenset())
    run.check(referee.strictly_inside(chamber.equalities, chamber.inequalities, d), name, "ample input left the nef cone")
    location = run.op("locate_chamber", name, gkz.locate_chamber, fan, d)
    run.check(_same_chamber(location, chamber), name, f"locate_chamber({d}) missed the ample chamber")
    split = run.op("nef_decomposition", name, gkz.nef_decomposition, fan, chamber, d)
    _check_nef_split(run, name, fan, chamber, d, split)
    run.check(not any(split.remainder), name, "nef split of an ample class has a remainder")
    values = run.op("hhat", name, asymptotics.hhat, fan, d)
    run.check(not any(values[1:]), name, f"ample class with higher growth {values}")
    selfint = run.op("self_intersection", name, asymptotics.self_intersection, fan, d)
    _check_volumes(run, name, fan, d, values, selfint)


def _volume_step(run, name, fan, d):
    values = run.op("hhat", name, asymptotics.hhat, fan, d)
    selfint = run.op("self_intersection", name, asymptotics.self_intersection, fan, d)
    _check_volumes(run, name, fan, d, values, selfint)


GROWTH_CLI = {
    "p2": "asym",
    "p1xp1": "selfint",
    "f1": "ample",
    "weighted_p112": "gkz-enumerate",
    "bl2_p2": "asym",
    "bl1_p3": "selfint",
}


def growth_cli(fans, rng):
    calls = []
    for name in GROWTH_FANS:
        fan = fans[name]
        calls.append((name, [GROWTH_CLI[name]], _near_anticanonical(fan, rng)))
    return calls


# ---------------------------------------------------------------------------
# CLI documents and the library result each report must match


def write_documents(workdir, name, d, tag):
    dim, rays, cones = ZOO[name]
    fan_path = workdir / f"{tag}_fan.json"
    div_path = workdir / f"{tag}_divisor.json"
    fan_path.write_text(json.dumps({"dim": dim, "rays": rays, "cones": cones}))
    coeffs = [str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}" for c in d]
    div_path.write_text(json.dumps({"coeffs": coeffs}))
    return fan_path, div_path


def cli_argv(command, fan_path, div_path, out_path):
    argv = [command[0], "--fan", str(fan_path)]
    if command[0] != "gkz-enumerate":
        argv += ["--divisor", str(div_path)]
    return argv + command[1:] + ["--out", str(out_path)]


def check_cli_report(run, name, fan, command, d, report):
    """Compare a CLI report with the library result for the same input."""
    result = report.get("result")
    if result is None:
        run.check(False, name, f"cli {command[0]} reported {report.get('error')}")
        return
    kind = command[0]
    if kind == "cohom":
        expected = cohomology.h_all(fan, d)
        run.check([int(v) for v in result["h"]] == list(expected), name, f"cli cohom {result['h']} != {expected}")
        if "oracle" in result:
            run.check(result["oracle_agrees"] is True, name, "cli cohom oracle disagrees")
    elif kind == "euler":
        expected = cohomology.euler_char(fan, d)
        run.check(int(result["euler_characteristic"]) == expected, name, "cli euler disagrees")
    elif kind == "asym":
        expected = asymptotics.hhat(fan, d)
        run.check(tuple(Fraction(v) for v in result["hhat"]) == expected, name, "cli asym disagrees")
    elif kind == "selfint":
        expected = asymptotics.self_intersection(fan, d)
        run.check(Fraction(result["self_intersection"]) == expected, name, "cli selfint disagrees")
    elif kind == "ample":
        expected = gkz.ample_via_asymptotics(fan, d)
        run.check(result["via_asymptotics"] == expected and result["agree"] is True, name, "cli ample disagrees")
    elif kind == "gkz-enumerate":
        expected = gkz.enumerate_maximal_chambers(fan)
        got = [[Fraction(v) for v in ch["sample_divisor"]] for ch in result["chambers"]]
        run.check(got == [list(ch.sample_divisor) for ch in expected], name, "cli gkz-enumerate disagrees")
    else:
        raise ValueError(f"no library counterpart for cli command {kind}")


WORKLOADS = {
    "sections": (SECTIONS_FANS, sections_cycle, sections_cli),
    "dilation": (DILATION_FANS, dilation_cycle, dilation_cli),
    "growth": (GROWTH_FANS, growth_cycle, growth_cli),
}


def cycle_rng(workload, seed, cycle):
    return random.Random(f"{workload}:{seed}:{cycle}")

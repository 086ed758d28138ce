"""Command line front end: JSON in, canonical JSON report out.

Input documents are UTF-8 JSON.  A fan file carries ``dim``, ``rays``
(array of integer arrays) and ``cones`` (array of ray-index arrays,
maximal cones only), all JSON integers; a divisor file carries
``coeffs`` as integers or ASCII strings "p" or "p/q" (an optional sign,
decimal digits, a nonzero denominator), read by ``divisor.divisor``.
Anything else (strings in the fan document, floats, booleans, other
string spellings) is rejected, never rounded or coerced, and so is a
command line number (``--mmax``, each ``--region`` entry) spelled other
than in ASCII digits alone.
Reports are byte-deterministic: keys are sorted, every rational is
emitted as a lowest-terms "p/q" string next to a decimal approximation
with 12 significant digits, and inputs are identified by their sha256
digests.

Exit status: 0 on success, 2 on validation problems (malformed
documents, invalid fans, bad arguments), 3 on precondition violations
(incomplete fan, empty effective cone, caps, walls).  Every error exit
writes a report with the error's kind, argument errors included (to
``--out`` when it can be read from the arguments).
"""

from __future__ import annotations

import argparse
import decimal
import functools
import hashlib
import json
import sys
from fractions import Fraction

from . import __version__
from .asymptotics import hhat, self_intersection
from .cohomology import cech_oracle, euler_char, h_all
from .divisor import divisor, is_ample
from .errors import EffectiveConeError, InvalidFanError, PreconditionError
from .fan import Fan, fan_diagnostics
from .gkz import ample_via_asymptotics, enumerate_maximal_chambers, locate_chamber
from .regions import ehrhart_probe

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3


class DocumentError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise instead of exiting.

    ``main`` turns them into a validation report like any other bad
    input; ``--help`` still prints and exits 0.
    """

    def error(self, message):
        raise DocumentError(f"{self.prog}: {message}")


# Significant digits of a report's decimal approximations, and the one
# context that rounds them: fixed, so a caller's thread context cannot
# change a digit, and with the widest exponent range.
SIGNIFICANT = 12
_DECIMAL = decimal.Context(
    prec=SIGNIFICANT,
    rounding=decimal.ROUND_HALF_EVEN,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
)


def format_rational(x: Fraction) -> str:
    """The lowest-terms "p" or "p/q" string of a rational."""
    return str(Fraction(x))


def decimal_string(x: Fraction) -> str:
    """Fixed-point decimal of x rounded to ``SIGNIFICANT`` significant digits.

    The exact quotient is rounded once, half to even (as ``round`` rounds
    a ``Fraction``), and printed with every significant digit, trailing
    zeros included; 0 prints as "0." and ``SIGNIFICANT`` - 1 zeros.
    """
    x = Fraction(x)
    q = _DECIMAL.divide(decimal.Decimal(x.numerator), x.denominator)
    return f"{q:.{max(SIGNIFICANT - 1 - q.adjusted(), 0)}f}"


def rational_fields(name: str, value) -> dict:
    if isinstance(value, (list, tuple)):
        return {
            name: [format_rational(v) for v in value],
            name + "_decimal": [decimal_string(v) for v in value],
        }
    return {
        name: format_rational(value),
        name + "_decimal": decimal_string(value),
    }


def _load_json(path: str):
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as err:
        raise DocumentError(f"cannot read {path}: {err}") from err
    try:
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise DocumentError(f"{path} is not valid UTF-8 JSON: {err}") from err


def _integer(value) -> int:
    """A JSON integer as given; ``int`` would read "1_0" as 10 and true as 1."""
    if type(value) is not int:
        raise ValueError(f"{json.dumps(value)} is not an integer")
    return value


def _array(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{json.dumps(value)} is not an array")
    return value


def load_fan_document(path: str):
    doc, digest = _load_json(path)
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: fan document must be a JSON object")
    for key in ("dim", "rays", "cones"):
        if key not in doc:
            raise DocumentError(f"{path}: fan document lacks '{key}'")
    try:
        dim = _integer(doc["dim"])
        rays = [[_integer(v) for v in _array(ray)] for ray in _array(doc["rays"])]
        cones = [[_integer(i) for i in _array(cone)] for cone in _array(doc["cones"])]
    except ValueError as err:
        raise DocumentError(f"{path}: malformed fan fields: {err}") from err
    return dim, rays, cones, digest


def load_divisor_document(path: str, fan: Fan):
    doc, digest = _load_json(path)
    if not isinstance(doc, dict) or "coeffs" not in doc:
        raise DocumentError(f"{path}: divisor document lacks 'coeffs'")
    try:
        coeffs = divisor(_array(doc["coeffs"]))
    except ValueError as err:
        raise DocumentError(f"{path}: malformed coefficients: {err}") from err
    if len(coeffs) != len(fan.rays):
        raise DocumentError(
            f"{path}: divisor has {len(coeffs)} coefficients, fan has {len(fan.rays)} rays"
        )
    return coeffs, digest


def _validated_fan(path: str):
    """Fan for compute commands: hard violations reject, repairs are warnings."""
    dim, rays, cones, digest = load_fan_document(path)
    diags, fan = fan_diagnostics(dim, rays, cones)
    if fan is None:
        raise InvalidFanError(diags)
    return fan, digest, diags


def _digits(text: str) -> int:
    """A command line count in ASCII digits alone; ``int`` would also read "1_0", " 1", "+1" and "٣"."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} is not a number in ASCII digits 0-9")
    return int(text)


def _probe_region(text: str | None, nrays: int) -> list[int]:
    """The sorted weak set of ``--region``: all rays when absent, none when empty.

    Every comma-separated entry must be a distinct ray index of the fan,
    spelled in ASCII digits alone (``_digits``).
    """
    if text is None:
        return list(range(nrays))
    if not text:
        return []
    subset = []
    for entry in text.split(","):
        try:
            index = _digits(entry)
        except argparse.ArgumentTypeError:
            raise DocumentError(f"--region entry {entry!r} is not a ray index") from None
        if index >= nrays:
            raise DocumentError(f"--region entry {index} is not a ray index 0..{nrays - 1}")
        if index in subset:
            raise DocumentError(f"--region repeats ray {index}")
        subset.append(index)
    return sorted(subset)


def _locate_fields(fan, d) -> dict:
    location = locate_chamber(fan, d)
    return {
        "sigma_max_cones": [sorted(c) for c in location.sigma.max_cones],
        "strict_rays": sorted(location.strict_rays),
        "interior": location.interior,
        "degenerate": location.sigma.degenerate,
        "lineality_dim": len(location.sigma.lineality_basis),
    }


def _run_command(args) -> tuple[dict, int]:
    inputs: dict = {}
    if args.command == "validate":
        dim, rays, cones, digest = load_fan_document(args.fan)
        inputs["fan_sha256"] = digest
        diags, fan = fan_diagnostics(dim, rays, cones)
        result = {"valid": fan is not None and not diags, "diagnostics": diags}
        status = EXIT_OK if result["valid"] else EXIT_VALIDATION
        return {"inputs": inputs, "result": result}, status

    fan, digest, warnings = _validated_fan(args.fan)
    inputs["fan_sha256"] = digest
    if warnings:
        inputs["fan_warnings"] = warnings

    if args.command == "gkz-enumerate":
        chambers = enumerate_maximal_chambers(fan, allow_dim3=args.dim3)
        result = {
            "chambers": [
                {
                    "sigma_rays": sorted(frozenset().union(*ch.sigma_cones)),
                    "sigma_max_cones": [sorted(c) for c in ch.sigma_cones],
                    "I": sorted(ch.strict_rays),
                    "sample_divisor": [format_rational(v) for v in ch.sample_divisor],
                }
                for ch in chambers
            ]
        }
        return {"inputs": inputs, "result": result}, EXIT_OK

    d, ddigest = load_divisor_document(args.divisor, fan)
    inputs["divisor_sha256"] = ddigest

    if args.command == "cohom":
        ranks = h_all(fan, d)
        result: dict = {"h": [str(v) for v in ranks]}
        if args.check_oracle:
            oracle = cech_oracle(fan, d)
            result["oracle"] = [str(v) for v in oracle]
            result["oracle_agrees"] = oracle == ranks
    elif args.command == "euler":
        result = {"euler_characteristic": str(euler_char(fan, d))}
    elif args.command == "asym":
        result = rational_fields("hhat", hhat(fan, d))
    elif args.command == "selfint":
        result = rational_fields("self_intersection", self_intersection(fan, d))
    elif args.command == "probe":
        if args.mmax < 1:
            raise DocumentError(f"--mmax must be at least 1, got {args.mmax}")
        subset = _probe_region(args.region, len(fan.rays))
        table = ehrhart_probe(fan, d, subset, args.mmax)
        result = {
            "region": subset,
            "table": [
                {"m": m} | rational_fields("scaled_count", value) for m, value in table
            ],
        }
    elif args.command == "gkz-locate":
        result = _locate_fields(fan, d)
    elif args.command == "ample":
        direct = is_ample(fan, d)
        via = ample_via_asymptotics(fan, d)
        try:
            chamber = _locate_fields(fan, d)
        except EffectiveConeError:
            chamber = None  # class not effective: certainly not ample
        own_cones = sorted(sorted(c) for c in fan.max_cones)
        via_chamber = (
            chamber is not None
            and chamber["interior"]
            and chamber["strict_rays"] == []
            and sorted(chamber["sigma_max_cones"]) == own_cones
        )
        result = {
            "is_ample": direct,
            "via_asymptotics": via,
            "via_chamber": via_chamber,
            "agree": direct == via == via_chamber,
            "chamber": chamber,
        }
    else:  # pragma: no cover - argparse guards the command set
        raise DocumentError(f"unknown command {args.command}")
    return {"inputs": inputs, "result": result}, EXIT_OK


def emit_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process.

    Parsing leaves it unchanged, so every ``main`` call shares it.
    """
    parser = _ArgumentParser(
        prog="toricvol",
        description="exact toric divisor cohomology, asymptotics, and chambers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "validate": "check a fan document and report diagnostics",
        "cohom": "cohomology dimensions h^i",
        "euler": "Euler characteristic of the divisor",
        "asym": "asymptotic growth vector",
        "selfint": "top self-intersection number",
        "probe": "scaled lattice-count table of dilations",
        "gkz-locate": "chamber containing the divisor class",
        "gkz-enumerate": "all maximal chambers of the effective cone",
        "ample": "ampleness by all routes",
    }
    needs_divisor = {
        "cohom", "euler", "asym", "selfint", "probe", "gkz-locate", "ample",
    }
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--fan", required=True, help="path to the fan JSON document")
        if name in needs_divisor:
            cmd.add_argument("--divisor", required=True, help="path to the divisor JSON document")
        if name == "cohom":
            cmd.add_argument("--check-oracle", action="store_true", dest="check_oracle")
        if name == "probe":
            cmd.add_argument("--mmax", type=_digits, default=10)
            cmd.add_argument(
                "--region",
                default=None,
                help="comma-separated ray indices of the weak set (default: all rays)",
            )
        if name == "gkz-enumerate":
            cmd.add_argument("--dim3", action="store_true", help="enable the 3d search")
        cmd.add_argument("--out", default=None, help="write the report to this path")
    return parser


def _out_path(argv) -> str | None:
    """The ``--out`` path of an argument list that failed to parse, if readable."""
    for i, arg in enumerate(argv):
        if arg == "--out" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--out="):
            return arg[len("--out="):]
    return None


def _validation_report(report: dict, err: Exception, out_path: str | None) -> int:
    report["error"] = {
        "kind": "validation",
        "message": str(err),
        "diagnostics": getattr(err, "diagnostics", []),
    }
    emit_report(report, out_path)
    return EXIT_VALIDATION


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    report: dict = {"command": None, "tool": {"name": "toricvol", "version": __version__}}
    try:
        args = parser.parse_args(argv)
    except DocumentError as err:
        return _validation_report(report, err, _out_path(argv))
    report["command"] = args.command
    try:
        body, status = _run_command(args)
    except (DocumentError, InvalidFanError) as err:
        return _validation_report(report, err, args.out)
    except PreconditionError as err:
        report["error"] = {"kind": "precondition", "message": str(err)}
        emit_report(report, args.out)
        return EXIT_PRECONDITION
    report.update(body)
    emit_report(report, args.out)
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

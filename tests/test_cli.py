import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from generated_fans import star_fan_data
from test_cold_path import counting_solve_lp
from toricvol.cli import decimal_string, format_rational, main
from toricvol.divisor import divisor
from fractions import Fraction

P2 = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [2, 0]]}
F1 = {
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, -1], [1, 1]],
    "cones": [[0, 3], [3, 1], [1, 2], [2, 0]],
}
P3 = {
    "dim": 3,
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
    "cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
}
BL1_P3 = {
    "dim": 3,
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 1]],
    "cones": [[0, 1, 3], [0, 1, 4], [0, 2, 3], [0, 2, 4], [1, 2, 3], [1, 2, 4]],
}
QUADRANT = {"dim": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]]}
SRC = str(Path(__file__).resolve().parent.parent / "src")


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_format_rational():
    assert format_rational(Fraction(12)) == "12"
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"


def test_decimal_string():
    assert decimal_string(Fraction(12)) == "12.0000000000"
    assert decimal_string(Fraction(1, 3)) == "0.333333333333"
    assert decimal_string(Fraction(0)) == "0.00000000000"
    assert decimal_string(Fraction(-1, 3)) == "-0.333333333333"
    assert decimal_string(Fraction(123456789012345)) == "123456789012000"
    # Rounding that carries into a new leading digit keeps 12 digits.
    assert decimal_string(Fraction(99999999999999, 10**13)) == "10.0000000000"
    assert decimal_string(Fraction(9999999999999, 10**13)) == "1.00000000000"
    assert decimal_string(Fraction(-99999999999999, 10**13)) == "-10.0000000000"
    assert decimal_string(Fraction(-9999999999999, 10**13)) == "-1.00000000000"


def nearest_twelve_digits(x):
    """The number with 12 significant digits nearest x, ties to even, in Fraction arithmetic."""
    if x == 0:
        return Fraction(0)
    e = len(str(abs(x.numerator))) - len(str(x.denominator))
    if abs(x) < Fraction(10) ** e:
        e -= 1  # now 10^e <= |x| < 10^(e+1)
    unit = Fraction(10) ** (e - 11)
    return round(x / unit) * unit


def test_decimal_string_is_the_nearest_twelve_digit_number():
    rng = random.Random(24)
    cases = [Fraction(0)]
    for _ in range(1500):
        k = rng.randrange(10**11, 10**12)
        cases.append(Fraction(2 * k + 1, 2) / Fraction(10) ** rng.randint(-40, 40))  # exact ties
        cases.append(Fraction(10**13 - rng.randint(1, 9), 10 ** rng.randint(0, 30)))  # carries
        scale = Fraction(10) ** rng.randint(-300, 300)  # huge and tiny magnitudes
        cases.append(Fraction(rng.randint(1, 10**30), rng.randint(1, 10**30)) * scale)
        cases.append(Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)))
    for x in cases:
        for value in (x, -x):
            text = decimal_string(value)
            assert Fraction(text) == nearest_twelve_digits(value), value
            # Every significant digit is printed, trailing zeros included.
            digits = text.lstrip("-").replace(".", "").lstrip("0")
            assert len(digits) == 12 or (len(digits) > 12 and "." not in text) or x == 0, text


def test_asym_report(tmp_path):
    fan = write(tmp_path, "fan.json", P2)
    div = write(tmp_path, "d.json", {"coeffs": [3, 0, 0]})
    code, report = run(tmp_path, "asym", "--fan", fan, "--divisor", div)
    assert code == 0
    assert report["result"]["hhat"] == ["9", "0", "0"]
    assert report["result"]["hhat_decimal"][0] == "9.00000000000"


def test_validate_bad_ray(tmp_path):
    bad = dict(P2, rays=[[2, 0], [0, 1], [-1, -1]])
    fan = write(tmp_path, "fan.json", bad)
    code, report = run(tmp_path, "validate", "--fan", fan)
    assert code == 2
    assert report["result"]["valid"] is False
    assert "ray 0 not primitive" in report["result"]["diagnostics"]
    # Any other command repairs the ray and lists the repair among its inputs.
    div = write(tmp_path, "d.json", {"coeffs": [1, 0, 0]})
    code, report = run(tmp_path, "cohom", "--fan", fan, "--divisor", div)
    assert code == 0
    assert report["inputs"]["fan_warnings"] == ["ray 0 not primitive"]
    assert report["result"]["h"] == ["3", "0", "0"]


def test_validate_good(tmp_path):
    fan = write(tmp_path, "fan.json", F1)
    code, report = run(tmp_path, "validate", "--fan", fan)
    assert code == 0
    assert report["result"] == {"valid": True, "diagnostics": []}


def test_repeated_ray_in_cone_is_rejected(tmp_path):
    fan = write(tmp_path, "fan.json", dict(P2, cones=[[0, 1], [1, 2], [2, 0, 0]]))
    code, report = run(tmp_path, "validate", "--fan", fan)
    assert code == 2
    assert report["result"]["valid"] is False
    assert "cone 2 repeats ray 0" in report["result"]["diagnostics"]
    div = write(tmp_path, "d.json", {"coeffs": [1, 0, 0]})
    code, report = run(tmp_path, "cohom", "--fan", fan, "--divisor", div)
    assert code == 2
    assert report["error"]["kind"] == "validation"


def test_cohom_with_oracle(tmp_path):
    fan = write(tmp_path, "fan.json", P2)
    div = write(tmp_path, "d.json", {"coeffs": [2, 0, 0]})
    code, report = run(tmp_path, "cohom", "--fan", fan, "--divisor", div, "--check-oracle")
    assert code == 0
    assert report["result"]["h"] == ["6", "0", "0"]
    assert report["result"]["oracle"] == ["6", "0", "0"]
    assert report["result"]["oracle_agrees"] is True


def test_euler_and_selfint(tmp_path):
    fan = write(tmp_path, "fan.json", P2)
    div = write(tmp_path, "d.json", {"coeffs": [-3, 0, 0]})
    code, report = run(tmp_path, "euler", "--fan", fan, "--divisor", div)
    assert code == 0 and report["result"]["euler_characteristic"] == "1"
    code, report = run(tmp_path, "selfint", "--fan", fan, "--divisor", div)
    assert code == 0 and report["result"]["self_intersection"] == "9"


def test_probe(tmp_path):
    fan = write(tmp_path, "fan.json", P2)
    div = write(tmp_path, "d.json", {"coeffs": [1, 0, 0]})
    code, report = run(tmp_path, "probe", "--fan", fan, "--divisor", div, "--mmax", "3")
    assert code == 0
    values = [row["scaled_count"] for row in report["result"]["table"]]
    assert values == ["6", "3", "20/9"]


def test_probe_with_explicit_region(tmp_path):
    fan = write(tmp_path, "fan.json", P2)
    div = write(tmp_path, "d.json", {"coeffs": [-2, 0, 0]})
    code, report = run(
        tmp_path, "probe", "--fan", fan, "--divisor", div, "--mmax", "2", "--region", ""
    )
    assert code == 0
    assert report["result"]["region"] == []
    # Strictly interior points of the reflected triangle: 0 at m=1, 3 at m=2.
    values = [row["scaled_count"] for row in report["result"]["table"]]
    assert values == ["0", "3/2"]
    # Entries in any order name one sorted weak set: on P^1 x P^1 the
    # region weak on rays 0 and 2 is a strip cut by both strict rows.
    box = write(tmp_path, "box.json", {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                                       "cones": [[0, 1], [1, 2], [2, 3], [3, 0]]})
    div = write(tmp_path, "box-d.json", {"coeffs": [1, -2, 1, 0]})
    code, report = run(
        tmp_path, "probe", "--fan", box, "--divisor", div, "--mmax", "2", "--region", "2,0"
    )
    assert code == 0
    assert report["result"]["region"] == [0, 2]
    # 3 points (|x| <= 1, y = 1) at m = 1 and 15 at m = 2, times 2! / m^2.
    assert [row["scaled_count"] for row in report["result"]["table"]] == ["6", "15/2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--region", "a"],
        ["--region=-1"],
        ["--region", "0,1,99"],
        ["--region", "0,,1"],
        ["--region", "1,1"],
        ["--mmax", "0"],
        ["--mmax", "-2"],
        ["--mmax", "1_0"],
        ["--mmax", "٣"],
        ["--region", " 1"],
        ["--region", "+1"],
        ["--region", "١"],
    ],
    ids=["region-not-integer", "region-negative", "region-out-of-range", "region-empty-entry",
         "region-repeated", "mmax-zero", "mmax-negative", "mmax-underscore", "mmax-arabic-indic",
         "region-space", "region-plus", "region-arabic-indic"],
)
def test_probe_rejects_malformed_arguments(tmp_path, argv):
    # Each was once repaired, answered or crashed on instead of rejected;
    # a count is ASCII digits alone, never what ``int`` also reads.
    fan = write(tmp_path, "fan.json", P2)
    div = write(tmp_path, "d.json", {"coeffs": [1, 0, 0]})
    code, report = run(tmp_path, "probe", "--fan", fan, "--divisor", div, *argv)
    assert code == 2
    assert report["error"]["kind"] == "validation"


def test_gkz_locate_and_enumerate(tmp_path):
    fan = write(tmp_path, "fan.json", F1)
    div = write(tmp_path, "d.json", {"coeffs": [1, 0, 0, 2]})
    code, report = run(tmp_path, "gkz-locate", "--fan", fan, "--divisor", div)
    assert code == 0
    assert report["result"]["interior"] is True
    assert report["result"]["strict_rays"] == [3]
    code, report = run(tmp_path, "gkz-enumerate", "--fan", fan)
    assert code == 0
    chambers = report["result"]["chambers"]
    assert len(chambers) == 2
    assert {tuple(ch["I"]) for ch in chambers} == {(), (3,)}
    for ch in chambers:
        assert "sample_divisor" in ch and "sigma_rays" in ch


def test_ample_command(tmp_path):
    fan = write(tmp_path, "fan.json", F1)
    div = write(tmp_path, "d.json", {"coeffs": [1, 0, 0, 1]})
    code, report = run(tmp_path, "ample", "--fan", fan, "--divisor", div)
    assert code == 0
    assert report["result"]["is_ample"] is False
    assert report["result"]["via_asymptotics"] is False
    assert report["result"]["via_chamber"] is False
    assert report["result"]["agree"] is True
    assert report["result"]["chamber"]["interior"] is False


def test_ample_non_effective_class(tmp_path):
    fan = write(tmp_path, "fan.json", P2)
    div = write(tmp_path, "d.json", {"coeffs": [-1, 0, 0]})
    code, report = run(tmp_path, "ample", "--fan", fan, "--divisor", div)
    assert code == 0
    assert report["result"]["is_ample"] is False
    assert report["result"]["via_chamber"] is False
    assert report["result"]["chamber"] is None
    code, report = run(tmp_path, "gkz-locate", "--fan", fan, "--divisor", div)
    assert code == 3  # outside the effective cone is a precondition failure


def test_precondition_exit_code(tmp_path):
    fan = write(tmp_path, "fan.json", QUADRANT)
    div = write(tmp_path, "d.json", {"coeffs": [1, 1]})
    code, report = run(tmp_path, "cohom", "--fan", fan, "--divisor", div)
    assert code == 3
    assert report["error"]["kind"] == "precondition"


def test_lattice_budget_exit_code(tmp_path):
    # 10^9 + 1 slices for the h^0 simplex of P^3: past the budget, before any count.
    fan = write(tmp_path, "fan.json", P3)
    div = write(tmp_path, "d.json", {"coeffs": [10**9, 0, 0, 0]})
    code, report = run(tmp_path, "cohom", "--fan", fan, "--divisor", div)
    assert code == 3
    assert report["error"]["kind"] == "precondition"
    assert "fibers" in report["error"]["message"]


# 21 primitive rays (a, b) of Pythagorean triples (a, b, c), in angular
# order; the divisor with coefficients c puts every v/c on the unit
# circle, so it is ample and `ample` reaches its hhat checks.
TRIPLES_21 = [
    (1, 0, 1), (24, 7, 25), (12, 5, 13), (15, 8, 17), (4, 3, 5), (21, 20, 29),
    (20, 21, 29), (3, 4, 5), (8, 15, 17), (5, 12, 13), (7, 24, 25), (0, 1, 1),
    (-3, 4, 5), (-4, 3, 5), (-1, 0, 1), (-4, -3, 5), (-3, -4, 5), (0, -1, 1),
    (3, -4, 5), (4, -3, 5), (12, -5, 13),
]


def test_subset_cap_exit_code(tmp_path):
    k = len(TRIPLES_21)
    doc = {
        "dim": 2,
        "rays": [[a, b] for a, b, _ in TRIPLES_21],
        "cones": [[i, (i + 1) % k] for i in range(k)],
    }
    fan = write(tmp_path, "fan.json", doc)
    # No region sum sweeps all 2^k ray subsets: past SUBSET_CAP rays the
    # answer commands still answer, and their reports agree.
    div = write(tmp_path, "d.json", {"coeffs": [c for _, _, c in TRIPLES_21]})
    results = {}
    for command in ("cohom", "euler", "asym", "selfint", "ample"):
        code, report = run(tmp_path, command, "--fan", fan, "--divisor", div)
        assert code == 0, command
        results[command] = report["result"]
    h = [int(v) for v in results["cohom"]["h"]]
    assert int(results["euler"]["euler_characteristic"]) == h[0] - h[1] + h[2]
    hhat = [Fraction(v) for v in results["asym"]["hhat"]]
    assert Fraction(results["selfint"]["self_intersection"]) == hhat[0] - hhat[1] + hhat[2]
    assert results["ample"]["agree"] is True
    # At D = 0 every ray is tight at the origin, where the 2^21 subsets
    # around it once exited 3.  Counts and volumes read the lowered
    # levels' simple cell, at most 2^n regions per basis, and answer
    # like O_X.
    zero = write(tmp_path, "zero.json", {"coeffs": [0] * k})
    code, report = run(tmp_path, "cohom", "--fan", fan, "--divisor", zero)
    assert code == 0 and [int(v) for v in report["result"]["h"]] == [1, 0, 0]
    code, report = run(tmp_path, "euler", "--fan", fan, "--divisor", zero)
    assert code == 0 and int(report["result"]["euler_characteristic"]) == 1
    # A region sum past the lattice budget still exits 3: the h^0
    # polytope of 10^8 (1, 1, 1, 1, 0) on the blow-up of P^3 at a point
    # needs 4 * 10^8 + 1 slices.
    blowup = write(tmp_path, "bl1_p3.json", BL1_P3)
    huge = write(tmp_path, "huge.json", {"coeffs": [10**8] * 4 + [0]})
    for command in ("cohom", "euler"):
        code, report = run(tmp_path, command, "--fan", blowup, "--divisor", huge)
        assert code == 3, command
        assert report["error"]["kind"] == "precondition"
        assert "lattice scan needs 400000001 fibers" in report["error"]["message"]
    code, report = run(tmp_path, "asym", "--fan", fan, "--divisor", zero)
    assert code == 0 and [Fraction(v) for v in report["result"]["hhat"]] == [0, 0, 0]
    code, report = run(tmp_path, "selfint", "--fan", fan, "--divisor", zero)
    assert code == 0 and Fraction(report["result"]["self_intersection"]) == 0
    # The cap is fixed: no flag sets it, and an unknown flag is a
    # validation error with a report like any other.
    code, report = run(tmp_path, "asym", "--fan", fan, "--divisor", div, "--cap", "30")
    assert code == 2
    assert report["error"]["kind"] == "validation"
    assert "unrecognized arguments: --cap 30" in report["error"]["message"]


def test_argument_errors_write_validation_report(tmp_path, capsys):
    fan = write(tmp_path, "fan.json", P2)
    for argv in (
        ["cohom", "--fan", fan],  # missing --divisor
        ["probe", "--fan", fan, "--divisor", fan, "--mmax", "ten"],
        ["nonsense", "--fan", fan],
    ):
        code, report = run(tmp_path, *argv)
        assert code == 2, argv
        assert report["command"] is None
        assert report["error"]["kind"] == "validation"
        assert report["error"]["message"].startswith("toricvol")
    # Without --out the report goes to stdout; --out=PATH is read too.
    assert main(["validate"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "validation"
    out = tmp_path / "eq.json"
    assert main(["validate", "--fan", fan, "--bogus", f"--out={out}"]) == 2
    assert "--bogus" in json.loads(out.read_text(encoding="utf-8"))["error"]["message"]


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["asym", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert "usage: toricvol" in capsys.readouterr().out


def test_malformed_document_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    div = write(tmp_path, "d.json", {"coeffs": [1, 0, 0]})
    code, report = run(tmp_path, "cohom", "--fan", str(path), "--divisor", div)
    assert code == 2
    assert report["error"]["kind"] == "validation"
    # Documents of the wrong shape, and a path that cannot be read.
    fans = [
        write(tmp_path, "list.json", [P2]),
        write(tmp_path, "no-cones.json", {"dim": 2, "rays": P2["rays"]}),
        write(tmp_path, "rays-number.json", dict(P2, rays=3)),
        str(tmp_path / "missing.json"),
    ]
    for fan in fans:
        code, report = run(tmp_path, "cohom", "--fan", fan, "--divisor", div)
        assert code == 2 and report["error"]["kind"] == "validation", fan
    no_coeffs = write(tmp_path, "no-coeffs.json", {"coefficients": [1, 0, 0]})
    code, report = run(tmp_path, "cohom", "--fan", write(tmp_path, "p2.json", P2), "--divisor", no_coeffs)
    assert code == 2 and report["error"]["kind"] == "validation"
    assert "lacks 'coeffs'" in report["error"]["message"]


@pytest.mark.parametrize(
    "fan_doc, coeffs",
    [
        (dict(P2, dim=2.0), [1, 0, 0]),
        (dict(P2, dim=True), [1, 0, 0]),
        (dict(P2, rays=[[1.7, 0], [0, 1], [-1, -1]]), [1, 0, 0]),
        (dict(P2, rays=[[True, 0], [0, 1], [-1, -1]]), [1, 0, 0]),
        (dict(P2, cones=[[0, 1.0], [1, 2], [2, 0]]), [1, 0, 0]),
        (dict(P2, cones=[[False, 1], [1, 2], [2, 0]]), [1, 0, 0]),
        (P2, [0.1, 0, 0]),
        (P2, [True, 0, 0]),
    ],
    ids=["dim-float", "dim-bool", "ray-float", "ray-bool", "cone-float", "cone-bool",
         "coeff-float", "coeff-bool"],
)
def test_inexact_json_numbers_rejected(tmp_path, fan_doc, coeffs):
    # int() and Fraction() would truncate, round or coerce these silently.
    fan = write(tmp_path, "fan.json", fan_doc)
    div = write(tmp_path, "d.json", {"coeffs": coeffs})
    code, report = run(tmp_path, "cohom", "--fan", fan, "--divisor", div)
    assert code == 2
    assert report["error"]["kind"] == "validation"


@pytest.mark.parametrize(
    "fan_doc",
    [
        dict(P2, dim="2"),
        dict(P2, rays=[[1, 0], [0, " 1"], [-1, -1]]),
        dict(P2, cones=[["0", 1], [1, 2], [2, 0]]),
    ],
    ids=["dim-string", "ray-string", "cone-string"],
)
def test_string_integers_rejected(tmp_path, fan_doc):
    # int() would read " 1" as 1 and "1_0" as 10; fan fields are JSON integers.
    fan = write(tmp_path, "fan.json", fan_doc)
    div = write(tmp_path, "d.json", {"coeffs": ["1/2", 0, 0]})
    for argv in (["validate"], ["cohom", "--divisor", div]):
        code, report = run(tmp_path, *argv, "--fan", fan)
        assert code == 2
        assert report["error"]["kind"] == "validation"
        assert "is not an integer" in report["error"]["message"]


@pytest.mark.parametrize(
    "coeff",
    ["1_0", "1e3", " 1/2 ", "\u0661", "1/0", True, 0.5],
    ids=["underscore", "exponent", "spaces", "arabic-indic-digit", "zero-denominator",
         "bool", "float"],
)
def test_divisor_coefficient_spellings_rejected(tmp_path, coeff):
    # Fraction() would read these as 10, 1000, 1/2, 1 and 1 (or raise
    # ZeroDivisionError); only JSON integers and ASCII "p" / "p/q" strings pass.
    fan = write(tmp_path, "fan.json", P2)
    div = write(tmp_path, "d.json", {"coeffs": [coeff, 0, 0]})
    code, report = run(tmp_path, "cohom", "--fan", fan, "--divisor", div)
    assert code == 2
    assert report["error"]["kind"] == "validation"


@pytest.mark.parametrize("coeff", ["1_0", "1/0", True, 0.5, None])
def test_divisor_document_and_library_share_one_rule(tmp_path, coeff):
    # The CLI reads coefficients through divisor.divisor, so it rejects
    # exactly what the library rejects, with the library's message.
    with pytest.raises(ValueError) as err:
        divisor([coeff, 0, 0])
    fan = write(tmp_path, "fan.json", P2)
    div = write(tmp_path, "d.json", {"coeffs": [coeff, 0, 0]})
    code, report = run(tmp_path, "cohom", "--fan", fan, "--divisor", div)
    assert code == 2
    assert report["error"]["message"].endswith(f"malformed coefficients: {err.value}")


def test_divisor_coefficient_spellings_accepted(tmp_path):
    fan = write(tmp_path, "fan.json", P2)
    div = write(tmp_path, "d.json", {"coeffs": ["+3", "-1/2", "04/6"]})
    code, report = run(tmp_path, "asym", "--fan", fan, "--divisor", div)
    assert code == 0
    div_int = write(tmp_path, "d_int.json", {"coeffs": [6, -1, 1]})
    expected = run(tmp_path, "asym", "--fan", fan, "--divisor", div_int)[1]["result"]
    # 3 - 1/2 + 2/3 = 19/6 is the degree; (19/6)^2 = 361/36 is the growth rate.
    assert report["result"]["hhat"] == ["361/36", "0", "0"]
    assert expected["hhat"] == ["36", "0", "0"]


def test_nonpositive_dimension_rejected(tmp_path):
    fan = write(tmp_path, "fan.json", {"dim": -1, "rays": [], "cones": []})
    code, report = run(tmp_path, "validate", "--fan", fan)
    assert code == 2
    assert report["result"] == {"valid": False, "diagnostics": ["dimension -1 is not positive"]}


def test_divisor_length_mismatch(tmp_path):
    fan = write(tmp_path, "fan.json", P2)
    div = write(tmp_path, "d.json", {"coeffs": [1, 0]})
    code, report = run(tmp_path, "cohom", "--fan", fan, "--divisor", div)
    assert code == 2


def test_cohom_oracle_on_3d_fan(tmp_path):
    cube3 = {
        "dim": 3,
        "rays": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        "cones": [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)],
    }
    fan = write(tmp_path, "fan.json", cube3)
    div = write(tmp_path, "d.json", {"coeffs": [2, 1, 1, -2, 0, 3]})
    code, report = run(tmp_path, "cohom", "--fan", fan, "--divisor", div, "--check-oracle")
    assert code == 0
    assert report["result"]["oracle_agrees"] is True


def test_check_oracle_past_the_cover_cap_exit_code(tmp_path):
    # The Cech cover table of star4d_12 may hold more tuples than its cap,
    # so --check-oracle is a precondition failure, not a long run.
    dim, rays, cones = star_fan_data(12, dim=4)
    fan = write(tmp_path, "fan.json", {"dim": dim, "rays": rays, "cones": [sorted(c) for c in cones]})
    div = write(tmp_path, "d.json", {"coeffs": [1] * len(rays)})
    code, report = run(tmp_path, "cohom", "--fan", fan, "--divisor", div, "--check-oracle")
    assert code == 3
    assert report["error"]["kind"] == "precondition"
    assert "Cech cover table" in report["error"]["message"]


def test_cohom_on_complete_simplicial_fan_solves_no_lp(tmp_path, monkeypatch):
    calls = counting_solve_lp(monkeypatch)
    fan = write(tmp_path, "fan.json", P3)
    div = write(tmp_path, "d.json", {"coeffs": [1, 0, 0, -5]})
    code, report = run(tmp_path, "cohom", "--fan", fan, "--divisor", div, "--check-oracle")
    assert code == 0
    assert report["result"]["h"] == ["0", "0", "0", "1"]
    assert report["result"]["oracle_agrees"] is True
    assert calls == []


def test_report_determinism(tmp_path):
    fan = write(tmp_path, "fan.json", F1)
    div = write(tmp_path, "d.json", {"coeffs": ["3/2", 0, 1, -1]})
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["asym", "--fan", fan, "--divisor", div, "--out", str(out1)]) == 0
    assert main(["asym", "--fan", fan, "--divisor", div, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_repeated_main_calls_match_fresh_processes(tmp_path):
    # One parser serves every main call of a process; each report must
    # be byte-identical to the report of a fresh interpreter.
    fan = write(tmp_path, "fan.json", P2)
    div = write(tmp_path, "d.json", {"coeffs": ["3/2", 0, -1]})
    calls = [
        ["cohom", "--fan", fan, "--divisor", div, "--bogus"],
        ["cohom", "--fan", fan, "--divisor", div, "--check-oracle"],
        ["gkz-enumerate", "--fan", fan],
    ]
    expected_codes = [2, 0, 0]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for k, argv in enumerate(calls):
        here, fresh = tmp_path / f"here{k}.json", tmp_path / f"fresh{k}.json"
        assert main(argv + ["--out", str(here)]) == expected_codes[k]
        done = subprocess.run(
            [sys.executable, "-m", "toricvol.cli", *argv, "--out", str(fresh)],
            env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == expected_codes[k], done.stderr
        assert here.read_bytes() == fresh.read_bytes(), argv


def test_cli_matches_library_exactly(tmp_path):
    import toricvol as tv

    fan_doc = write(tmp_path, "fan.json", F1)
    div_doc = write(tmp_path, "d.json", {"coeffs": [2, 1, 1, 1]})
    code, report = run(tmp_path, "cohom", "--fan", fan_doc, "--divisor", div_doc)
    fan = tv.make_fan(2, F1["rays"], F1["cones"])
    assert tuple(int(v) for v in report["result"]["h"]) == tv.h_all(fan, tv.divisor([2, 1, 1, 1]))

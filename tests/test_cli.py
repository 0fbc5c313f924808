import argparse
import ast
import hashlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from kummer_brauer import cli, report
from kummer_brauer.cli import build_parser, main
from kummer_brauer.curves import CurveLW
from test_acceptance import GOLDEN_DIR, GOLDEN_SPECS


def _module_env():
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_inline_json(capsys):
    code, out, _ = run(capsys, "analyze", "--first", "rt2:5,7", "--second", "rt2:1,2")
    assert code == 0
    data = json.loads(out)
    assert data["conclusion"] == "trivial"
    assert data["d"] == 0 and data["r"] == 0


def test_analyze_text_format(capsys):
    code, out, _ = run(capsys, "analyze", "--first", "rt2:5,7",
                       "--second", "rt2:1,2", "--format", "text")
    assert code == 0
    assert "conclusion: trivial" in out


def test_analyze_pair_file(tmp_path, capsys):
    spec = {
        "first": {"weierstrass": [0, 0, 0, 6, -2]},
        "second": {"weierstrass": [0, 0, 0, 0, 1], "six_torsion": [2, 3]},
    }
    f = tmp_path / "pair.json"
    f.write_text(json.dumps(spec), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--pair", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["twisted"]["flag"] is True


def test_analyze_pair_file_keeps_its_bounds(tmp_path, capsys):
    spec = {
        "first": {"rt2": {"a": 5, "b": 7}},
        "second": {"rt2": {"a": 1, "b": 2}},
        "bound": 500,
        "ell_max": 13,
    }
    f = tmp_path / "pair.json"
    f.write_text(json.dumps(spec), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--pair", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["input"]["bound"] == 500
    assert data["input"]["ell_max"] == 13
    # an explicit flag still wins
    code, out, _ = run(capsys, "analyze", "--pair", str(f), "--ell-max", "7")
    assert json.loads(out)["input"]["ell_max"] == 7


def test_override_flags_replace_the_pair_file_keys(tmp_path, capsys, monkeypatch):
    spec = {
        "first": {"rt2": {"a": 5, "b": 7}},
        "second": {"rt2": {"a": 1, "b": 2}},
        "bound": 5,
        "odd_primes": [7],
    }
    f = tmp_path / "pair.json"
    f.write_text(json.dumps(spec), encoding="utf-8")
    checked = []
    check = report.check_options
    monkeypatch.setattr(report, "check_options",
                        lambda s: checked.append(s) or check(s))
    monkeypatch.setattr(cli, "check_options", report.check_options, raising=False)
    # the file's bound 5 is out of range, but the flag replaces it unread
    code, out, err = run(capsys, "analyze", "--pair", str(f), "--bound-B", "500",
                         "--odd-primes", "5")
    assert code == 0, err
    data = json.loads(out)
    assert data["input"]["bound"] == 500
    assert data["input"]["odd_primes"] == [5]
    assert [ev["ell"] for ev in data["evidence"]] == [5]
    assert len(checked) == 1


def test_pair_file_with_inline_curve_flags_exits_2(tmp_path, capsys):
    f = tmp_path / "pair.json"
    f.write_text(json.dumps({"first": {"rt2": {"a": 5, "b": 7}},
                             "second": {"rt2": {"a": 1, "b": 2}}}), encoding="utf-8")
    for extra in (["--first", "rt2:11,13"], ["--second", "rt2:11,13"],
                  ["--six-torsion-first", "2,3"], ["--six-torsion-second", "2,3"]):
        code, out, err = run(capsys, "analyze", "--pair", str(f), *extra)
        assert code == 2 and "input error" in err and out == "", extra


def test_a_label_that_is_not_a_string_exits_2(tmp_path, capsys):
    f = tmp_path / "pair.json"
    for label in (1.5, True, ["x"], {"x": 1}):
        for side in ("first", "second"):
            spec = {"first": {"rt2": {"a": 5, "b": 7}}, "second": {"rt2": {"a": 1, "b": 2}}}
            spec[side]["label"] = label
            f.write_text(json.dumps(spec), encoding="utf-8")
            code, out, err = run(capsys, "analyze", "--pair", str(f))
            assert code == 2 and "input error" in err and out == "", (label, side)


# sha256 of the json and text reports of two pairs whose labels are strings
# or null, pinned before non-string labels became input errors.  The json
# report of ("", 'x"y') was re-pinned when input.first began to echo the
# empty label, as the report's labels already did
LABELLED_REPORT_SHA256 = {
    ("11a1 \u00e9", None, "json"):
        "2a2ba1608d28b059363a41e5413c787406c91a60410ec733319c58672b079459",
    ("11a1 \u00e9", None, "text"):
        "8d7e5b86fed026964e06a981c3a5b64518d6971f353a10aafb2ad1708c6d2305",
    ("", 'x"y', "json"): "e26b9b4013100c540fad0353465f5c049a189633265a1f04b9e79a29d3c3642e",
    ("", 'x"y', "text"): "7711584ec94378ce151ac9c5efec06ce80f19cde15c1cb2d475b1b6dc57e2d01",
}


@pytest.mark.parametrize("first, second, fmt", sorted(LABELLED_REPORT_SHA256, key=repr))
def test_string_and_null_labels_keep_their_report_bytes(first, second, fmt, tmp_path, capsys):
    spec = {"first": {"rt2": {"a": 5, "b": 7}, "label": first},
            "second": {"weierstrass": [0, 0, 0, 0, 1], "six_torsion": [2, 3], "label": second}}
    f = tmp_path / "pair.json"
    f.write_text(json.dumps(spec), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--pair", str(f), "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == LABELLED_REPORT_SHA256[first, second, fmt]


@pytest.mark.parametrize("first, second", sorted({k[:2] for k in LABELLED_REPORT_SHA256}, key=repr))
def test_analyzing_a_reports_own_input_gives_the_same_report(first, second, tmp_path, capsys):
    # an empty label is echoed like any other string, so it survives the trip
    spec = {"first": {"rt2": {"a": 5, "b": 7}, "label": first},
            "second": {"weierstrass": [0, 0, 0, 0, 1], "six_torsion": [2, 3], "label": second}}
    outs = []
    for _ in range(2):
        f = tmp_path / "pair.json"
        f.write_text(json.dumps(spec), encoding="utf-8")
        code, out, _ = run(capsys, "analyze", "--pair", str(f))
        assert code == 0
        outs.append(out)
        spec = json.loads(out)["input"]
    assert json.loads(outs[1])["labels"] == json.loads(outs[0])["labels"] == [first, second]
    assert outs[1] == outs[0]


def test_inline_rt2_rejects_non_integers(capsys):
    for curve in ("rt2:5.5,7", "rt2:5/2,7", "rt2:5", "rt2:5,7,9", "rt2:1e3,7", "x:5,7"):
        code, _, err = run(capsys, "analyze", "--first", curve, "--second", "rt2:1,2")
        assert code == 2 and "input error" in err, curve


def test_analyze_weierstrass_inline_with_fractions(capsys):
    code, out, _ = run(capsys, "analyze", "--first", "w:0,0,1,-1,0",
                       "--second", "w:0,1,1,0,0", "--bound-B", "500")
    assert code == 0
    assert json.loads(out)["r"] == 0


def test_analyze_bad_input_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "--first", "rt2:1,1", "--second", "rt2:1,2")
    assert code == 2
    assert "input error" in err


def test_analyze_missing_curve(capsys):
    code, _, err = run(capsys, "analyze", "--first", "rt2:1,2")
    assert code == 2


def test_user_input_errors_exit_2(tmp_path, capsys):
    for argv in (
        ["analyze", "--first", "rt2:5,7", "--second", "rt2:1,2", "--bound-B", "5"],
        ["analyze", "--first", "rt2:5,7", "--second", "rt2:1,2", "--odd-primes", "5,x"],
        ["analyze", "--first", "rt2:5,7", "--second", "rt2:1,2", "--odd-primes", "9"],
        ["analyze", "--first", "w:0,0,0,6,-2", "--second", "w:0,0,0,0,1",
         "--six-torsion-second", "1,1"],
        ["matrix", "--pair", "5,5,1,2"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "input error" in err, argv
    binary = tmp_path / "pair.json"
    binary.write_bytes(b"\xff\xfe{")
    code, _, err = run(capsys, "analyze", "--pair", str(binary))
    assert code == 2 and "input error" in err
    # json.load raises ValueError, not JSONDecodeError, for an integer longer
    # than sys.get_int_max_str_digits() (4300 by default)
    for text in ('{"first": {"rt2": {"a": %s, "b": 7}}, '
                 '"second": {"rt2": {"a": 1, "b": 2}}}' % _digits(4301), "{"):
        binary.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "analyze", "--pair", str(binary))
        assert code == 2 and "input error" in err
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"first": {"rt2": {"a": 5, "b": 7}},
                                "second": {"rt2": {"a": 1, "b": 2}}}), encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--pair", str(spec), "--bound-B", "3")
    assert code == 2 and "input error" in err


def test_option_upper_limits_exit_2_at_once(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"first": {"rt2": {"a": 5, "b": 7}},
                                "second": {"rt2": {"a": 1, "b": 2}}}), encoding="utf-8")
    pair = ["--first", "rt2:5,7", "--second", "rt2:1,2"]
    for argv in (
        ["analyze", *pair, "--bound-B", str(10**10)],
        ["analyze", *pair, "--ell-max", "997"],
        ["analyze", "--pair", str(spec), "--bound-B", str(report.MAX_BOUND + 1)],
        ["analyze", "--pair", str(spec), "--ell-max", str(report.MAX_ELL + 1)],
        ["frobenius", "--curve", "rt2:5,7", "--bound-B", str(10**10)],
    ):
        t0 = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert code == 2 and "input error" in err, argv
        assert time.perf_counter() - t0 < 1, argv


def test_search_and_frobenius_limits_exit_2_at_once():
    # search_family is linear in count + seed, so 10^9 of them ran for hours
    big = str(10**9)
    for argv in (
        ["search", "--count", big],
        ["search", "--seed", big],
        ["search", "--count", str(report.MAX_SEARCH), "--seed", "1"],
        ["frobenius", "--curve", "rt2:5,7", "--bound-B", "-5"],
        ["frobenius", "--curve", "rt2:5,7", "--bound-B", "0"],
    ):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "kummer_brauer.cli", *argv],
                             env=_module_env(), capture_output=True, text=True,
                             timeout=10)
        assert out.returncode == 2 and "input error" in out.stderr, argv
        assert out.stdout == "", argv
        assert time.perf_counter() - t0 < 1, argv


def test_each_subcommand_declares_exactly_the_flags_it_reads():
    (sub,) = (a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    for name, p in sub.choices.items():
        declared = {a.dest for a in p._actions if a.dest != "help"}
        handler = p.get_default("func")
        tree = ast.parse(textwrap.dedent(inspect.getsource(handler)))
        read = {n.attr for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id == "args"}
        assert read == declared, name


def test_internal_value_error_is_not_an_input_error(monkeypatch, capsys):
    def broken(*args):
        raise ValueError("internal fault")

    monkeypatch.setattr(report, "rank_r", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["analyze", "--first", "rt2:5,7", "--second", "rt2:1,2"])
    assert "input error" not in capsys.readouterr().err


def test_j_zero_partner_with_bad_reduction_first(capsys):
    # 11a1 is good at 2 where y^2 = x^3 + 1 is bad: the scan reads val_2(0)
    code, out, _ = run(capsys, "analyze", "--first", "w:0,-1,1,-10,-20",
                       "--second", "w:0,0,0,0,1", "--bound-B", "100")
    assert code == 0
    assert report.validate_report(json.loads(out)) == []


def test_37_digit_semiprime_coefficient_finishes():
    semiprime = 400000000000000013 * 7000000000000000013
    env = _module_env()
    out = subprocess.run(
        [sys.executable, "-m", "kummer_brauer.cli", "analyze", "--first",
         f"rt2:{semiprime},7", "--second", "rt2:1,2", "--bound-B", "100"],
        env=env, capture_output=True, text=True, timeout=20)
    assert out.returncode == 0, out.stderr
    assert report.validate_report(json.loads(out.stdout)) == []


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "--count", "2")
    assert code == 0
    data = json.loads(out)
    assert data[0]["first"]["rt2"] == {"a": 5, "b": 7}
    assert len(data) == 2


def test_help_names_the_default_options(capsys):
    for argv, defaults in ((["analyze", "--help"], (report.DEFAULT_BOUND,
                                                    report.DEFAULT_ELL_MAX)),
                           (["frobenius", "--help"], (report.DEFAULT_BOUND,))):
        with pytest.raises(SystemExit):
            main(argv)
        text = " ".join(capsys.readouterr().out.split())
        assert [text.count(f"(default {d})") for d in defaults] == [1] * len(defaults)


def test_frobenius_dump(capsys):
    code, out, _ = run(capsys, "frobenius", "--curve", "w:0,0,0,-1,0",
                       "--bound-B", "7")
    assert code == 0
    data = json.loads(out)
    assert data["entries"] == {"3": 0, "5": -2, "7": 0}


def test_matrix_subcommand(capsys):
    code, out, _ = run(capsys, "matrix", "--pair", "5,7,1,2")
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0] == [1, 35, 2, -5]
    assert data["d"] == 0
    assert len(data["extended_columns"]) == 9


def test_matrix_factors_each_base_element_once(capsys):
    # a*b is a product of two 13-digit primes; only a and b are factored
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "matrix", "--pair", "1000000000039,1000000000061,3,5")
    assert time.perf_counter() - t0 < 2
    assert code == 0
    assert json.loads(out)["rows"][0] == [1, 1000000000039 * 1000000000061, 15,
                                          -3000000000117]


def test_matrix_beyond_the_factoring_budget_exits_2():
    semiprime = 400000000000000013 * 7000000000000000013
    env = _module_env()
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "kummer_brauer.cli", "matrix", "--pair",
         f"{semiprime},7,1,2"],
        env=env, capture_output=True, text=True, timeout=20)
    assert time.perf_counter() - t0 < 5
    assert out.returncode == 2
    assert "coefficients too large to display square classes" in out.stderr


def test_matrix_bad_pair(capsys):
    code, _, err = run(capsys, "matrix", "--pair", "5,7")
    assert code == 2


def test_validate_criterion_subcommand(capsys):
    code, out, _ = run(capsys, "validate-criterion", "--ell", "3")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["subgroup_count"] == 55


def test_validate_criterion_mod_5(capsys):
    code, out, _ = run(capsys, "validate-criterion", "--ell", "5", "--format", "text")
    assert code == 0
    assert out == "ell = 5: PASS (466 subgroups of a group of order 480)\n"


# sha256 of the stdout of validate-criterion at ell 3 json, ell 3 text, ell 5
# json and ell 5 text, in that order; it pins the oracle's output bytes
CRITERION_SHA256 = "d7d74400f288e5a575004922e4f6a8094f52c71b0726264ef486bea1f8fce805"


def test_validate_criterion_bytes_equal_the_pinned_digest(capsys):
    digest = hashlib.sha256()
    for ell in ("3", "5"):
        for fmt in ("json", "text"):
            code, out, _ = run(capsys, "validate-criterion", "--ell", ell, "--format", fmt)
            assert code == 0
            digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == CRITERION_SHA256


@pytest.mark.parametrize("argv", [
    ("analyze", "--first", "rt2:5,7", "--second", "w:0,0,0,1/4,-1/8"),
    ("search", "--count", "3", "--seed", "5"),
    ("frobenius", "--curve", "w:0,0,0,1/4,-1/8", "--bound-B", "60"),
    ("matrix", "--pair", "36,27,-4,5"),
    ("validate-criterion", "--ell", "3"),
], ids=lambda argv: argv[0])
def test_json_output_equals_json_dumps_of_its_payload(argv, capsys, monkeypatch):
    payloads, write = [], report.stable_json

    def recording(obj):
        payloads.append(obj)
        return write(obj)

    monkeypatch.setattr(cli, "stable_json", recording)
    monkeypatch.setattr(report, "stable_json", recording)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(payloads) == 1
    assert out == json.dumps(payloads[0], sort_keys=True, indent=2) + "\n"


def test_golden_reports_under_python_O(tmp_path):
    env = _module_env()
    for name, raw in GOLDEN_SPECS.items():
        spec = tmp_path / name
        spec.write_text(json.dumps(raw), encoding="utf-8")
        out = subprocess.run(
            [sys.executable, "-O", "-m", "kummer_brauer.cli", "analyze", "--pair", str(spec)],
            env=env, capture_output=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout == (GOLDEN_DIR / name).read_bytes(), name


def test_validate_criterion_under_python_O_equals_the_pinned_digest():
    digest = hashlib.sha256()
    for ell in ("3", "5"):
        for fmt in ("json", "text"):
            out = subprocess.run(
                [sys.executable, "-O", "-m", "kummer_brauer.cli", "validate-criterion",
                 "--ell", ell, "--format", fmt],
                env=_module_env(), capture_output=True, timeout=60)
            assert out.returncode == 0, out.stderr
            digest.update(out.stdout)
    assert digest.hexdigest() == CRITERION_SHA256


def _digits(d):
    """A d-digit integer, as text."""
    return "1" + "0" * (d - 2) + "7"


@pytest.mark.parametrize("first, second, inside", [
    # j = a1^12 / Delta; written in the CM status of a curve paired with itself
    ("w:{},0,0,0,1", "self", 359),
    # 256 Delta, written as the class of the mod-2 verdict
    ("w:0,0,0,{},1", "rt2:1,2", 1432),
    # j's denominator, about a1^-12
    ("w:1/{},0,0,0,1", "rt2:1,2", 359),
], ids=("j", "delta", "j-denominator"))
def test_curves_a_report_cannot_print_exit_2(first, second, inside, capsys):
    # Python's str() refuses an int of more than sys.get_int_max_str_digits()
    # digits; the parser rejects a curve whose report would need one, and a
    # model just inside the limit renders in both formats
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default, which `inside` is taken at
    try:
        for d, size in ((inside, "inside"), (inside + 1, "outside"), (2 * inside, "outside")):
            curve = first.format(_digits(d))
            other = curve if second == "self" else second
            for fmt in ("json", "text"):
                code, out, err = run(capsys, "analyze", "--first", curve, "--second", other,
                                     "--format", fmt, "--bound-B", "300")
                if size == "inside":
                    assert code == 0 and out and not err, (d, fmt)
                else:
                    assert code == 2 and err.startswith("input error:") and not out, (d, fmt)
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_translated_model_with_an_unprintable_surface_exits_2(capsys):
    # y^2 + xy = x^3 + 1 moved by x = x' + r keeps j = -1/433 and Delta = -433,
    # but the surface prints b6 = a3^2 + 4 a6 = r^2 + 4 + 4 r^3
    for r, code_wanted in ((10**1433, 0), (2 * 10**1433, 2)):
        curve = f"w:1,{3 * r},{r},{3 * r * r},{1 + r**3}"
        code, out, err = run(capsys, "analyze", "--first", curve, "--second", "rt2:1,2",
                             "--format", "text", "--bound-B", "100")
        assert code == code_wanted, err
        assert (code == 0) == ("z^2 = (4x^3" in out)


def test_a_1400_digit_model_finds_its_three_two_torsion_points(capsys):
    # y^2 = (x - r + 2)(x - r)(x - r - 1) with r of 1400 digits: a6 has
    # about 4200, near the largest model a report can print, and the surface
    # equation shows the three roots
    r = int("31415926535" * 127 + "897")
    roots = (r - 2, r, r + 1)
    a2 = -sum(roots)
    a4 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
    a6 = -roots[0] * roots[1] * roots[2]
    assert len(str(r)) == 1400 and len(str(a6)) < 4300
    assert CurveLW(0, a2, 0, a4, a6).cubic_roots == list(roots)
    code, out, err = run(capsys, "analyze", "--first", f"w:0,{a2},0,{a4},{a6}",
                         "--second", "rt2:1,2", "--format", "text", "--bound-B", "100")
    assert code == 0, err
    assert "z^2 = " + "".join(f"(x-{e})" for e in roots) in out


def test_matrix_largest_accepted_input_ends_within_its_budget(capsys):
    # a 40-digit product of two 20-digit primes: the budget runs out, in
    # about 1 s; one more digit is refused before any factoring
    p, q = 99000000000000000071, 99000000000000000073
    assert len(str(p * q)) == cli.MATRIX_MAX_DIGITS
    t0 = time.perf_counter()
    code, _, err = run(capsys, "matrix", "--pair", f"{p * q},7,1,2")
    assert time.perf_counter() - t0 < 5
    assert code == 2 and "coefficients too large to display square classes" in err
    t0 = time.perf_counter()
    code, _, err = run(capsys, "matrix", "--pair", f"1,2,{-10 * p * q},7")
    assert time.perf_counter() - t0 < 0.5
    assert code == 2 and "at most 40 digits" in err

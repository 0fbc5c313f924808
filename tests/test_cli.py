import json
import os
import subprocess
import sys
from pathlib import Path

from kummer_brauer.cli import main
from test_acceptance import GOLDEN_DIR, GOLDEN_SPECS


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


def test_search_json(capsys):
    code, out, _ = run(capsys, "search", "--count", "2")
    assert code == 0
    data = json.loads(out)
    assert data[0]["first"]["rt2"] == {"a": 5, "b": 7}
    assert len(data) == 2


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


def test_matrix_bad_pair(capsys):
    code, _, err = run(capsys, "matrix", "--pair", "5,7")
    assert code == 2


def test_validate_criterion_subcommand(capsys):
    code, out, _ = run(capsys, "validate-criterion", "--ell", "3")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["subgroup_count"] == 55


def test_golden_reports_under_python_O(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    for name, raw in GOLDEN_SPECS.items():
        spec = tmp_path / name
        spec.write_text(json.dumps(raw), encoding="utf-8")
        out = subprocess.run(
            [sys.executable, "-O", "-m", "kummer_brauer.cli", "analyze", "--pair", str(spec)],
            env=env, capture_output=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout == (GOLDEN_DIR / name).read_bytes(), name

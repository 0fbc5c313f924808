import hashlib
import importlib.util
import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from kummer_brauer import arith, curves, homrank, report as report_module
from kummer_brauer.arith import is_prime
from kummer_brauer.curves import CurveLW
from kummer_brauer.isogeny import X0_EXIT_PRIME
from kummer_brauer.oddpart import check_57_family
from kummer_brauer.report import (
    ELL3_CAVEAT,
    MAX_BOUND,
    MAX_ELL,
    MAX_SEARCH,
    NO_TRANSFER,
    InputError,
    analyze,
    pair_surface_equation,
    parse_curve_record,
    parse_pair_spec,
    render_report,
    search_family,
    stable_json,
    twisted_flag,
    validate_report,
)
from test_homrank import change_model


def pair(first, second, **opts):
    return parse_pair_spec({"first": first, "second": second, **opts})


RT2_57_12 = pair({"rt2": {"a": 5, "b": 7}}, {"rt2": {"a": 1, "b": 2}})
SELF_28 = pair({"weierstrass": [0, -1, 0, -4, 4]}, {"weierstrass": [0, -1, 0, -4, 4]})
SELF_29 = pair({"weierstrass": [0, 0, 0, -7, -6]}, {"weierstrass": [0, 0, 0, -7, -6]})
SEXTIC_PAIR = pair({"weierstrass": [0, 0, 0, 6, -2]},
                   {"weierstrass": [0, 0, 0, 0, 1], "six_torsion": [2, 3]})
CONDUCTOR_37_43 = pair({"weierstrass": [0, 0, 1, -1, 0]},
                       {"weierstrass": [0, 1, 1, 0, 0]})
SELF_A1 = pair({"weierstrass": [0, 0, 0, 6, -2]}, {"weierstrass": [0, 0, 0, 6, -2]})
SELF_CM = pair({"weierstrass": [0, 0, 0, -1, 0]}, {"weierstrass": [0, 0, 0, -1, 0]},
               bound=200)
GOLDEN_DIR = Path(__file__).parent / "golden"
E_11A1 = {"weierstrass": [0, -1, 1, -10, -20]}
E_37A1 = {"weierstrass": [0, 0, 1, -1, 0]}


def test_parse_errors():
    with pytest.raises(InputError):
        parse_curve_record({"rt2": {"a": 1, "b": 1}})
    with pytest.raises(InputError):
        parse_curve_record({"weierstrass": [0, 0, 0, 0]})
    with pytest.raises(InputError):
        parse_curve_record({"weierstrass": [0, 0, 0, 0, "x"]})
    with pytest.raises(InputError):
        parse_curve_record({})
    with pytest.raises(InputError):
        parse_pair_spec({"first": {"rt2": {"a": 1, "b": 2}}})
    with pytest.raises(InputError):
        pair({"rt2": {"a": 1, "b": 2}}, {"rt2": {"a": 1, "b": 2}}, odd_primes=[9])
    with pytest.raises(InputError):
        pair({"rt2": {"a": 1, "b": 2}}, {"rt2": {"a": 1, "b": 2}}, odd_primes=7)
    with pytest.raises(InputError):  # the point is not on y^2 = x^3 + 1
        pair({"rt2": {"a": 1, "b": 2}}, {"weierstrass": [0, 0, 0, 0, 1], "six_torsion": [1, 1]})
    with pytest.raises(InputError):
        pair({"rt2": {"a": 1, "b": 2}}, {"rt2": {"a": 1, "b": 2}}, bound=1)


def test_rt2_record_reads_integers_only():
    # a float or a bool used to be truncated by int(): 5.9 was analysed as 5
    for bad in (5.9, 5.0, True, "5/2", "5.5", None, [5]):
        with pytest.raises(InputError):
            parse_curve_record({"rt2": {"a": bad, "b": 7}})
    ci = parse_curve_record({"rt2": {"a": " 5", "b": "14/2"}})
    assert ci.rt2_raw == (5, 7)
    assert ci.echo() == {"rt2": {"a": 5, "b": 7}}


def test_exponent_strings_are_rejected():
    # Fraction("1e999999999") would build a billion-digit integer
    with pytest.raises(InputError):
        parse_curve_record({"weierstrass": [0, 0, 0, "1e99", 0]})
    with pytest.raises(InputError):
        parse_curve_record({"rt2": {"a": "5E0", "b": 7}})
    with pytest.raises(InputError):
        parse_curve_record({"weierstrass": [0, 0, 0, 0, 1], "six_torsion": ["2e0", 3]})


def test_rational_weierstrass_coefficients():
    spec = pair({"weierstrass": ["0", "0", "0", "-1/4", "1"]},
                {"rt2": {"a": 1, "b": 2}})
    assert spec.first.lw.a4.denominator == 4


def test_family_base_pair_report():
    d = analyze(RT2_57_12).to_dict()
    assert d["d"] == 0
    assert d["r"] == 0 and d["r_confidence"] == "certified"
    assert d["dim2"] == 0
    assert d["conclusion"] == "trivial"
    assert any(c["kind"] == "j-valuation" for c in d["certificates"])
    assert d["surface"] == "z^2 = x(x-5)(x-7)y(y-1)(y-2)"
    assert d["two_torsion_route"] == "residue-matrix"
    assert validate_report(d) == []


def test_self_product_rank_one_reports():
    for spec in (SELF_28, SELF_29):
        d = analyze(spec).to_dict()
        assert d["d"] == 1
        assert d["r"] == 1 and d["r_confidence"] == "heuristic"
        assert d["dim2"] == 0
        assert d["conclusion"] == "trivial"
        assert d["caveats"]  # heuristic r demands caveats
        assert validate_report(d) == []


def test_sextic_pair_report_and_twist_flag():
    d = analyze(SEXTIC_PAIR).to_dict()
    assert d["conclusion"] == "trivial"
    assert d["r"] == 0
    assert d["dim2"] == 0
    assert any(c["kind"] == "six-torsion-cm-pair" for c in d["certificates"])
    assert d["twisted"]["flag"] is True
    assert validate_report(d) == []


def test_conductor_37_43_report():
    d = analyze(CONDUCTOR_37_43).to_dict()
    assert d["conclusion"] == "trivial"
    assert d["r"] == 0 and d["r_confidence"] == "certified"
    assert d["twisted"]["flag"] is True
    assert d["d"] is None  # no fully rational 2-torsion on either factor
    assert validate_report(d) == []


def test_self_square_sampling_report():
    d = analyze(SELF_A1).to_dict()
    assert d["conclusion"] == "trivial"
    assert d["r"] == 1
    # the invariant 2-part of the geometric Brauer group survives here,
    # so the conclusion must not transfer to twists
    assert d["twisted"]["flag"] is False
    assert validate_report(d) == []


def test_cm_square_is_inconclusive():
    d = analyze(SELF_CM).to_dict()
    assert d["conclusion"] == "inconclusive"
    assert d["r"] == 2
    assert d["dim2"] == "not determined"
    assert not d["gate"]["passes"]
    assert any(c["kind"] == "cm-isogeny-exclusion" for c in d["certificates"])
    assert validate_report(d) == []


def test_congruence_evidence_requests():
    spec = pair({"weierstrass": [0, 0, 1, -1, 0]}, {"weierstrass": [0, 1, 1, 0, 0]},
                odd_primes=[3, 5], bound=100)
    d = analyze(spec).to_dict()
    assert len(d["evidence"]) == 2
    for ev in d["evidence"]:
        assert ev["result"] in ("pass", "fail")


def test_requested_evidence_skips_p_equal_ell():
    # the first mismatch mod 3 of 37a1 and 43a1 is at p = 3, which is skipped
    spec = pair({"weierstrass": [0, 0, 1, -1, 0]}, {"weierstrass": [0, 1, 1, 0, 0]},
                odd_primes=[3], bound=100)
    (ev,) = analyze(spec).to_dict()["evidence"]
    assert ev["result"] == "fail" and ev["first_failing_prime"] == 5


def test_twisted_flag_is_the_validator_rule_at_every_ell_max():
    raws = ((E_11A1, E_37A1),
            ({"weierstrass": [0, 0, 0, 6, -2]},
             {"weierstrass": [0, 0, 0, 0, 1], "six_torsion": [2, 3]}),
            ({"weierstrass": [0, 0, 1, -1, 0]}, {"weierstrass": [0, 1, 1, 0, 0]}),
            ({"weierstrass": [0, 0, 0, -7, -6]}, {"weierstrass": [0, 0, 0, -7, -6]}),
            ({"weierstrass": [0, 0, 0, -1, 0]}, {"weierstrass": [0, 0, 0, -1, 0]}),
            ({"rt2": {"a": 5, "b": 7}}, {"rt2": {"a": 1, "b": 2}}))
    kinds = set()
    for first, second in raws:
        for ell_max in (2, 3, 4, 5, 37):
            d = analyze(pair(first, second, ell_max=ell_max)).to_dict()
            assert validate_report(d) == [], (first, second, ell_max)
            assert d["twisted"]["flag"] is twisted_flag(d), (first, second, ell_max)
            kinds.update(c["kind"] for c in d["certificates"])
    # every certificate route passes the shared rule
    assert kinds == {"j-valuation", "cm-isogeny-exclusion", "six-torsion-cm-pair",
                     "mod-ell-sampling"}


def test_no_twist_transfer_without_odd_coverage():
    # at ell_max = 3 the only odd ell is undecidable, and at ell_max = 2 there
    # is none, so nothing covers the odd part and the conclusion stays open:
    # no transfer to twists
    for spec in (pair(E_11A1, E_37A1, ell_max=3),
                 pair(E_11A1, E_37A1, ell_max=2, bound=1000)):
        d = analyze(spec).to_dict()
        assert d["conclusion"] == "odd-part-open"
        assert d["twisted"] == {"flag": False, "detail": NO_TRANSFER}
        assert validate_report(d) == []


def test_rescaled_model_pair_is_the_self_pair():
    # [0,0,0,-112,-384] is [0,0,0,-7,-6] with a_i -> 2^i a_i
    rescaled = pair({"weierstrass": [0, 0, 0, -7, -6]},
                    {"weierstrass": [0, 0, 0, -112, -384]})
    assert _summary(rescaled) == _summary(SELF_29)
    assert _summary(rescaled)[:4] == ("trivial", 1, 1, 0)


def test_same_curve_pairs_skip_their_congruence_scans(monkeypatch):
    # an isomorphism is a Q-isogeny: a_p agree at every common good prime,
    # so each requested scan passes without being run
    calls = []
    scan = report_module.first_incongruent_primes
    monkeypatch.setattr(report_module, "first_incongruent_primes",
                        lambda *args: calls.append(args) or scan(*args))
    rescaled = [str(c * 4**i) for c, i in zip(E_11A1["weierstrass"], (1, 2, 3, 4, 6))]
    for second in (E_11A1, {"weierstrass": rescaled}):
        d = analyze(pair(E_11A1, second, odd_primes=[3, 5, 7], bound=2000)).to_dict()
        assert d["gate"]["case"] == "same-curve-no-cm"
        assert [ev["result"] for ev in d["evidence"]] == ["pass"] * 3
    assert calls == []


def _moved(key, r, s, t):
    """The Weierstrass record of the model key in the coordinates
    x = x' + r, y = y' + s x' + t."""
    return {"weierstrass": [str(c) for c in change_model(CurveLW(*key), 1, r, s, t).key()]}


def _verdict(first, second) -> tuple:
    d = analyze(pair(first, second, bound=2000)).to_dict()
    return (d["conclusion"], d["two_torsion_route"], d["dim2"], d["gate"]["case"],
            [(c["kind"], c["primes_covered"]) for c in d["certificates"]],
            d["twisted"]["flag"])


# 11a1, 37a1, 14a1, 15a1 (full rational 2-torsion, a1 = a3 = 1), three models
# with roots {0, 5, 7} or {-2, 1, 2}, 43a1, and the CM curves y^2 = x^3 + 1
# and y^2 = x^3 - x
MOVE_PANEL = ([0, -1, 1, -10, -20], [0, 0, 1, -1, 0], [1, 0, 1, 4, -6],
              [1, 1, 1, -10, -10], [0, -12, 0, 35, 0], [0, -1, 0, -4, 4],
              [0, 1, 1, 0, 0], [0, 0, 0, 0, 1], [0, 0, 0, -1, 0])


def test_isomorphic_models_get_the_same_verdict():
    """Moves x = x' + r, y = y' + s x' + t of either curve leave the verdict
    of every pair unchanged."""
    rng = random.Random(1601)
    partners = ({"rt2": {"a": 1, "b": 2}}, E_37A1, E_11A1)
    cases = 0
    for key in MOVE_PANEL:
        for partner in partners:
            expected = _verdict({"weierstrass": key}, partner)
            for _ in range(5):
                r, s, t, r2, s2, t2 = (rng.randint(-3, 3) for _ in range(6))
                other = (_moved(partner["weierstrass"], r2, s2, t2)
                         if "weierstrass" in partner else partner)
                assert _verdict(_moved(key, r, s, t), other) == expected, (key, r, s, t)
                cases += 1
    assert cases == 135
    # y^2 = x(x-5)(x-7) moved by y -> y + x
    assert _moved([0, -12, 0, 35, 0], 0, 1, 0) == {"weierstrass": ["2", "-13", "0", "35", "0"]}
    for key in ([0, -12, 0, 35, 0], [2, -13, 0, 35, 0]):
        d = analyze(pair({"weierstrass": key}, {"rt2": {"a": 1, "b": 2}})).to_dict()
        assert (d["conclusion"], d["two_torsion_route"]) == ("trivial", "residue-matrix")


def test_option_upper_limits():
    rt2 = {"rt2": {"a": 5, "b": 7}}
    pair(rt2, rt2, bound=MAX_BOUND, ell_max=MAX_ELL)
    with pytest.raises(InputError, match="bound"):
        pair(rt2, rt2, bound=MAX_BOUND + 1)
    with pytest.raises(InputError, match="ell_max"):
        pair(rt2, rt2, ell_max=MAX_ELL + 1)


def rt2_input(a, b):
    return parse_curve_record({"rt2": {"a": a, "b": b}})


def test_pair_surface_equation():
    assert (pair_surface_equation(rt2_input(5, 7), rt2_input(1, 2))
            == "z^2 = x(x-5)(x-7)y(y-1)(y-2)")
    assert (pair_surface_equation(rt2_input(1, -3), rt2_input(2, 4))
            == "z^2 = x(x-1)(x+3)y(y-2)(y-4)")
    assert (pair_surface_equation(rt2_input(3, 4), rt2_input(-2, 7))
            == "z^2 = x(x-3)(x-4)y(y+2)(y-7)")


def test_root_factor_formats_an_int_as_its_fraction():
    # rt2 roots reach the formatter as ints, Weierstrass roots as Fractions
    for r in (0, 1, -1, 5, -35, 10**30, -(10**30)):
        for var in ("x", "y"):
            assert report_module._root_factor(var, r) == report_module._root_factor(var, Fraction(r))


def test_empty_report_never_flags_twists():
    d = analyze(SELF_CM).to_dict()
    assert d["twisted"]["flag"] is False


def test_twisted_flag_recomputable_from_reports():
    for spec, expected in ((SEXTIC_PAIR, True), (CONDUCTOR_37_43, True),
                           (SELF_A1, False), (SELF_28, False), (SELF_CM, False)):
        d = analyze(spec).to_dict()
        assert twisted_flag(d) is expected
        assert d["twisted"]["flag"] is expected


def test_render_json_roundtrip_and_stability():
    rep = analyze(RT2_57_12)
    text = render_report(rep, "json")
    assert json.loads(text) == rep.to_dict()
    assert render_report(analyze(RT2_57_12), "json") == text
    human = render_report(rep, "text")
    assert "conclusion: trivial" in human
    with pytest.raises(InputError):
        render_report(rep, "yaml")


def test_validator_rejects_tampering():
    d = analyze(RT2_57_12).to_dict()
    bad = json.loads(json.dumps(d))
    bad["dim2"] = 1
    assert validate_report(bad)
    bad2 = json.loads(json.dumps(d))
    bad2["gate"]["passes"] = False
    assert validate_report(bad2)
    bad3 = json.loads(json.dumps(d))
    bad3["certificates"] = []
    assert validate_report(bad3)
    # an open odd part edited into a trivial, transferring report, with the
    # mod-3 caveat that the sampling certificate carries copied to the report
    bad4 = analyze(pair(E_11A1, E_37A1, ell_max=3)).to_dict()
    bad4["conclusion"] = "trivial"
    bad4["caveats"].append(ELL3_CAVEAT)
    bad4["twisted"]["flag"] = True
    assert validate_report(bad4)


def test_validator_reports_malformed_reports():
    d = analyze(RT2_57_12).to_dict()
    assert validate_report(d) == [] and d["certificates"] and d["dim2"] == 0
    no_route = json.loads(json.dumps(d))
    del no_route["two_torsion_route"]
    assert any("two_torsion_route" in v for v in validate_report(no_route))
    no_cover = json.loads(json.dumps(d))
    del no_cover["certificates"][0]["primes_covered"]
    assert any("primes_covered" in v for v in validate_report(no_cover))
    # true is no integer: it must not pass for dim2 = 1
    bool_dim2 = {"dim2": True, "gate": {"passes": True}, "conclusion": "two-part-nontrivial"}
    assert any("dim2" in v for v in validate_report(bool_dim2))
    full = json.loads(json.dumps(d))
    full.update(dim2=True, conclusion="two-part-nontrivial")
    assert any("dim2" in v for v in validate_report(full))
    # a report with sampled coverage, whose rule reads every certificate's
    # caveats and primes_covered and the report's caveats: each of the last
    # four used to raise TypeError
    s = json.loads((GOLDEN_DIR / "golden_big_image_square.json").read_text(encoding="utf-8"))
    assert validate_report(s) == [] and s["certificates"][0]["kind"] == "mod-ell-sampling"
    for bad in ([], {**d, "certificates": 5}, {**d, "witnesses": [{}]}, {**d, "gate": 1},
                {**s, "certificates": [{**s["certificates"][0], "caveats": 5}]},
                {**s, "certificates": [{**s["certificates"][0], "primes_covered": [[5]]}]},
                {**s, "caveats": 5}, {**s, "caveats": [5]}):
        assert validate_report(bad)


def test_validator_reports_a_malformed_ell_max_without_sieving_it(monkeypatch):
    # the coverage rule reads the primes up to input.ell_max: a string or
    # null used to raise TypeError there, and 10^8 to sieve for seconds
    def refuse(limit):
        raise AssertionError(f"sieved to {limit}")

    monkeypatch.setattr(arith, "_sieve", refuse)
    d = json.loads((GOLDEN_DIR / "golden_big_image_square.json").read_text(encoding="utf-8"))
    assert validate_report(d) == [] and any("odd coverage sampled" in c for c in d["caveats"])
    for bad in ("x", None, True, MAX_ELL + 1, 10**8):
        report = json.loads(json.dumps(d))
        report["input"]["ell_max"] = bad
        assert validate_report(report) == [
            f"input.ell_max {bad!r} is not an integer in [2, {MAX_ELL}]"], bad


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def test_stable_json_equals_json_dumps_on_goldens_and_family_reports():
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        assert stable_json(json.loads(text)) + "\n" == text, path.name
    for offset in (0, 13, 37, 63):
        for spec in search_family(60, offset):
            data = analyze(spec).to_dict()
            assert stable_json(data) == _dumps(data)
            assert render_report(analyze(spec)) == _dumps(data) + "\n"


# sha256 of the panel's JSON and text renderings, in order; a change to the
# bytes of any report in the panel changes it
PANEL_SHA256 = "bf60c5493d6249ee187c0b4e243598722c9c586ce73332dc3e4bf9155541c1b4"


def _big_coeff_pool_specs():
    """The benchmark's fixed pool of big-coefficient pairs, each as
    {"rt2": spec, "shifted": spec}, read from perfbench by path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module.big_coeff_pool()


def test_report_bytes_equal_the_pinned_panel_digest():
    specs = [parse_pair_spec(json.loads(path.read_text(encoding="utf-8"))["input"])
             for path in sorted(GOLDEN_DIR.glob("*.json"))]
    specs += search_family(300, 13)
    for entry in _big_coeff_pool_specs()[:2]:
        specs += [parse_pair_spec(entry["rt2"]), parse_pair_spec(entry["shifted"])]
    specs.append(pair(E_11A1, E_37A1, bound=1000))
    digest = hashlib.sha256()
    for spec in specs:
        report = analyze(spec)
        for fmt in ("json", "text"):
            digest.update(render_report(report, fmt).encode("utf-8"))
    assert digest.hexdigest() == PANEL_SHA256


def _spy_on_root_searches(monkeypatch) -> list:
    """Record the coefficients of every rational_roots call made through the
    binding in curves, which cubic_roots reads; X_0(ell) root searches go
    through other bindings and are not counted."""
    searches = []
    search = curves.rational_roots

    def spy(f):
        searches.append(f)
        return search(f)

    monkeypatch.setattr(curves, "rational_roots", spy)
    return searches


def test_shifted_pair_finds_each_curves_cubic_roots_once(monkeypatch):
    """The rt2 form and the surface equation read one memo of the roots of
    each curve's cubic: two root searches per analysis of a pair of shifted
    models (four when each searched on its own)."""
    searches = _spy_on_root_searches(monkeypatch)
    for entry in _big_coeff_pool_specs()[:2]:
        searches.clear()
        data = analyze(parse_pair_spec(entry["shifted"])).to_dict()
        assert data["two_torsion_route"] == "residue-matrix"
        assert len(searches) == 2


@pytest.mark.parametrize("name", ["golden_big_image_square", "golden_sextic_pair"])
def test_golden_pair_searches_each_curves_two_torsion_once(monkeypatch, name):
    """The mod-2 verdict reads the curve's cubic_roots, the memo that the rt2
    form and the surface equation read: one root search per curve of the
    pair, none of its own."""
    spec = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))["input"]
    searches = _spy_on_root_searches(monkeypatch)
    analyze(parse_pair_spec(spec))
    assert len(searches) == 2


def test_rt2_records_carry_the_roots_a_search_finds():
    # CurveRT2.to_lw sets cubic_roots from 0, a and b: the list, and the
    # type, that a root search on the same coefficients returns
    specs = [parse_pair_spec(json.loads(path.read_text(encoding="utf-8"))["input"])
             for path in sorted(GOLDEN_DIR.glob("golden_*.json"))]
    specs += search_family(300, 0)
    specs += [parse_pair_spec(entry["rt2"]) for entry in _big_coeff_pool_specs()]
    inputs = [ci for spec in specs for ci in (spec.first, spec.second)]
    rt2 = [ci for ci in inputs if ci.rt2_raw is not None]
    assert len(rt2) > 100
    for ci in inputs:
        searched = CurveLW(*ci.lw.key()).cubic_roots
        assert ci.lw.cubic_roots == searched, ci.lw.label()
        assert [type(r) for r in ci.lw.cubic_roots] == [type(r) for r in searched]
    assert all(len(ci.lw.cubic_roots) == 3 for ci in rt2)


def test_an_rt2_record_runs_no_root_search(monkeypatch):
    # its roots are 0, a and b: neither the printability check of the parse
    # nor the mod-2 verdict and surface equation of the analysis search
    searches = _spy_on_root_searches(monkeypatch)
    curve = parse_curve_record({"rt2": {"a": -3, "b": 4}}).lw
    assert curve.cubic_roots == [-3, 0, 4]
    data = analyze(pair({"rt2": {"a": 5, "b": 7}}, {"rt2": {"a": 1, "b": 2}})).to_dict()
    assert data["conclusion"] == "trivial"
    analyze(parse_pair_spec(_big_coeff_pool_specs()[0]["rt2"]))
    for spec in search_family(20, 0):
        analyze(spec)
    assert searches == []


def test_stable_json_edge_cases():
    cases = [
        [], {}, [[]], [{}], {"a": []}, {"a": {}, "b": [[], {}]}, (), ("x", (1, 2)),
        '"', "\\", "\n", "\x01", "\x7f", "é", "\U0001F600", "", "a\u2028b",
        True, False, 1, 0, None, [True, 1, False, 0, None],
        -7, 10**40, -(10**40), {"z": 1, "a": {"y": [1, "é"], "b": None}, "é": True},
    ]
    for obj in cases:
        assert stable_json(obj) == _dumps(obj), obj
    for bad in (1.5, Fraction(1, 2), {1, 2}, {1: "a"}, [0.0], {"a": {2: 3}}, b"x"):
        with pytest.raises(TypeError):
            stable_json(bad)


def test_search_family_base_case():
    pairs = search_family(1, 0)
    assert pairs[0].first.rt2_raw == (5, 7)
    assert pairs[0].second.rt2_raw == (1, 2)


def test_search_family_validity_and_determinism():
    # search_family checks no family condition itself, its residue filters
    # imply them all; 2063 pairs cover the pinned 2000 and the perfbench
    # early-exit workload's largest seed offset, 63
    pairs = search_family(2063, 0)
    assert len(pairs) == 2063
    seen = set()
    for p in pairs:
        a, b = p.first.rt2_raw
        a2, b2 = p.second.rt2_raw
        assert check_57_family(a, b) == []
        assert all(v % 5 and v % 7 for v in (a2, b2, a2 - b2))
        seen.add((a, b, a2, b2))
    assert len(seen) == 2063
    again = search_family(50, 0)
    assert [q.first.rt2_raw for q in again] == [q.first.rt2_raw for q in pairs[:50]]
    # the seed offsets the enumeration
    offset = search_family(3, 2)
    assert offset[0].echo() == search_family(5, 0)[2].echo()


# sha256 of stable_json of the echoes of search_family(2000): 455 262 bytes,
# pinned before the checks on the second curve (a', b'), which can never
# fire, were deleted
SEARCH_2000_SHA256 = "98a67e50fb1e0f386afd5fd8b7a57458c0cecd0b21b2ae07a89ee7856cfd5a34"


def test_search_family_bytes_equal_the_pinned_digest():
    text = stable_json([p.echo() for p in search_family(2000)]).encode("utf-8")
    assert len(text) == 455_262
    assert hashlib.sha256(text).hexdigest() == SEARCH_2000_SHA256


def test_the_residue_filters_are_the_family_conditions():
    # the proof in search_family's docstring, checked on a grid: (a, b) =
    # (5 + 35m, 7 + 35n) is in the family iff m != 2 mod 5 and n != 4 mod 7
    for m in range(200):
        for n in range(200):
            valid = check_57_family(5 + 35 * m, 7 + 35 * n) == []
            assert valid == (m % 5 != 2 and n % 7 != 4), (m, n)


def test_search_family_holds_one_input_per_curve():
    specs = search_family(300, 5)
    inputs = [ci for spec in specs for ci in (spec.first, spec.second)]
    by_curve = {}
    for ci in inputs:
        assert by_curve.setdefault(ci.rt2_raw, ci) is ci
    assert len(by_curve) == 38 and len(inputs) == 600


def test_family_analyses_build_one_fraction_per_curve(monkeypatch):
    """analyze + render_report over search_family(300, 5) build one Fraction
    per curve object, its j memo, and compare at most 3 per pair: rt2
    roots, valuations and CM membership are decided on ints, and the record
    compare in analyze on the models' discriminants.  The 3 left are the j
    compares of same_curve and nonisogeny_certificate, and j = 0 in
    j_valuation_certificate."""
    specs = search_family(300, 5)
    curve_objects = {id(ci.lw) for spec in specs for ci in (spec.first, spec.second)}
    counted = Counter()
    new, eq, richcmp = Fraction.__new__, Fraction.__eq__, Fraction._richcmp

    def spy_new(cls, *args, **kwargs):
        counted["new"] += 1
        return new(cls, *args, **kwargs)

    def spy_eq(a, b):
        counted["compare"] += 1
        return eq(a, b)

    def spy_richcmp(a, b, op):
        counted["compare"] += 1
        return richcmp(a, b, op)

    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", spy_new)
        m.setattr(Fraction, "__eq__", spy_eq)
        m.setattr(Fraction, "_richcmp", spy_richcmp)
        for spec in specs:
            render_report(analyze(spec))
    assert counted["new"] == len(curve_objects) == 38
    assert counted["compare"] <= 3 * len(specs)


def test_family_analyses_ask_same_curve_once_per_pair(monkeypatch):
    """rank_r asks same_curve of every pair, and j_valuation_certificate
    only of a partner that fails its conditions; every family partner
    meets them.  The spy replaces the function wherever the package holds
    it, as the benchmark's tracer does."""
    specs = search_family(300, 5)
    calls = []
    real = homrank.same_curve
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kummer_brauer" and vars(module).get("same_curve") is real:
            monkeypatch.setattr(module, "same_curve",
                                lambda e, e2: calls.append(e2) or real(e, e2))
    for spec in specs:
        render_report(analyze(spec))
    assert len(calls) == len(specs) == 300


SELF_PAIR_GOLDENS = ("golden_big_image_square.json", "golden_rt2_1_5_square.json",
                     "golden_rt2_3_4_square.json")


def test_self_pair_analysis_counts_points_once_per_prime(monkeypatch):
    """The two sides of a self pair are parsed into distinct equal models;
    analyze runs them as one curve object, so no a_p is counted twice, and
    the requested congruence scans pass without reading any."""
    counted = Counter()
    count_points = curves.count_points

    def spy(curve, p):
        counted[curve.key(), p] += 1
        return count_points(curve, p)

    monkeypatch.setattr(curves, "count_points", spy)
    for name in SELF_PAIR_GOLDENS:
        data = json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))["input"]
        spec = parse_pair_spec({**data, "odd_primes": [3, 5, 7]})
        assert spec.first.lw == spec.second.lw and spec.first.lw is not spec.second.lw
        counted.clear()
        evidence = analyze(spec).to_dict()["evidence"]
        assert [ev["result"] for ev in evidence] == ["pass"] * 3
        assert counted and max(counted.values()) == 1, name


def test_search_family_rejects_bad_args():
    with pytest.raises(InputError):
        search_family(0)
    with pytest.raises(InputError):
        search_family(1, -1)
    with pytest.raises(InputError):
        search_family(MAX_SEARCH + 1)
    with pytest.raises(InputError):
        search_family(1, MAX_SEARCH)
    assert len(search_family(1, MAX_SEARCH - 1)) == 1


# -- inputs whose factorization is out of reach ---------------------------------


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def _summary(spec):
    d = analyze(spec).to_dict()
    assert validate_report(d) == []
    return d["conclusion"], d["d"], d["r"], d["dim2"], d["kernel_basis"]


def test_200_digit_pair_at_small_bound_is_fast():
    p, q, r, s = (_next_prime(k * 10**99) for k in (2, 5, 3, 7))
    spec = pair({"rt2": {"a": p * q, "b": 3 * p}}, {"rt2": {"a": r * s, "b": 5 * r}},
                bound=100)
    assert len(str(p * q)) == len(str(r * s)) == 200
    t0 = time.perf_counter()
    summary = _summary(spec)
    assert time.perf_counter() - t0 < 1.0
    assert summary == ("trivial", 0, 0, 0, [])


def test_200_digit_isogeny_walk_is_fast():
    # both curves have full rational 2-torsion, so each walk takes 2-isogenies
    from kummer_brauer.isogeny import isogenous
    p, q, r, s = (_next_prime(k * 10**99) for k in (2, 5, 3, 7))
    e = parse_curve_record({"rt2": {"a": p * q, "b": 3 * p}}).lw
    e2 = parse_curve_record({"rt2": {"a": r * s, "b": 5 * r}}).lw
    t0 = time.perf_counter()
    assert not isogenous(e, e2)
    assert time.perf_counter() - t0 < 2.0


def test_big_image_golden_at_max_ell_within_budget():
    # sampling sets up O(ell) per ell and classifies each sample in O(1);
    # every ell from 5 to 97 ends at its first three witnesses (about
    # 0.01 s measured on a 2-vCPU Xeon)
    data = json.loads((GOLDEN_DIR / "golden_big_image_square.json").read_text(encoding="utf-8"))
    spec = parse_pair_spec({**data["input"], "ell_max": MAX_ELL})
    t0 = time.perf_counter()
    result = analyze(spec)
    assert time.perf_counter() - t0 < 0.25
    assert result.conclusion == data["conclusion"] == "trivial"


def test_isogenous_pair_at_max_bound_within_budget():
    # a certified isogeny ends the non-isogeny scan after the primes up to
    # X0_EXIT_PRIME and answers the congruence evidence without a scan
    spec = pair(E_11A1, {"weierstrass": [0, -1, 1, 0, 0]},
                bound=MAX_BOUND, odd_primes=[5, 7])
    t0 = time.perf_counter()
    data = analyze(spec).to_dict()
    assert time.perf_counter() - t0 < 5.0
    assert validate_report(data) == []
    assert data["conclusion"] == "inconclusive"
    assert [(ev["ell"], ev["result"]) for ev in data["evidence"]] == [(5, "pass"), (7, "pass")]


def test_full_scan_pairs_read_no_trace_past_the_exit_prime(monkeypatch):
    # 11a1 x 11a3 (isogenous) ends its non-isogeny scan with the walk, and
    # 11a1 x 37a1 its mod-5 sampling of 11a1 with the X_0(5) root, both at
    # the first prime above X0_EXIT_PRIME: 45 point counts for the two
    # pairs at B = 5000
    calls = []
    real = curves.count_points
    monkeypatch.setattr(curves, "count_points", lambda c, p: calls.append(p) or real(c, p))
    for e2, odd in (({"weierstrass": [0, -1, 1, 0, 0]}, [5, 7]), (E_37A1, [])):
        render_report(analyze(pair(E_11A1, e2, bound=5000, odd_primes=odd)))
    assert max(calls) <= X0_EXIT_PRIME
    assert len(calls) <= 45


FULL_SCAN_PAIRS = ((E_11A1, {"weierstrass": [0, -1, 1, 0, 0]}, [5, 7]), (E_11A1, E_37A1, []))


def test_full_scan_pairs_do_counted_work(monkeypatch):
    # exact work on the two pairs at B = 5000, which machine noise cannot
    # move: X_0(ell) root searches in the walk (isogeny) and in sampling
    # (oddpart), evaluations mod a prime in rational_roots (the residue
    # scans and simple-root checks, cubic_roots' searches included), and
    # point counts.  The walk of 11a1 x 11a3 searches only degree 5, which
    # the traces read leave, and each root search lifts from the first
    # prime whose roots are all simple
    from kummer_brauer import isogeny, oddpart
    counts = Counter()
    for key, module, name in (("walk", isogeny, "x0_roots"), ("sampling", oddpart, "x0_roots"),
                              ("points", curves, "count_points")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, key=key:
                            counts.update([key]) or real(*args))
    poly_eval = arith.poly_eval
    monkeypatch.setattr(arith, "poly_eval", lambda f, x, m=0: counts.update(
        ["residues"] * (m > 1 and is_prime(m))) or poly_eval(f, x, m))
    found = []
    for e, e2, odd in FULL_SCAN_PAIRS:
        counts.clear()
        render_report(analyze(pair(e, e2, bound=5000, odd_primes=odd)))
        found.append(tuple(counts[key] for key in ("walk", "sampling", "residues", "points")))
    assert found == [(1, 0, 26, 28), (0, 1, 27, 17)]


def test_sampling_certificate_walks_the_primes_twice(monkeypatch):
    # one pass samples every ell and one more finds the trace mismatches of
    # the 9 ell with a full image
    from kummer_brauer import oddpart
    walks = []
    real = oddpart.good_primes
    monkeypatch.setattr(oddpart, "good_primes",
                        lambda *args, **kwargs: walks.append(args) or real(*args, **kwargs))
    e, e2 = (parse_curve_record(c).lw for c in (E_11A1, E_37A1))
    ells = [ell for ell in range(3, 38) if is_prime(ell)]
    cert = report_module._sampling_certificate(e, e2, False, ells, 37, 5000)
    assert cert.primes_covered == (7, 11, 13, 17, 19, 23, 29, 31, 37)
    assert len(walks) == 2


def test_equal_j_pair_at_max_bound_within_budget():
    # 11a1 and its -1 twist have equal j: no non-isogeny witness exists, so
    # the scan ends at once; the congruence scans find a_p differing mod 5
    # and 7 early, and a rational 5-isogeny ends mod-5 sampling at the first
    # prime above X0_EXIT_PRIME
    spec = pair(E_11A1, {"weierstrass": [0, 0, 0, -13392, 1080432]},
                bound=MAX_BOUND, odd_primes=[5, 7])
    t0 = time.perf_counter()
    data = analyze(spec).to_dict()
    assert time.perf_counter() - t0 < 5.0
    assert validate_report(data) == []
    assert data["conclusion"] == "inconclusive"
    assert [(ev["ell"], ev["result"]) for ev in data["evidence"]] == [(5, "fail"), (7, "fail")]


def _shifted(a, b, s):
    """[a1..a6] of y^2 = (x+s)(x+s-a)(x+s-b), the rt2 curve (a, b) moved by s."""
    r0, r1, r2 = -s, a - s, b - s
    return [0, -(r0 + r1 + r2), 0, r0 * r1 + r0 * r2 + r1 * r2, -r0 * r1 * r2]


def _shiftable_prime(n, p):
    """The least prime q >= n with (q - p) / 2 prime."""
    q = _next_prime(n)
    while not is_prime((q - p) // 2):
        q = _next_prime(q + 1)
    return q


def test_shifted_model_with_10_digit_prime_factors_matches_rt2_form():
    # (a, b) = (p q1, p q2) shifted by p^2, as in the benchmark's big-coeff
    # pool but with 10-digit primes: the shifted cubic's roots are -p^2 and
    # 2 p m with m = (q - p) / 2 prime, so its constant term 4 p^4 m1 m2 has
    # only 10-digit prime factors
    p, p2 = _next_prime(2_000_000_000), _next_prime(3_000_000_000)
    q1, q2 = _shiftable_prime(5_000_000_000, p), _shiftable_prime(8_000_000_000, p)
    r1, r2 = _shiftable_prime(6_000_000_000, p2), _shiftable_prime(7_000_000_000, p2)
    (a, b), (a2, b2) = (p * q1, p * q2), (p2 * r1, p2 * r2)
    rt2 = pair({"rt2": {"a": a, "b": b}}, {"rt2": {"a": a2, "b": b2}}, bound=1000)
    shifted = pair({"weierstrass": _shifted(a, b, p * p)},
                   {"weierstrass": _shifted(a2, b2, p2 * p2)}, bound=1000)
    assert _summary(shifted) == _summary(rt2)
    # the curve against its own shifted model is recognised as one curve
    self_rt2 = pair({"rt2": {"a": a, "b": b}}, {"rt2": {"a": a, "b": b}}, bound=1000)
    self_shifted = pair({"rt2": {"a": a, "b": b}},
                        {"weierstrass": _shifted(a, b, p * p)}, bound=1000)
    assert _summary(self_shifted) == _summary(self_rt2)
    assert _summary(self_rt2)[1:4] == (1, 1, 0)

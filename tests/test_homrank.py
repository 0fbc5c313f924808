import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kummer_brauer import curves
from kummer_brauer.curves import (
    CurveLW,
    CurveRT2,
    WitnessVerificationError,
    j_invariant_rt2,
    same_curve,
)
from kummer_brauer.homrank import nonisogeny_certificate, rank_r

E_37 = CurveLW(0, 0, 1, -1, 0)
E_43 = CurveLW(0, 1, 1, 0, 0)
E_CM = CurveLW(0, 0, 0, -1, 0)
E_28 = CurveLW(0, -1, 0, -4, 4)  # roots {-2, 1, 2}


def double_loop_count(curve, p):
    def red(c):
        return c.numerator * pow(c.denominator, -1, p) % p

    a1, a2, a3, a4, a6 = (red(c) for c in
                          (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    n = 1
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y
                    - (x**3 + a2 * x * x + a4 * x + a6)) % p == 0:
                n += 1
    return n


def test_trace_square_mismatch_for_conductor_37_43_pair():
    ev = nonisogeny_certificate(E_37, E_43, 10)
    assert ev.kind == "trace-square-mismatch"
    assert ev.witness == 3
    # independent soundness check of the witness counts
    assert 3 + 1 - double_loop_count(E_37, 3) == -3
    assert 3 + 1 - double_loop_count(E_43, 3) == -2


def test_identical_curves_no_witness():
    assert nonisogeny_certificate(E_37, E_37, 50).kind == "same-curve"


def test_reduction_type_mismatch():
    # j of the (5,7) curve has val_5 = -2; the (1,2) curve is good at 5
    e = CurveRT2(5, 7).to_lw()
    e2 = CurveRT2(1, 2).to_lw()
    ev = nonisogeny_certificate(e, e2, 10)
    assert ev.kind == "reduction-type-mismatch"
    assert ev.witness == 5


def test_j_zero_has_no_reduction_type_witness():
    # y^2 = x^3 + 1 (j = 0) is bad at 2 and 3 while 11a1 is good at 2; j = 0
    # has no negative valuation, so the witness is a trace mismatch at 5
    e11 = CurveLW(0, -1, 1, -10, -20)
    for first, second in ((e11, CurveLW(0, 0, 0, 0, 1)), (CurveLW(0, 0, 0, 0, 1), e11)):
        ev = nonisogeny_certificate(first, second, 100)
        assert (ev.kind, ev.witness) == ("trace-square-mismatch", 5)


def test_cm_pair_trace_squares_not_trusted():
    # quartic twists of a CM curve can break the trace-sign argument,
    # so a pair of CM j-invariants never yields a trace-square witness
    e2 = CurveLW(0, 0, 0, -2, 0)  # quartic twist of y^2 = x^3 - x
    ev = nonisogeny_certificate(E_CM, e2, 100)
    assert ev.kind == "none-found"


def test_rank_certified_zero():
    v = rank_r(E_37, E_43, 10)
    assert v.r == 0 and v.confidence == "certified"
    assert v.gate.case == "not-isogenous" and v.gate.passes


def test_rank_same_curve_no_cm():
    v = rank_r(E_28, E_28, 10)
    assert v.r == 1 and v.confidence == "heuristic"
    assert v.gate.case == "same-curve-no-cm" and v.gate.passes


def test_rank_same_curve_cm_gate_withheld():
    v = rank_r(E_CM, E_CM, 10)
    assert v.r == 2 and v.confidence == "inconclusive"
    assert v.gate.case is None and not v.gate.passes


def test_rank_never_zero_for_equal_curves():
    for e in (E_37, E_CM, E_28):
        assert rank_r(e, e, 50).r != 0


def test_same_curve_detects_translates():
    # (1,-3) has roots {-3, 0, 1}; translated canonical form is (3, 4)
    assert same_curve(CurveRT2(1, -3).to_lw(), CurveRT2(3, 4).to_lw())
    assert not same_curve(E_37, E_43)


def change_model(e, u, r=0, s=0, t=0):
    """The model of e in the coordinates x = u^2 x' + r, y = u^3 y' + s u^2 x' + t
    (Silverman, The Arithmetic of Elliptic Curves, Table III.1.2)."""
    a1, a2, a3, a4, a6 = e.key()
    u = Fraction(u)
    return CurveLW(
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u**2,
        (a3 + r * a1 + 2 * t) / u**3,
        (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4,
        (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6,
    )


E_11 = CurveLW(0, -1, 1, -10, -20)
MODEL_PANEL = (E_37, E_43, E_28, E_11, CurveRT2(5, 7).to_lw(), E_CM,
               CurveLW(0, 0, 0, 0, 1), CurveLW(0, 0, 0, "-1/4", 1))


def test_same_curve_scaled_and_translated_models():
    for e in MODEL_PANEL:
        for u in (2, 3, Fraction(1, 2), -1):
            scaled = CurveLW(*(u**i * a for i, a in zip((1, 2, 3, 4, 6), e.key())))
            assert same_curve(e, scaled) and same_curve(scaled, e), (e, u)
        for u, r, s, t in ((1, 1, 0, 0), (1, -3, 2, 5), (5, Fraction(1, 3), -1, 7)):
            assert same_curve(e, change_model(e, u, r, s, t)), (e, u, r, s, t)


def test_same_curve_rejects_quadratic_twists():
    for e in (E_37, E_43, E_28, E_11, CurveRT2(5, 7).to_lw()):
        A, B = e.short_model
        assert same_curve(e, CurveLW(0, 0, 0, A, B))
        for d in (-1, 2, 3, -3, 5, 6):
            twist = CurveLW(0, 0, 0, A * d * d, B * d**3)
            assert twist.j() == e.j()
            assert not same_curve(e, twist), (e, d)


def test_same_curve_at_j_1728_and_j_0():
    # quartic and sextic twists share j; only fourth and sixth powers rescale
    x3_minus_x = CurveLW(0, 0, 0, -1, 0)
    assert not same_curve(x3_minus_x, CurveLW(0, 0, 0, -4, 0))
    assert same_curve(x3_minus_x, CurveLW(0, 0, 0, -16, 0))
    assert not same_curve(x3_minus_x, CurveLW(0, 0, 0, 1, 0))
    x3_plus_1 = CurveLW(0, 0, 0, 0, 1)
    assert not same_curve(x3_plus_1, CurveLW(0, 0, 0, 0, 8))
    assert same_curve(x3_plus_1, CurveLW(0, 0, 0, 0, 64))
    assert not same_curve(x3_plus_1, CurveLW(0, 0, 0, 0, -1))
    assert not same_curve(x3_plus_1, CurveLW(0, 0, 0, 0, 4))
    assert same_curve(x3_plus_1, CurveLW(0, 0, 0, 0, Fraction(1, 729)))


def test_random_distinct_pairs_never_misreported():
    rng = random.Random(211)
    seen = 0
    while seen < 20:
        a, b = rng.randint(-15, 15), rng.randint(-15, 15)
        c, d = rng.randint(-15, 15), rng.randint(-15, 15)
        if not (a and b and a != b and c and d and c != d):
            continue
        e1, e2 = CurveRT2(a, b), CurveRT2(c, d)
        if j_invariant_rt2(e1) == j_invariant_rt2(e2):
            continue
        seen += 1
        v = rank_r(e1.to_lw(), e2.to_lw(), 60)
        assert (v.r == 0 and v.confidence == "certified") or v.confidence == "inconclusive"
        assert v.gate.case != "same-curve-no-cm"


def test_determinism_smallest_witness():
    for _ in range(3):
        assert nonisogeny_certificate(E_37, E_43, 50).witness == 3


def poisoned_certificate_outcome():
    """Fake a trace-square mismatch at p = 2 (a_2 = -2 for both curves) by
    poisoning the a_p memo of a fresh 37a1 object, and report what the
    certificate does."""
    poisoned = CurveLW(0, 0, 1, -1, 0)
    poisoned._ap[2] = 0
    try:
        ev = nonisogeny_certificate(poisoned, E_43, 10)
    except WitnessVerificationError:
        return "raised"
    return f"certified {ev.kind} at {ev.witness}"


def test_equal_models_share_no_a_p():
    poisoned, clean = CurveLW(0, 0, 1, -1, 0), CurveLW(0, 0, 1, -1, 0)
    assert poisoned == clean and hash(poisoned) == hash(clean) and poisoned is not clean
    poisoned._ap[2] = 0
    ev = nonisogeny_certificate(clean, E_43, 10)
    assert (ev.kind, ev.witness) == ("trace-square-mismatch", 3)
    assert clean._ap[2] == -2 and poisoned._ap[2] == 0


def test_poisoned_trace_is_not_certified():
    assert poisoned_certificate_outcome() == "raised"


def test_a_wrong_hasse_trace_is_not_certified(monkeypatch):
    # 11a1 and 11a3 are isogenous, so their traces agree at every good p;
    # a Hasse trace off by one for 11a1 alone gives a_17 a false mismatch,
    # which the exhaustive recount catches before anything is certified
    e, e2 = CurveLW(0, -1, 1, -10, -20), CurveLW(0, -1, 1, 0, 0)
    real = curves.hasse_trace
    monkeypatch.setattr(curves, "hasse_trace", lambda c, p: real(c, p) + (c is e))
    with pytest.raises(WitnessVerificationError, match="a_17 of"):
        nonisogeny_certificate(e, e2, 1000)
    e._ap.clear()
    monkeypatch.setattr(curves, "hasse_trace", real)
    assert nonisogeny_certificate(e, e2, 1000).kind == "isogenous"


def test_poisoned_trace_is_not_certified_under_python_O():
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("import test_homrank as t; "
            "print(__debug__, t.poisoned_certificate_outcome())")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "raised"]

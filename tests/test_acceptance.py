"""End-to-end acceptance checks for the pipeline, one numbered test per
criterion, each printing a pass/fail line (run with -s to see them live).

Criterion 12 regenerates the five committed reference reports byte-for-byte;
the reference surfaces are the base family pair, the two self-products with
fully rational 2-torsion, the conductor-37/43 pair, and the sextic CM pair.
"""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

from kummer_brauer.arith import valuation
from kummer_brauer.curves import (
    CurveLW,
    CurveRT2,
    count_points,
    frobenius_table,
    good_reduction_at,
)
from kummer_brauer.gl2 import validate_surjectivity_criterion
from kummer_brauer.homrank import nonisogeny_certificate
from kummer_brauer.oddpart import (
    check_57_family,
    mod_ell_surjectivity,
    no_rational_ell_isogeny,
)
from kummer_brauer.report import analyze, parse_pair_spec, render_report, search_family
from kummer_brauer.residues import (
    extend_residue_matrix,
    kernel_dimension,
    residue_matrix,
)
from kummer_brauer.curves import j_invariant_rt2, j_invariant_sw

GOLDEN_DIR = Path(__file__).parent / "golden"
ODD_PRIMES_TO_37 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _report(n, text):
    print(f"acceptance {n:2d}: {text} -- PASS")


def _rand_pair(rng, lo=-30, hi=30):
    while True:
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        a2, b2 = rng.randint(lo, hi), rng.randint(lo, hi)
        if a and b and a != b and a2 and b2 and a2 != b2:
            return a, b, a2, b2


def test_01_base_family_pair():
    t0 = time.time()
    spec = parse_pair_spec({"first": {"rt2": {"a": 5, "b": 7}},
                            "second": {"rt2": {"a": 1, "b": 2}}})
    d = analyze(spec).to_dict()
    elapsed = time.time() - t0
    assert d["d"] == 0
    assert d["r"] == 0 and d["r_confidence"] == "certified"
    assert d["dim2"] == 0
    assert any(c["kind"] == "j-valuation" for c in d["certificates"])
    assert d["conclusion"] == "trivial"
    assert elapsed < 1.0
    _report(1, f"base family pair: d=0, r=0 certified, trivial ({elapsed:.2f}s)")


def test_02_self_products_with_rational_two_torsion():
    for coeffs in ([0, -1, 0, -4, 4], [0, 0, 0, -7, -6]):
        spec = parse_pair_spec({"first": {"weierstrass": coeffs},
                                "second": {"weierstrass": coeffs}})
        d = analyze(spec).to_dict()
        assert d["d"] == 1
        assert d["r"] == 1 and d["r_confidence"] == "heuristic"
        assert d["dim2"] == 0
        assert d["conclusion"] == "trivial"
        assert d["caveats"]
    _report(2, "both rank-one self-products: d=1, r=1 heuristic, trivial with caveats")


def test_03_residue_matrix_values_and_symmetry():
    m = residue_matrix(5, 7, 1, 2)
    assert m.representative_rows() == [
        [1, 35, 2, -5],
        [35, 1, 5, -1],
        [2, 5, 1, -10],
        [-5, -1, -10, 1],
    ]
    rng = random.Random(1003)
    for _ in range(200):
        mm = residue_matrix(*_rand_pair(rng))
        for i in range(4):
            assert mm.entries[i][i].is_identity
            for j in range(4):
                assert mm.entries[i][j] == mm.entries[j][i]
    _report(3, "residue matrix instantiation exact; diagonal/symmetry on 200 pairs")


def test_04_nine_line_product_rule():
    from kummer_brauer.arith import SquareClass, sc_mul
    order = [("0", "0"), ("0", "a'"), ("a", "0"), ("a", "a'"),
             ("0", "b'"), ("a", "b'"), ("b", "0"), ("b", "a'"), ("b", "b'")]
    idx = {ij: k for k, ij in enumerate(order)}
    rng = random.Random(1004)
    for _ in range(200):
        m = residue_matrix(*_rand_pair(rng))
        e = extend_residue_matrix(m)
        for row in e.entries:
            for i in ("0", "a", "b"):
                acc = SquareClass.identity()
                for j in ("0", "a'", "b'"):
                    acc = sc_mul(acc, row[idx[(i, j)]])
                assert acc.is_identity
            for j in ("0", "a'", "b'"):
                acc = SquareClass.identity()
                for i in ("0", "a", "b"):
                    acc = sc_mul(acc, row[idx[(i, j)]])
                assert acc.is_identity
        assert kernel_dimension(m)[0] == kernel_dimension(e)[0]
    _report(4, "all 24 fixed-index triple products trivial; d agrees on 4 and 9 columns")


def test_05_translation_invariance():
    rng = random.Random(1005)

    def labelings(roots):
        out = []
        for k in range(3):
            rest = [roots[i] for i in range(3) if i != k]
            for perm in itertools.permutations(rest):
                out.append((perm[0] - roots[k], perm[1] - roots[k]))
        return out

    for _ in range(50):
        a, b, a2, b2 = _rand_pair(rng)
        ds = {kernel_dimension(residue_matrix(aa, bb, cc, dd))[0]
              for aa, bb in labelings([0, a, b])
              for cc, dd in labelings([0, a2, b2])}
        assert len(ds) == 1
    _report(5, "d constant over all 36 root labelings on 50 pairs")


def test_06_point_counting():
    e_i = CurveLW(0, 0, 0, -1, 0)
    e_37 = CurveLW(0, 0, 1, -1, 0)
    e_43 = CurveLW(0, 1, 1, 0, 0)
    assert 5 + 1 - count_points(e_i, 5) == -2
    assert 7 + 1 - count_points(e_i, 7) == 0
    assert 3 + 1 - count_points(e_37, 3) == -3
    assert 3 + 1 - count_points(e_43, 3) == -2

    def double_loop(curve, p):
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

    for c in (e_i, e_37, e_43):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if c.is_p_integral(p) and good_reduction_at(c, p):
                assert count_points(c, p) == double_loop(c, p)

    rng = random.Random(1006)
    checked = 0
    while checked < 50:
        try:
            c = CurveLW(rng.randint(0, 1), rng.randint(-5, 5), rng.randint(0, 1),
                        rng.randint(-20, 20), rng.randint(-20, 20))
        except ValueError:
            continue
        checked += 1
        for p, t in frobenius_table(c, 200).entries:
            assert t * t <= 4 * p
    _report(6, "trace values exact, double-loop oracle agrees, Hasse bound on 50 curves")


def test_07_nonisogeny_witness():
    ev = nonisogeny_certificate(CurveLW(0, 0, 1, -1, 0), CurveLW(0, 1, 1, 0, 0), 10)
    assert ev.kind == "trace-square-mismatch" and ev.witness == 3
    _report(7, "conductor-37/43 pair: trace-square mismatch at p = 3")


def test_08_surjectivity_criterion_soundness():
    t0 = time.time()
    for ell in (3, 5):
        result = validate_surjectivity_criterion(ell)
        assert result.passed
        assert result.offending_proper_subgroups == ()
    for coeffs in ((0, 0, 0, -1, 0), (0, 0, 0, 0, -1)):
        e = CurveLW(*coeffs)
        for ell in (3, 5, 7, 11, 13):
            assert mod_ell_surjectivity(e, ell, 10_000).verdict == "inconclusive"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(8, f"subgroup oracle passes at 3 and 5; CM curves inconclusive ({elapsed:.1f}s)")


def test_09_cm_isogeny_exclusion_coverage():
    e_i = CurveLW(0, 0, 0, -1, 0)
    e_w = CurveLW(0, 0, 0, 0, -1)
    for ell in ODD_PRIMES_TO_37:
        assert no_rational_ell_isogeny(e_i, ell, 200) is not None
    assert no_rational_ell_isogeny(e_w, 3, 200) is None
    for ell in ODD_PRIMES_TO_37[1:]:
        assert no_rational_ell_isogeny(e_w, ell, 200) is not None
    _report(9, "isogeny-exclusion witnesses: all odd ell <= 37 for one CM curve, "
               "all 5 <= ell <= 37 but not 3 for the other")


def test_10_j_invariant_formulas():
    assert j_invariant_sw(6, -2) == 1536
    assert j_invariant_rt2(CurveRT2(1, 2)) == 1728
    rng = random.Random(1010)
    checked = 0
    while checked < 100:
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        if not (a and b and a != b):
            continue
        checked += 1
        af, bf = Fraction(a), Fraction(b)
        s = (af + bf) / 3
        p = af * bf - (af + bf) ** 2 / 3
        q = s**3 - (af + bf) * s * s + af * bf * s
        assert j_invariant_sw(p, q) == j_invariant_rt2(CurveRT2(a, b))
    _report(10, "j formulas exact and consistent on 100 curves")


def test_11_family_generator():
    pairs = search_family(500, 0)
    assert len(pairs) == 500
    for spec in pairs:
        a, b = spec.first.rt2_raw
        assert check_57_family(a, b) == []
        j = j_invariant_rt2(CurveRT2(a, b))
        assert valuation(j, 5) == -2 and valuation(j, 7) == -2
        assert analyze(spec).conclusion == "trivial"
    _report(11, "500 generated family pairs valid, correct valuations, all trivial")


GOLDEN_SPECS = {
    "golden_sextic_pair.json": {
        "first": {"weierstrass": [0, 0, 0, 6, -2]},
        "second": {"weierstrass": [0, 0, 0, 0, 1], "six_torsion": [2, 3]},
    },
    "golden_conductor_37_43.json": {
        "first": {"weierstrass": [0, 0, 1, -1, 0]},
        "second": {"weierstrass": [0, 1, 1, 0, 0]},
    },
    "golden_big_image_square.json": {
        "first": {"weierstrass": [0, 0, 0, 6, -2]},
        "second": {"weierstrass": [0, 0, 0, 6, -2]},
    },
    "golden_rt2_3_4_square.json": {
        "first": {"weierstrass": [0, -1, 0, -4, 4]},
        "second": {"weierstrass": [0, -1, 0, -4, 4]},
    },
    "golden_rt2_1_5_square.json": {
        "first": {"weierstrass": [0, 0, 0, -7, -6]},
        "second": {"weierstrass": [0, 0, 0, -7, -6]},
    },
}


def test_12_golden_reports_regenerate():
    for name, raw in GOLDEN_SPECS.items():
        expected = (GOLDEN_DIR / name).read_bytes()
        out = render_report(analyze(parse_pair_spec(raw)), "json").encode()
        assert out == expected, f"report for {name} drifted"
    _report(12, "five reference reports regenerate byte-identically")

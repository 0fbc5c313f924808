import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from kummer_brauer.arith import is_rational_square, primes_up_to
from kummer_brauer.curves import (
    CurveLW,
    CurveRT2,
    ap,
    good_primes,
    is_good_prime,
)
from kummer_brauer.oddpart import (
    CertificateFailure,
    OddCertificate,
    check_57_family,
    cm_isogeny_exclusion_certificate,
    congruence_evidence,
    j_valuation_certificate,
    mod_ell_surjectivity,
    no_rational_ell_isogeny,
    six_torsion_cm_certificate,
)
from test_curves import rational_roots_monic_cubic

E_37 = CurveLW(0, 0, 1, -1, 0)
E_43 = CurveLW(0, 1, 1, 0, 0)
E_A1 = CurveLW(0, 0, 0, 6, -2)
E_CM_I = CurveLW(0, 0, 0, -1, 0)  # j = 1728
E_CM_W = CurveLW(0, 0, 0, 0, -1)  # j = 0
E_SEXTIC = CurveLW(0, 0, 0, 0, 1)  # y^2 = x^3 + 1
ODD_PRIMES_TO_37 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# -- surjectivity --------------------------------------------------------------


def test_mod2_exact():
    assert mod_ell_surjectivity(E_37, 2, 0).verdict == "surjective"
    assert mod_ell_surjectivity(E_A1, 2, 0).verdict == "surjective"
    # fully rational 2-torsion: reducible cubic, image is a proper subgroup
    assert mod_ell_surjectivity(CurveRT2(5, 7).to_lw(), 2, 0).verdict == "inconclusive"


def mod2_by_b_invariants(curve):
    """The oracle for the mod-2 verdict: the 2-division cubic
    y^3 + b2 y^2 + 8 b4 y + 16 b6 (y = 4x) built from the b-invariants, with
    its rational roots and its discriminant.  Returns the case and, when the
    image is S3, the witness text."""
    b2, b4, b6, _ = curve.b_invariants()
    p, q, r = b2, 8 * b4, 16 * b6
    if rational_roots_monic_cubic(p, q, r):
        return "rational root", None
    disc = 18 * p * q * r - 4 * p**3 * r + p * p * q * q - 4 * q**3 - 27 * r * r
    if is_rational_square(disc):
        return "square discriminant", None
    return "surjective", ("2-division cubic irreducible with non-square "
                          f"discriminant (class of {disc})")


def test_mod2_verdict_equals_the_b_invariant_cubic():
    rng = random.Random(20)
    # Shanks' simplest cubics x^3 - n x^2 - (n + 3) x - 1 have square
    # discriminant (n^2 + 3n + 9)^2; (x - s)(x^2 + t x + u) has a rational root
    panel = [CurveLW(0, -n, 0, -n - 3, -1) for n in range(12)]
    while len(panel) < 400:
        c = [Fraction(rng.randint(-40, 40), rng.choice((1, 1, 1, 2, 3, 6)))
             for _ in range(5)]
        if len(panel) % 4 == 0:
            s, t, u = c[2:]
            c = [0, t - s, 0, u - s * t, -s * u]
        try:
            panel.append(CurveLW(*c))
        except ValueError:  # singular
            continue
    cases = []
    for e in panel:
        case, text = mod2_by_b_invariants(e)
        v = mod_ell_surjectivity(e, 2, 0)
        assert (v.verdict == "surjective") == (case == "surjective"), e.key()
        if text is not None:
            assert v.witnesses == (("exact", text),), e.key()
        else:
            assert case in v.witnesses[0][1], e.key()
        cases.append(case)
    assert min(cases.count(k) for k in
               ("rational root", "square discriminant", "surjective")) >= 12


def test_sampling_verdicts():
    assert mod_ell_surjectivity(E_37, 5, 1000).verdict == "surjective"
    assert mod_ell_surjectivity(E_A1, 5, 1000).verdict == "surjective"
    assert mod_ell_surjectivity(E_A1, 7, 1000).verdict == "surjective"


def test_mod3_never_certifiable():
    # no trace/determinant sample distinguishes the full group mod 3 from a
    # semidihedral subgroup, so mod-3 verdicts are always inconclusive
    v = mod_ell_surjectivity(E_A1, 3, 1000)
    assert v.verdict == "inconclusive"
    assert v.witnesses[0][0] == "unsatisfiable"


def test_surjectivity_classifies_each_sampled_prime_once(monkeypatch):
    """No set-up walk over F_ell x F_ell^*: the witness predicate runs once
    for each prime whose a_p is sampled, and never at ell = 3."""
    import kummer_brauer.oddpart as oddpart
    from kummer_brauer.gl2 import WitnessPredicate
    classified, sampled = [], []
    classify, read_ap = WitnessPredicate.__call__, oddpart.ap

    def spy_classify(self, t, d):
        classified.append((t, d))
        return classify(self, t, d)

    def spy_ap(curve, p):
        sampled.append(p)
        return read_ap(curve, p)

    monkeypatch.setattr(WitnessPredicate, "__call__", spy_classify)
    monkeypatch.setattr(oddpart, "ap", spy_ap)
    for e in (E_37, E_A1, E_CM_I):
        for ell in ODD_PRIMES_TO_37:
            classified.clear()
            sampled.clear()
            mod_ell_surjectivity(e, ell, 1000)
            assert len(classified) == len(sampled), (e, ell)
            assert (len(sampled) == 0) == (ell == 3), (e, ell)


def test_cm_curves_always_inconclusive():
    for e in (E_CM_I, E_CM_W):
        for ell in (3, 5, 7, 11, 13):
            assert mod_ell_surjectivity(e, ell, 1000).verdict == "inconclusive"


def test_verdicts_are_one_sided():
    for e in (E_37, E_CM_I, CurveRT2(5, 7).to_lw()):
        for ell in (2, 3, 5):
            assert mod_ell_surjectivity(e, ell, 200).verdict in (
                "surjective", "inconclusive")


# -- valuation certificates ----------------------------------------------------


def test_j_valuation_pair_certificate():
    cert = j_valuation_certificate(CurveRT2(5, 7).to_lw(), CurveRT2(1, 2).to_lw())
    assert isinstance(cert, OddCertificate)
    assert cert.kind == "j-valuation" and cert.primes_covered == "all-odd"
    assert ("val_5(j)", "-2") in cert.witnesses


def test_j_valuation_failure_unit_j():
    res = j_valuation_certificate(CurveRT2(1, 2).to_lw(), CurveRT2(5, 7).to_lw())
    assert isinstance(res, CertificateFailure)
    assert "val_5" in res.reason


def test_j_valuation_derived_pair():
    cert = j_valuation_certificate(CurveRT2(40, 7).to_lw(), CurveRT2(36, 37).to_lw())
    assert isinstance(cert, OddCertificate)


def test_j_valuation_partner_conditions():
    # partner with bad reduction at 5 is rejected (its own disc is divisible by 5)
    res = j_valuation_certificate(CurveRT2(5, 7).to_lw(), CurveRT2(5, 2).to_lw())
    assert isinstance(res, CertificateFailure)
    # partner without fully rational 2-torsion is rejected
    res = j_valuation_certificate(CurveRT2(5, 7).to_lw(), E_A1)
    assert isinstance(res, CertificateFailure)


def test_j_valuation_same_curve_variant():
    e = CurveRT2(5, 7).to_lw()
    cert = j_valuation_certificate(e, e)
    assert isinstance(cert, OddCertificate)
    assert "same-curve" in cert.detail


# -- the 5/7 family ------------------------------------------------------------


def test_family_examples():
    assert check_57_family(5, 7) == []
    assert any("25" in v for v in check_57_family(25, 7))
    # a - b = -7 carries the 7-divisibility, so this pair is valid
    assert check_57_family(5, 12) == []


def test_family_implies_valuations():
    from kummer_brauer.arith import valuation
    import random
    rng = random.Random(303)
    checked = 0
    while checked < 50:
        a = 5 + 35 * rng.randint(0, 30)
        b = 7 + 35 * rng.randint(0, 30)
        if check_57_family(a, b):
            continue
        j = CurveRT2(a, b).j()
        assert valuation(j, 5) == -2 and valuation(j, 7) == -2
        checked += 1


# -- six-torsion CM pair ---------------------------------------------------------


def test_six_torsion_certificate():
    cert = six_torsion_cm_certificate(
        E_A1, E_SEXTIC, (Fraction(2), Fraction(3)), 13, 10_000)
    assert isinstance(cert, OddCertificate)
    assert cert.kind == "six-torsion-cm-pair" and cert.primes_covered == "all"
    assert any("ell <= 13" in c for c in cert.caveats)


def test_six_torsion_certificate_samples_only_the_ells_it_reads(monkeypatch):
    # ell = 3 is skipped as undecidable, so its verdict is never computed
    from kummer_brauer import oddpart
    calls = []
    real = oddpart.mod_ell_surjectivity
    monkeypatch.setattr(oddpart, "mod_ell_surjectivity",
                        lambda curve, ell, bound: calls.append(ell) or real(curve, ell, bound))
    cert = six_torsion_cm_certificate(
        E_A1, E_SEXTIC, (Fraction(2), Fraction(3)), 37, 10_000)
    assert isinstance(cert, OddCertificate)
    assert calls == [ell for ell in primes_up_to(37) if ell != 3]


def test_analysis_builds_no_witness_sets(monkeypatch):
    # sampling classifies each (t, d) with WitnessPredicate; the exhaustive
    # witness sets are built for the criterion oracle only
    from kummer_brauer import gl2, oddpart
    from kummer_brauer.report import analyze, parse_pair_spec, render_report

    def no_sets(ell):
        raise AssertionError(f"witness_classes({ell}) built during an analysis")

    monkeypatch.setattr(gl2, "witness_classes", no_sets)
    monkeypatch.setattr(oddpart, "witness_classes", no_sets, raising=False)
    goldens = sorted((Path(__file__).parent / "golden").glob("golden_*.json"))
    assert len(goldens) == 5
    for path in goldens:
        spec = parse_pair_spec(json.loads(path.read_text(encoding="utf-8"))["input"])
        assert render_report(analyze(spec), "json").encode() == path.read_bytes(), path.name


def test_six_torsion_wrong_order():
    res = six_torsion_cm_certificate(
        E_A1, E_SEXTIC, (Fraction(0), Fraction(1)), 13, 100)
    assert isinstance(res, CertificateFailure)
    assert "order 3" in res.reason


def test_six_torsion_partner_not_cm():
    # (0,0) has exact order 6 on this Tate-normal-form curve, but the curve
    # is not CM, so the certificate is refused on the CM condition
    partner = CurveLW(-1, -6, -6, 0, 0)
    res = six_torsion_cm_certificate(
        E_A1, partner, (Fraction(0), Fraction(0)), 13, 100)
    assert isinstance(res, CertificateFailure)
    assert "not CM" in res.reason


def test_six_torsion_point_off_curve():
    with pytest.raises(ValueError):
        six_torsion_cm_certificate(E_A1, E_SEXTIC, (Fraction(1), Fraction(1)), 13, 100)


# -- rational isogeny exclusion --------------------------------------------------


def test_isogeny_witnesses():
    assert no_rational_ell_isogeny(E_CM_I, 3, 50) == 5
    assert no_rational_ell_isogeny(E_CM_I, 7, 50) == 5
    # a curve with a rational 3-isogeny never yields a witness
    assert no_rational_ell_isogeny(E_CM_W, 3, 200) is None


def test_isogeny_witness_needs_an_odd_prime_ell():
    # irreducibility mod a composite ell proves nothing: on 11a1 at ell = 9
    # and 15 the scan would return p = 2
    e_11a1 = CurveLW(0, -1, 1, -10, -20)
    for ell in (-3, 0, 1, 2, 9, 15, 25):
        with pytest.raises(ValueError):
            no_rational_ell_isogeny(e_11a1, ell, 200)
    assert no_rational_ell_isogeny(e_11a1, 3, 200) == 2


def test_isogeny_witness_reverified():
    for ell in (3, 7, 11):
        p = no_rational_ell_isogeny(E_CM_I, ell, 200)
        assert p is not None
        disc = (ap(E_CM_I, p) ** 2 - 4 * p) % ell
        squares = {x * x % ell for x in range(ell)}
        assert disc not in squares


def test_cm_exclusion_certificates():
    c1 = cm_isogeny_exclusion_certificate(E_CM_I, list(ODD_PRIMES_TO_37), 200)
    assert c1.primes_covered == ODD_PRIMES_TO_37
    c2 = cm_isogeny_exclusion_certificate(E_CM_W, list(ODD_PRIMES_TO_37), 200)
    assert c2.primes_covered == tuple(l for l in ODD_PRIMES_TO_37 if l != 3)
    assert any("ell = 3" in c for c in c2.caveats)
    with pytest.raises(ValueError):
        cm_isogeny_exclusion_certificate(E_A1, [3], 200)


# -- congruence evidence ---------------------------------------------------------


def test_congruence_self_passes():
    assert congruence_evidence(E_37, E_37, 7, 100) is None


def test_congruence_fails_mod_2():
    assert congruence_evidence(E_37, E_43, 2, 10) == 3


def test_congruence_quadratic_twist_mod_2():
    # a curve and its quadratic twist by -1 have traces agreeing up to sign,
    # hence congruent mod 2 at every common good prime
    e = CurveLW(0, 0, 0, -16, 16)
    twist = CurveLW(0, 0, 0, -16, -16)  # (A, B) -> (A d^2, B d^3) with d = -1
    assert congruence_evidence(e, twist, 2, 50) is None


def test_congruence_honors_shared_good_primes():
    # primes bad for either curve are skipped entirely
    e = CurveRT2(5, 7).to_lw()
    e2 = CurveRT2(1, 2).to_lw()
    for p in good_primes((e, e2), 50, skip=2):
        assert is_good_prime(e, p) and is_good_prime(e2, p)
    assert congruence_evidence(e, e2, 2, 50) in (None, *range(3, 50))


def test_congruence_evidence_never_returns_ell():
    # the first trace mismatch of each of these pairs is at p = ell itself,
    # where the mod-ell representation is ramified: it must be skipped
    e_53 = CurveLW(1, -1, 1, 0, 0)
    e_11 = CurveLW(0, -1, 1, -10, -20)
    cases = 0
    for e, e2 in ((E_37, E_43), (E_37, e_53), (e_11, E_43), (E_37, E_A1), (E_43, e_53)):
        for ell in primes_up_to(13):
            common = [p for p in primes_up_to(200)
                      if is_good_prime(e, p) and is_good_prime(e2, p)]
            mismatches = [p for p in common if (ap(e, p) - ap(e2, p)) % ell]
            cases += bool(mismatches) and mismatches[0] == ell
            expected = next((p for p in mismatches if p != ell), None)
            assert congruence_evidence(e, e2, ell, 200) == expected, (e, e2, ell)
    assert cases >= 5


def test_j_valuation_same_curve_variant_for_rescaled_partner():
    # x(x-20)(x-28) is x(x-5)(x-7) rescaled by u = 2: the same curve, so the
    # partner's bad reduction at 5 and 7 does not matter
    e = CurveRT2(5, 7).to_lw()
    cert = j_valuation_certificate(e, CurveRT2(20, 28).to_lw())
    assert isinstance(cert, OddCertificate)
    assert cert == j_valuation_certificate(e, e)

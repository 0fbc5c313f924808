"""Isogenies over x-rational kernels, and the three scans they shorten.

The reference scans below are the full loops that the isogeny shortcuts
replace: every shortcut must give the result the loop gives."""

import random
from fractions import Fraction

import pytest

from kummer_brauer import homrank, oddpart, report
from kummer_brauer.arith import primes_up_to, valuation
from kummer_brauer.curves import (
    CM_J_INVARIANTS,
    CurveLW,
    _ec_mul,
    add_points,
    ap,
    count_points_exhaustive,
    good_primes,
    is_good_prime,
    point_order,
)
from kummer_brauer.gl2 import witness_classes
from kummer_brauer.homrank import (
    CLASS_SIZE_MAX,
    _isogeny_walk,
    isogenous,
    nonisogeny_certificate,
    same_curve,
)
from kummer_brauer.isogeny import (
    division_polynomials,
    isogenies,
    kernels,
    rational_roots,
    short_model,
    velu_codomain,
)
from kummer_brauer.oddpart import mod_ell_surjectivity

# Cremona's isogeny classes 11a, 14a, 15a and 37b, in label order
CLASSES = {
    "11a": [[0, -1, 1, -10, -20], [0, -1, 1, -7820, -263580], [0, -1, 1, 0, 0]],
    "14a": [[1, 0, 1, 4, -6], [1, 0, 1, -36, -70], [1, 0, 1, -171, -874],
            [1, 0, 1, -1, 0], [1, 0, 1, -2731, -55146], [1, 0, 1, -11, 12]],
    "15a": [[1, 1, 1, -10, -10], [1, 1, 1, -135, -660], [1, 1, 1, -5, 2],
            [1, 1, 1, 35, -28], [1, 1, 1, -2160, -39540], [1, 1, 1, -110, -880],
            [1, 1, 1, -80, 242], [1, 1, 1, 0, 0]],
    "37b": [[0, 1, 1, -23, -50], [0, 1, 1, -1873, -31833], [0, 1, 1, -3, 1]],
}
CURVES = {f"{cls}{i + 1}": CurveLW(*c)
          for cls, cs in CLASSES.items() for i, c in enumerate(cs)}
E_37A1 = CurveLW(0, 0, 1, -1, 0)
E_26B1 = CurveLW(1, -1, 1, -3, 3)  # rational 7-torsion point (1, 0)
E_CM = CurveLW(0, 0, 0, -1, 0)
E_CM_QUARTIC = CurveLW(0, 0, 0, -2, 0)  # quartic twist of y^2 = x^3 - x


def twist(e: CurveLW, d: int) -> CurveLW:
    """The quadratic twist of e by d, as a short model."""
    A, B = short_model(e)
    return CurveLW(0, 0, 0, A * d * d, B * d**3)


def to_short(e: CurveLW, P):
    """P on e in the coordinates of short_model(e) (integral input):
    X = 36x + 3 b2, Y = 108 (2y + a1 x + a3)."""
    x, y = P
    return 36 * x + 3 * e.b_invariants()[0], 108 * (2 * y + e.a1 * x + e.a3)


# -- reference scans: the full loops the shortcuts replace ----------------------


def reference_nonisogeny(e, e2, bound):
    je, je2 = e.j(), e2.j()
    traces_usable = not (je in CM_J_INVARIANTS and je2 in CM_J_INVARIANTS)
    for p in primes_up_to(bound):
        ok1, ok2 = is_good_prime(e, p), is_good_prime(e2, p)
        if traces_usable and ok1 and ok2:
            t1, t2 = ap(e, p), ap(e2, p)
            if t1 * t1 != t2 * t2:
                return homrank.IsogenyEvidence(
                    "trace-square-mismatch", p,
                    f"a_{p} = {t1} vs {t2}; {t1*t1} != {t2*t2}")
        if ok2 and je.denominator % p == 0:
            return homrank.IsogenyEvidence(
                "reduction-type-mismatch", p,
                f"val_{p}(j(E)) = {valuation(je, p)} < 0 but E' has good reduction at {p}")
        if ok1 and je2.denominator % p == 0:
            return homrank.IsogenyEvidence(
                "reduction-type-mismatch", p,
                f"val_{p}(j(E')) = {valuation(je2, p)} < 0 but E has good reduction at {p}")
    return homrank.IsogenyEvidence("none-found", None, f"no witness among p <= {bound}")


def reference_surjectivity(curve, ell, bound):
    """The verdict of the sampling loop at an ell with three nonempty
    witness classes."""
    w1, w2, w3 = witness_classes(ell)
    found = set()
    for p in good_primes(curve, bound):
        if p == ell:
            continue
        td = (ap(curve, p) % ell, p % ell)
        found |= {n for n, w in (("nonsplit", w1), ("split", w2), ("generic", w3)) if td in w}
        if len(found) == 3:
            return "surjective"
    return "inconclusive"


def reference_congruence(e, e2, ell, bound):
    for p in good_primes(e, bound):
        if p != ell and is_good_prime(e2, p) and (ap(e, p) - ap(e2, p)) % ell:
            return p
    return None


# -- division polynomials and rational roots --------------------------------------


def test_division_polynomials_vanish_exactly_on_ell_torsion_mod_p():
    # independent of the recursion: at x with f(x) a nonzero square mod p,
    # psi_ell(x) = 0 mod p exactly when ell (x, y) = O by the group law
    torsion_seen = 0
    for e in (CURVES["11a1"], CURVES["14a1"], E_37A1, E_26B1):
        A, B = short_model(e)
        psi = division_polynomials(A, B)
        assert [(len(psi[ell]), psi[ell][-1]) for ell in (3, 5, 7)] == [(5, 3), (13, 5), (25, 7)]
        for p in (101, 103, 107):
            if (4 * A**3 + 27 * B * B) % p == 0:
                continue
            for x in range(p):
                fx = (x**3 + A * x + B) % p
                if fx == 0 or pow(fx, (p - 1) // 2, p) != 1:
                    continue
                y = next(y for y in range(p) if y * y % p == fx)
                for ell in (3, 5, 7):
                    vanishes = sum(c * x**i for i, c in enumerate(psi[ell])) % p == 0
                    assert vanishes == (_ec_mul(ell, (x, y), A % p, p) is None), (e, p, x, ell)
                    torsion_seen += vanishes
    assert torsion_seen > 10


def test_rational_roots_of_products_of_linear_factors():
    rng = random.Random(7)
    for _ in range(60):
        roots = {Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 30))
                 for _ in range(rng.randint(0, 4))}
        f = [rng.choice((-1, 1)) * rng.randint(1, 5)]
        for r in roots:  # times (den x - num)
            f = _poly_mul(f, [-r.numerator, r.denominator])
        for extra in ([1, 0, 1], [-2, 0, 1], [3, 1, 0, 1]):  # no rational roots
            if rng.random() < 0.5:
                f = _poly_mul(f, extra)
        assert sorted(rational_roots(f, 1)) == sorted(roots), (f, roots)


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


# -- kernels, Velu and the walk ---------------------------------------------------


def test_kernels_match_the_group_law():
    # 11a3 has the rational 5-torsion point (0, 0) and 26b1 the rational
    # 7-torsion point (1, 0): the x(kP) by the chord-tangent law on the
    # original model, moved to the short model, form one of the kernels
    for e, P, ell in ((CURVES["11a3"], (0, 0), 5), (E_26B1, (1, 0), 7),
                      (CURVES["37b3"], None, 3)):
        A, B = short_model(e)
        found = kernels(A, B, ell)
        assert found, e
        if P is None:
            continue
        P = (Fraction(P[0]), Fraction(P[1]))
        assert point_order(e, P) == ell
        multiples, Q = [], P
        for _ in range((ell - 1) // 2):
            multiples.append(to_short(e, Q)[0])
            Q = add_points(e, Q, P)
        assert set(multiples) in [set(xs) for xs in found]


def test_velu_sends_11a3_to_11a1_and_11a1_to_11a2():
    for src, dst in (("11a3", "11a1"), ("11a1", "11a2")):
        A, B = short_model(CURVES[src])
        (xs,) = kernels(A, B, 5)
        assert same_curve(CurveLW(0, 0, 0, *velu_codomain(A, B, 5, xs)), CURVES[dst])


def test_walk_sizes_by_class():
    # 2- and 3-kernels are always x-rational; the 5-isogenies of 11a have a
    # kernel Z/5 one way and mu_5 the other, so only 11a3 sees its class
    sizes = {"11a": [2, 1, 3], "14a": [6] * 6, "15a": [8] * 8, "37b": [3] * 3}
    for cls, cs in CLASSES.items():
        for i, c in enumerate(cs):
            walk = list(_isogeny_walk(CurveLW(*c)))
            assert len(walk) == sizes[cls][i], (cls, i)
            assert len(walk) <= CLASS_SIZE_MAX
            for model in walk:  # every curve reached is in the class
                assert any(same_curve(model, CURVES[f"{cls}{k + 1}"])
                           for k in range(len(cs)))
    assert isogenous(CURVES["11a3"], CURVES["11a1"])
    assert isogenous(CURVES["11a1"], CURVES["11a3"])
    assert not isogenous(CURVES["11a1"], E_37A1)


def _exhaustive_traces(e, primes):
    return {p: p + 1 - count_points_exhaustive(e, p) for p in primes if is_good_prime(e, p)}


def test_every_edge_of_every_walk_is_an_isogeny():
    # an isogeny over Q gives equal a_p at every common good prime; checked
    # by exhaustive point counts, independent of the BSGS a_p and the walk
    primes = primes_up_to(500)
    traces = {}

    def traces_of(A, B):
        if (A, B) not in traces:
            traces[A, B] = _exhaustive_traces(CurveLW(0, 0, 0, A, B), primes)
        return traces[A, B]

    edges = 0
    for cls, cs in CLASSES.items():
        for c in cs:
            for model in _isogeny_walk(CurveLW(*c)):
                A, B = int(model.a4), int(model.a6)  # the walk's own model
                here = traces_of(A, B)
                for ell, codomain in isogenies(A, B):
                    there = traces_of(*codomain)
                    common = here.keys() & there.keys()
                    assert len(common) > 80
                    assert all(here[p] == there[p] for p in common), (cls, c, ell)
                    edges += 1
    assert edges > 100


def test_walk_on_rational_and_cm_models():
    # a model with rational coefficients is walked on an integral short model
    e = CurveLW(0, 0, 0, Fraction(-10, 7**4), Fraction(-20, 7**6))  # y^2 = x^3-10x-20, u = 7
    A, B = short_model(e)
    assert isinstance(A, int) and isinstance(B, int) and e._c4.denominator > 1
    assert same_curve(CurveLW(0, 0, 0, A, B), e)
    assert len(list(_isogeny_walk(e))) == len(list(_isogeny_walk(CurveLW(0, 0, 0, -10, -20))))
    for e in (E_CM, CurveLW(0, 0, 0, 0, 1), CurveLW(0, 0, 0, 1, 0)):
        for model in _isogeny_walk(e):
            assert {ell for ell, _ in isogenies(int(model.a4), int(model.a6))} <= {2, 3}
            t1 = _exhaustive_traces(e, primes_up_to(200))
            t2 = _exhaustive_traces(model, primes_up_to(200))
            assert all(t1[p] == t2[p] for p in t1.keys() & t2.keys())


# -- the shortcuts against the full loops ------------------------------------------

PANEL_B = 10_000


def _panel():
    pairs = []
    names = list(CURVES)
    for cls, cs in CLASSES.items():
        members = [f"{cls}{i + 1}" for i in range(len(cs))]
        if cls in ("11a", "37b"):
            pairs += [(a, b) for a in members for b in members if a != b]
        else:
            pairs += [(members[0], b) for b in members[1:]]
    e = {**CURVES, "37a1": E_37A1, "26b1": E_26B1, "cm": E_CM, "cm-quartic": E_CM_QUARTIC,
         "11a1-1": twist(CURVES["11a1"], -1), "11a1+5": twist(CURVES["11a1"], 5),
         "14a1-3": twist(CURVES["14a1"], -3)}
    pairs += [("11a1", "11a1-1"), ("11a1+5", "11a1"), ("11a3", "11a1-1"),
              ("14a1", "14a1-3"), ("14a2", "14a1-3"), ("cm", "cm-quartic"),
              ("11a1", "37a1"), ("14a1", "15a1"), ("37b1", "11a3"), ("15a1", "37b1"),
              ("26b1", "37a1")]
    assert set(names) <= {n for pair in pairs for n in pair}
    return [(a, b, e[a], e[b]) for a, b in pairs]


PANEL = _panel()


@pytest.mark.parametrize("name, name2, e, e2", PANEL, ids=[f"{a}x{b}" for a, b, _, _ in PANEL])
def test_scans_equal_the_full_loops(name, name2, e, e2):
    ev = nonisogeny_certificate(e, e2, PANEL_B)
    assert ev == reference_nonisogeny(e, e2, PANEL_B)
    if ev.isogenous:
        assert name[:3] == name2[:3] and name2 in CURVES
        for ell in (3, 5, 7):
            assert reference_congruence(e, e2, ell, PANEL_B) is None
    for curve in (e, e2):
        for ell in (5, 7):
            v = mod_ell_surjectivity(curve, ell, PANEL_B)
            assert v.verdict == reference_surjectivity(curve, ell, PANEL_B)
            if any(k == "reducible" for k, _ in v.witnesses):
                assert v.verdict == "inconclusive"


def _reference_report(spec, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(homrank, "nonisogeny_certificate", reference_nonisogeny)
        m.setattr(oddpart, "congruence_evidence", reference_congruence)
        m.setattr(report, "congruence_evidence", reference_congruence)

        def surjectivity(curve, ell, bound):
            # ell = 2 and empty witness classes never reach the loop
            if ell == 2 or not all(witness_classes(ell)):
                return mod_ell_surjectivity(curve, ell, bound)
            if reference_surjectivity(curve, ell, bound) == "surjective":
                return mod_ell_surjectivity(curve, ell, bound)
            return oddpart.SurjectivityVerdict(ell, "inconclusive", (), bound)

        m.setattr(oddpart, "mod_ell_surjectivity", surjectivity)
        m.setattr(report, "mod_ell_surjectivity", surjectivity)
        return report.render_report(report.analyze(spec))


@pytest.mark.parametrize("name, name2, e, e2", PANEL, ids=[f"{a}x{b}" for a, b, _, _ in PANEL])
def test_reports_equal_the_full_loops(name, name2, e, e2, monkeypatch):
    rec = {"first": {"weierstrass": [str(c) for c in e.key()]},
           "second": {"weierstrass": [str(c) for c in e2.key()]},
           "bound": PANEL_B, "odd_primes": [5, 7]}
    spec = report.parse_pair_spec(rec)
    assert report.render_report(report.analyze(spec)) == _reference_report(spec, monkeypatch)


def test_twists_are_not_certified_isogenous():
    # a twist has the same j but other a_p, so the congruence scans may
    # fail on it: the walks must not meet
    for e, e2 in ((CURVES["11a1"], twist(CURVES["11a1"], -1)),
                  (twist(CURVES["11a1"], 5), CURVES["11a1"]),
                  (E_CM, E_CM_QUARTIC)):
        assert e.j() == e2.j() and not same_curve(e, e2)
        ev = nonisogeny_certificate(e, e2, PANEL_B)
        assert ev.kind == "none-found" and not ev.isogenous
        assert ev == reference_nonisogeny(e, e2, PANEL_B)


def test_isogenous_pair_reads_only_the_small_primes(monkeypatch):
    calls = []
    real = homrank.ap
    monkeypatch.setattr(homrank, "ap", lambda c, p: calls.append(p) or real(c, p))
    ev = nonisogeny_certificate(CURVES["11a1"], CURVES["11a3"], 10**5)
    assert ev.isogenous
    assert calls and max(calls) <= 229


def test_reducible_shortcut_names_the_kernel():
    for e, ell in ((CURVES["11a1"], 5), (E_26B1, 7)):
        v = mod_ell_surjectivity(e, ell, 1000)
        assert v.verdict == "inconclusive"
        assert [k for k, _ in v.witnesses] == ["nonsplit", "split", "generic", "reducible"]
        assert f"{ell}-isogeny" in v.witnesses[-1][1]
        # a Borel image has no nonsplit witness; a class not met by p = 229
        # is marked as not sampled beyond it, never as absent below B
        assert v.witnesses[0][1] == "not found for p <= 229; larger p not sampled"
        assert all(w.startswith("p = ") or w == v.witnesses[0][1]
                   for _, w in v.witnesses[:3])
    # below the first prime above 229 the scan alone decides
    v = mod_ell_surjectivity(CURVES["11a1"], 5, 200)
    assert all(k != "reducible" for k, _ in v.witnesses)

"""Isogenies through X_0(ell), and the three scans they shorten.

The reference scans below are the full loops that the isogeny shortcuts
replace: every shortcut must give the result the loop gives.  The Velu walk
over x-rational kernels below is the reference for the X_0(ell) walk: it
must find every one of its edges again."""

import json
import random
import signal
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from kummer_brauer import arith, homrank, isogeny, oddpart, report
from kummer_brauer.arith import (
    _root_bound,
    is_prime,
    poly_eval,
    primes_up_to,
    rational_roots,
    valuation,
)
from kummer_brauer.curves import (
    CM_J_INVARIANTS,
    CurveLW,
    _ec_mul,
    add_points,
    ap,
    count_points_exhaustive,
    frobenius_table,
    is_good_prime,
    j_invariant_sw,
    point_order,
    same_curve,
    supersingular_fraction,
)
from kummer_brauer.gl2 import witness_classes
from kummer_brauer.homrank import nonisogeny_certificate
from kummer_brauer.isogeny import (
    CLASS_SIZE_MAX,
    X0_EXIT_PRIME,
    X0_TABLE,
    _integral,
    codomains,
    isogenous,
    isogeny_class,
    x0_roots,
)
from kummer_brauer.oddpart import (
    congruence_evidence,
    mod_ell_surjectivity,
    no_rational_ell_isogeny,
)
from test_curves import curve_with_j

GOLDEN_DIR = Path(__file__).parent / "golden"

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
    A, B = e.short_model
    return CurveLW(0, 0, 0, A * d * d, B * d**3)


def to_short(e: CurveLW, P):
    """P on e in the coordinates of e.short_model (integral input):
    X = 36x + 3 b2, Y = 108 (2y + a1 x + a3)."""
    x, y = P
    return 36 * x + 3 * e.b_invariants()[0], 108 * (2 * y + e.a1 * x + e.a3)


# -- reference scans: the full loops the shortcuts replace ----------------------
# Each walks primes_up_to and tests goodness and p != ell itself; the scans
# they check take their primes from curves.good_primes.


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


def as_loop_evidence(ev):
    """The evidence with the kinds the full loop cannot tell apart,
    "same-curve" and "isogenous", read as its "none-found"; witness and
    detail unchanged."""
    if ev.kind in ("same-curve", "isogenous"):
        return homrank.IsogenyEvidence("none-found", ev.witness, ev.detail)
    return ev


def reference_witness_primes(curve, ell, bound):
    """The first good p <= bound, p != ell, of each witness class met by the
    sampling loop, which stops once all three are met."""
    classes = dict(zip(("nonsplit", "split", "generic"), witness_classes(ell)))
    first = {}
    for p in primes_up_to(bound):
        if p == ell or not is_good_prime(curve, p):
            continue
        td = (ap(curve, p) % ell, p % ell)
        for name, w in classes.items():
            if td in w:
                first.setdefault(name, p)
        if len(first) == 3:
            break
    return first


def reference_surjectivity(curve, ell, bound):
    """The verdict of the sampling loop at an ell with three nonempty
    witness classes."""
    return "surjective" if len(reference_witness_primes(curve, ell, bound)) == 3 \
        else "inconclusive"


def reference_congruence(e, e2, ell, bound):
    for p in primes_up_to(bound):
        if p != ell and is_good_prime(e, p) and is_good_prime(e2, p) \
                and (ap(e, p) - ap(e2, p)) % ell:
            return p
    return None


def reference_no_isogeny(curve, ell, bound):
    squares = {x * x % ell for x in range(ell)}
    for p in primes_up_to(bound):
        if p != ell and is_good_prime(curve, p) \
                and (ap(curve, p) ** 2 - 4 * p) % ell not in squares:
            return p
    return None


def reference_supersingular_fraction(curve, bound):
    good = [p for p in primes_up_to(bound) if is_good_prime(curve, p)]
    return sum(ap(curve, p) == 0 for p in good), len(good)


def reference_frobenius_entries(curve, bound):
    return tuple((p, ap(curve, p)) for p in primes_up_to(bound) if is_good_prime(curve, p))


# -- reference: division polynomials, x-rational kernels and Velu's formulas ------
# (Velu, C. R. Acad. Sci. Paris 273, 1971, in Kohel's kernel-polynomial form)

KERNEL_DEGREES = (2, 3, 5, 7)

Poly = list[int]  # integer coefficients, constant term first


def _add(f: Poly, g: Poly) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    return [a + (g[i] if i < len(g) else 0) for i, a in enumerate(f)]


def _sub(f: Poly, g: Poly) -> Poly:
    return _add(f, [-c for c in g])


def _mul(f: Poly, g: Poly) -> Poly:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def division_polynomials(A: int, B: int) -> dict[int, Poly]:
    """g_n for n = 1, ..., 5 and 7, where psi_n = g_n for odd n and
    psi_n = 2y g_n for even n on y^2 = x^3 + A x + B; key 0 holds
    F = 4(x^3 + A x + B) = (2y)^2.

    g_1 = g_2 = 1, g_3 = 3x^4 + 6A x^2 + 12B x - A^2,
    g_4 = 2(x^6 + 5A x^4 + 20B x^3 - 5A^2 x^2 - 4AB x - 8B^2 - A^3), and
    psi_(2m+1) = psi_(m+2) psi_m^3 - psi_(m-1) psi_(m+1)^3 gives
    g_5 = F^2 g_4 - g_3^3 (m = 2) and g_7 = g_5 g_3^3 - F^2 g_4^3 (m = 3).
    """
    F = [4 * B, 4 * A, 0, 4]
    g3 = [-A * A, 12 * B, 6 * A, 0, 3]
    g4 = [2 * c for c in (-8 * B * B - A**3, -4 * A * B, -5 * A * A, 20 * B, 5 * A, 0, 1)]
    F2 = _mul(F, F)
    g3_cubed = _mul(_mul(g3, g3), g3)
    g5 = _sub(_mul(F2, g4), g3_cubed)
    g7 = _sub(_mul(g5, g3_cubed), _mul(F2, _mul(_mul(g4, g4), g4)))
    return {0: F, 1: [1], 2: [1], 3: g3, 4: g4, 5: g5, 7: g7}


def _x_multiple(psi: dict[int, Poly], x: Fraction, k: int) -> Fraction:
    """x(kP) = x(P) - psi_(k-1) psi_(k+1) / psi_k^2 for k = 2, 3 (the
    doubling formula at k = 2), in the g_n of division_polynomials."""
    F = poly_eval(psi[0], x)
    below, above, mid = (poly_eval(psi[i], x) for i in (k - 1, k + 1, k))
    if k % 2:
        return x - F * below * above / (mid * mid)
    return x - below * above / (F * mid * mid)


def kernels(A: int, B: int, ell: int,
            psi: dict[int, Poly] | None = None) -> list[tuple[Fraction, ...]]:
    """Every ell-kernel of y^2 = x^3 + A x + B with rational x-coordinates,
    for ell in KERNEL_DEGREES: (x(P),) at ell = 2 (a root of the monic
    2-division cubic), (x(P), ..., x((ell-1)/2 P)) for odd ell (roots of
    psi_ell).
    psi, when given, is division_polynomials(A, B)."""
    if ell not in KERNEL_DEGREES:
        raise ValueError(f"kernels of degree {ell} are not searched")
    if ell == 2:
        return [(x,) for x in rational_roots([B, A, 0, 1])]
    psi = psi or division_polynomials(A, B)
    out: list[tuple[Fraction, ...]] = []
    seen: set[Fraction] = set()
    for x in rational_roots(psi[ell]):
        if x in seen:
            continue
        xs = (x,) + tuple(_x_multiple(psi, x, k) for k in range(2, (ell + 1) // 2))
        seen.update(xs)
        out.append(xs)
    return out


def velu_codomain(A: int, B: int, ell: int, xs: tuple[Fraction, ...]) -> tuple[int, int]:
    """The integral short model of E/C for the kernel C given by xs as in
    `kernels`: A' = A - 5t, B' = B - 7w with t = sum(6x^2 + 2A) and
    w = sum(10x^3 + 6Ax + 4B) over the kernel pairs +-P of odd order, and
    t = 3x^2 + A, w = x t for the point (x, 0) of order 2."""
    if ell == 2:
        (x,) = xs
        t = 3 * x * x + A
        w = x * t
    else:
        t = sum(6 * x * x + 2 * A for x in xs)
        w = sum(10 * x**3 + 6 * A * x + 4 * B for x in xs)
    return _integral(Fraction(A - 5 * t), Fraction(B - 7 * w))


def isogenies(A: int, B: int) -> list[tuple[int, tuple[int, int]]]:
    """(degree, codomain (A', B')) for every kernel of degree 2, 3, 5 or 7
    with rational x-coordinates on y^2 = x^3 + A x + B."""
    psi = division_polynomials(A, B)
    return [(ell, velu_codomain(A, B, ell, xs))
            for ell in KERNEL_DEGREES for xs in kernels(A, B, ell, psi)]


def reference_walk(curve):
    """The walk over the Velu edges, as isogeny.isogeny_class walks the
    X_0(ell) edges."""
    reached = [CurveLW(0, 0, 0, *curve.short_model)]
    for model in reached:
        for _, codomain in isogenies(int(model.a4), int(model.a6)):
            image = CurveLW(0, 0, 0, *codomain)
            if not any(same_curve(image, seen) for seen in reached):
                reached.append(image)
    return reached


# -- division polynomials and rational roots --------------------------------------


def test_division_polynomials_vanish_exactly_on_ell_torsion_mod_p():
    # independent of the recursion: at x with f(x) a nonzero square mod p,
    # psi_ell(x) = 0 mod p exactly when ell (x, y) = O by the group law
    torsion_seen = 0
    for e in (CURVES["11a1"], CURVES["14a1"], E_37A1, E_26B1):
        A, B = e.short_model
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
            f = _mul(f, [-r.numerator, r.denominator])
        for extra in ([1, 0, 1], [-2, 0, 1], [3, 1, 0, 1]):  # no rational roots
            if rng.random() < 0.5:
                f = _mul(f, extra)
        assert rational_roots(f) == sorted(roots), (f, roots)


def test_rational_roots_raise_on_a_repeated_root():
    # N(t) - j t at j = 0 on X_0(2) is (t + 16)^3: every prime has the
    # triple root -16.  ((t^2 - 2)(t^2 - 3)(t^2 - 6))^2 has a double root
    # mod every odd prime but no rational root
    sextic = _mul(_mul([-2, 0, 1], [-3, 0, 1]), [-6, 0, 1])
    for f in ([4096, 768, 48, 1], _mul(sextic, sextic)):
        with pytest.raises(ValueError):
            rational_roots(f)
    # a repeated factor without a root mod some prime decides: no error
    assert rational_roots(_mul([5, 10, 1], [5, 10, 1])) == []
    assert rational_roots(_mul(_mul([-2, 0, 1], [-2, 0, 1]), [5, 3])) == [Fraction(-5, 3)]


def test_rational_roots_refuse_a_zero_leading_coefficient():
    # every prime divides a zero leading coefficient, so a search for a
    # prime that does not would never end; the alarm turns a hang into a
    # failure
    def hang(signum, frame):
        raise TimeoutError("rational_roots did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        for f in ([1, 2, 0], [0], [-6, 1, 1, 0, 0]):
            with pytest.raises(ValueError):
                rational_roots(f)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _monic(f: Poly) -> Poly:
    """c^(n-1) f(y/c) for f of degree n with leading coefficient c: a monic
    integer polynomial whose roots are c times those of f."""
    n, c = len(f) - 1, f[-1]
    return [a * c ** (n - 1 - i) for i, a in enumerate(f[:n])] + [1]


def test_root_bound_covers_every_rational_root():
    rng = random.Random(27)
    for _ in range(300):
        digits = rng.choice((1, 5, 30, 300))
        roots = [Fraction(rng.randint(-10**digits, 10**digits),
                          rng.randint(1, 10**rng.randint(0, 4)))
                 for _ in range(rng.randint(1, 5))]
        f = [rng.choice((-1, 1)) * rng.randint(1, 10**rng.randint(0, 6))]
        for r in roots:
            f = _mul(f, [-r.numerator, r.denominator])
        for extra in ([1, 0, 1], [-2, 0, 1], [3, 1, 0, 1]):  # no rational roots
            if rng.random() < 0.3:
                f = _mul(f, extra)
        g, c = _monic(f), f[-1]
        bound = _root_bound(g)
        assert bound & (bound - 1) == 0
        for r in roots:  # c r is an integer root of g
            assert poly_eval(g, r * c) == 0 and abs(r * c) <= bound, (f, r)


def test_root_bound_is_within_8n_of_the_largest_root():
    # |g_(n-k)| <= C(n, k) rho^k for rho = max |r_i|, so the bound is at most
    # 2 * 2 * 2 (C(n, k) rho^k)^(1/k) <= 8 n rho; the Cauchy bound
    # 1 + max |g_i| grows like rho^n
    rng = random.Random(1916)
    cauchy_beyond = 0
    for _ in range(500):
        n = rng.randint(1, 14)
        roots = [rng.randint(-10**rng.randint(0, 40), 10**rng.randint(0, 40)) for _ in range(n)]
        roots[0] = roots[0] or 1
        g = [1]
        for r in roots:
            g = _mul(g, [-r, 1])
        rho = max(abs(r) for r in roots)
        assert all(abs(g[n - k]) <= comb(n, k) * rho**k for k in range(1, n + 1))
        assert rho <= _root_bound(g) <= 8 * n * rho, (roots, _root_bound(g))
        cauchy_beyond += 1 + max(abs(a) for a in g[:n]) > 8 * n * rho
    assert cauchy_beyond > 400


def test_hensel_lift_stops_at_the_root_bound(monkeypatch):
    # on X_0(5) over j(11a1) the root bound is 2^24, and the roots mod 7
    # are lifted modulo 7^2, 7^4, 7^8 and 7^16 > 2 * 2^24: four squarings
    # per root, each evaluating g and g' once modulo the square
    moduli = []
    real = arith.poly_eval
    monkeypatch.setattr(arith, "poly_eval",
                        lambda f, x, m=0: moduli.append(m) or real(f, x, m))
    j = CURVES["11a1"].j()
    x0_polynomial = [j.denominator * c - j.numerator * (i == 1)
                     for i, c in enumerate(X0_TABLE[2][2])]
    roots = x0_roots(j, 5)
    assert roots == [Fraction(-125, 11), Fraction(-1, 11)]
    lifts = [m for m in moduli if m and not is_prime(m)]
    assert _root_bound(_monic(x0_polynomial)) == 2**24
    assert sorted(set(lifts)) == [7**2, 7**4, 7**8, 7**16]
    assert len(lifts) == 2 * 4 * len(roots)


def test_cm_curves_sample_to_the_bound_at_x0_degrees():
    # at j = 0 and 1728, N(t) - j t has repeated roots; no edge is sought,
    # and the verdict is the full loop's
    for e in (CurveLW(0, 0, 0, 0, 1), E_CM):
        assert codomains(*e.short_model) == []
        assert x0_roots(e.j(), 5) == []
        for ell in (5, 7, 13):
            v = mod_ell_surjectivity(e, ell, 1000)
            assert v.verdict == reference_surjectivity(e, ell, 1000) == "inconclusive"
            assert all(k != "reducible" for k, _ in v.witnesses)


# -- kernels, Velu and the walk ---------------------------------------------------


def test_kernels_match_the_group_law():
    # 11a3 has the rational 5-torsion point (0, 0) and 26b1 the rational
    # 7-torsion point (1, 0): the x(kP) by the chord-tangent law on the
    # original model, moved to the short model, form one of the kernels
    for e, P, ell in ((CURVES["11a3"], (0, 0), 5), (E_26B1, (1, 0), 7),
                      (CURVES["37b3"], None, 3)):
        A, B = e.short_model
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
        A, B = CURVES[src].short_model
        (xs,) = kernels(A, B, 5)
        assert same_curve(CurveLW(0, 0, 0, *velu_codomain(A, B, 5, xs)), CURVES[dst])


def test_walk_sizes_by_class():
    # X_0(5) also finds the 5-isogenies whose kernel is mu_5, so every curve
    # of 11a sees its class (the Velu walk over x-rational kernels does not)
    sizes = {"11a": [3, 3, 3], "14a": [6] * 6, "15a": [8] * 8, "37b": [3] * 3}
    for cls, cs in CLASSES.items():
        for i, c in enumerate(cs):
            walk = list(isogeny_class(CurveLW(*c)))
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


def _count_isogeny_edges(starts, edges_of):
    """The edges_of(A, B) edges out of every curve the walks from starts
    reach, each checked to be an isogeny: an isogeny over Q gives equal a_p
    at every common good prime, here by exhaustive point counts,
    independent of the BSGS a_p and the walk."""
    primes = list(primes_up_to(500))  # read once for every curve
    traces = {}

    def traces_of(A, B):
        if (A, B) not in traces:
            traces[A, B] = _exhaustive_traces(CurveLW(0, 0, 0, A, B), primes)
        return traces[A, B]

    edges = 0
    for c in starts:
        for model in isogeny_class(c):
            A, B = int(model.a4), int(model.a6)  # the walk's own model
            here = traces_of(A, B)
            for ell, codomain in edges_of(A, B):
                there = traces_of(*codomain)
                common = here.keys() & there.keys()
                assert len(common) > 80
                assert all(here[p] == there[p] for p in common), (c, ell)
                edges += 1
    return edges


def test_every_edge_of_every_walk_is_an_isogeny():
    assert _count_isogeny_edges(CURVES.values(), isogenies) > 100


def reference_codomains(A: int, B: int) -> list[tuple[int, tuple[int, int]]]:
    """isogeny.codomains, computed in Fractions straight from the formula of
    its docstring."""
    j = j_invariant_sw(A, B)
    out = []
    for ell, s, N in X0_TABLE:
        D = [(i - 1) * c for i, c in enumerate(N)]
        for t in x0_roots(j, ell):
            u = s / t
            j2 = poly_eval(N, u) / u
            if j2 in (0, 1728):
                continue
            dj2 = -t * t * poly_eval(D, u) * 18 * j * B / (s * poly_eval(D, t) * ell * A)
            E4 = dj2 * dj2 / (j2 * (j2 - 1728))
            E6 = -dj2**3 / (j2 * j2 * (j2 - 1728))
            out.append((ell, _integral(-E4 / 48, E6 / 864)))
    return out


def test_codomains_equal_the_fraction_formula():
    # every curve of the four classes, 37a1, 26b1 and a 13-isogenous curve,
    # as integral short models rescaled by u = 1, 2, 3 and 5 and twisted by
    # -1: 184 models, each with the same edges as its curve
    edges = 0
    for e in (*CURVES.values(), E_37A1, E_26B1, _e13()):
        A, B = e.short_model
        for u in (1, 2, 3, 5):
            for d in (1, -1):
                model = (A * u**4, B * u**6 * d)
                found = codomains(*model)
                assert found == reference_codomains(*model), (e, u, d)
                edges += len(found)
    assert edges == 8 * 38


def test_every_x0_edge_is_an_isogeny():
    # the class walks, and a curve with a rational 13-isogeny: t = 3 on
    # X_0(13) (no curve of the four classes has one)
    e13 = _e13()
    assert [ell for ell, _ in codomains(*e13.short_model)] == [13]
    assert _count_isogeny_edges(list(CURVES.values()) + [e13], codomains) == 220 + 2


def test_x0_walk_finds_every_reference_edge():
    # every Velu edge out of every curve of the reference walks is an X_0
    # edge of the same degree to the same curve; X_0 adds the mu_5 edges
    # (on the X_0 walks, which reach all of 11a from each curve, 220 edges)
    velu = x0 = 0
    for c in CURVES.values():
        for model in reference_walk(c):
            A, B = int(model.a4), int(model.a6)
            found = [(ell, CurveLW(0, 0, 0, *codomain)) for ell, codomain in codomains(A, B)]
            for ell, codomain in isogenies(A, B):
                image = CurveLW(0, 0, 0, *codomain)
                assert any(ell == d and same_curve(image, e) for d, e in found), (c, ell)
                velu += 1
            x0 += len(found)
    assert (velu, x0) == (211, 216)


def test_walk_on_rational_and_cm_models():
    # a model with rational coefficients is walked on an integral short model
    e = CurveLW(0, 0, 0, Fraction(-10, 7**4), Fraction(-20, 7**6))  # y^2 = x^3-10x-20, u = 7
    A, B = e.short_model
    assert isinstance(A, int) and isinstance(B, int) and e.a4.denominator > 1
    assert same_curve(CurveLW(0, 0, 0, A, B), e)
    assert len(list(isogeny_class(e))) == len(list(isogeny_class(CurveLW(0, 0, 0, -10, -20))))
    for e in (E_CM, CurveLW(0, 0, 0, 0, 1), CurveLW(0, 0, 0, 1, 0)):
        for model in isogeny_class(e):
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
    assert as_loop_evidence(ev) == reference_nonisogeny(e, e2, PANEL_B)
    if ev.kind in ("same-curve", "isogenous"):
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
            return oddpart.SurjectivityVerdict("inconclusive", ())

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


def test_twists_are_not_certified_isogenous(monkeypatch):
    # a twist has the same j but other a_p, so the congruence scans may
    # fail on it: it must not be flagged.  Equal j leaves no witness to
    # find, so no a_p is read
    calls = []
    real = homrank.ap
    monkeypatch.setattr(homrank, "ap", lambda c, p: calls.append(p) or real(c, p))
    for e, e2 in ((CURVES["11a1"], twist(CURVES["11a1"], -1)),
                  (twist(CURVES["11a1"], 5), CURVES["11a1"]),
                  (E_CM, E_CM_QUARTIC)):
        assert e.j() == e2.j() and not same_curve(e, e2)
        ev = nonisogeny_certificate(e, e2, PANEL_B)
        assert ev.kind == "none-found"
        assert ev == reference_nonisogeny(e, e2, PANEL_B)
    assert calls == []


def test_cm_pairs_end_at_once_with_the_walks_flag(monkeypatch):
    # two CM j: traces are not compared and CM j are integers, so no
    # witness exists; the kind is the walk's, "isogenous" or "none-found".
    # j = -3375 -> 16581375 is a 2-isogeny; j = 1728 -> 287496 is one too,
    # but at j = 1728 no edge is walked; j = 1728 and 0 have different CM
    # fields
    calls = []
    real = homrank.ap
    monkeypatch.setattr(homrank, "ap", lambda c, p: calls.append(p) or real(c, p))
    e7 = curve_with_j(-3375)
    e7b = next(e for e in (CurveLW(0, 0, 0, *c) for _, c in codomains(*e7.short_model))
               if e.j() == 16581375)
    e4 = CurveLW(0, 0, 0, *next(c for _, c in isogenies(*E_CM.short_model)
                                if CurveLW(0, 0, 0, *c).j() == 287496))
    for e, e2, kind in ((e7, e7b, "isogenous"), (e7b, e7, "isogenous"),
                        (E_CM, e4, "none-found"), (e4, E_CM, "none-found"),
                        (E_CM_QUARTIC, e4, "none-found"),
                        (E_CM, CurveLW(0, 0, 0, 0, 1), "none-found")):
        ev = nonisogeny_certificate(e, e2, PANEL_B)
        assert as_loop_evidence(ev) == reference_nonisogeny(e, e2, PANEL_B)
        assert ev.kind == kind
    assert calls == []


def test_isogenous_pair_reads_only_the_small_primes(monkeypatch):
    # an isogeny to E' is certified ("isogenous"); one to a twist of E'
    # (11a3 -> 11a1, the twist of the -1 twist) ends the scan as
    # "none-found"
    calls = []
    real = homrank.ap
    monkeypatch.setattr(homrank, "ap", lambda c, p: calls.append(p) or real(c, p))
    for e, e2, kind in ((CURVES["11a1"], CURVES["11a3"], "isogenous"),
                        (CURVES["11a3"], twist(CURVES["11a1"], -1), "none-found")):
        calls.clear()
        ev = nonisogeny_certificate(e, e2, 10**5)
        assert ev.kind == kind
        assert calls and max(calls) <= X0_EXIT_PRIME


def test_mu5_reducible_exit_reads_only_the_small_primes(monkeypatch):
    # the 5-isogeny 11a2 -> 11a1 has kernel mu_5, which no x-rational
    # kernel search sees; its root on X_0(5) ends the sampling at the first
    # good prime above X0_EXIT_PRIME
    calls = []
    real = oddpart.ap
    monkeypatch.setattr(oddpart, "ap", lambda c, p: calls.append(p) or real(c, p))
    v = mod_ell_surjectivity(CURVES["11a2"], 5, 10**5)
    assert v.verdict == "inconclusive" and v.witnesses[-1][0] == "reducible"
    assert calls and max(calls) <= X0_EXIT_PRIME


def test_early_witnesses_never_pay_for_an_exit(monkeypatch):
    # the goldens and the search_family pairs meet every witness they need
    # below X0_EXIT_PRIME: neither the isogeny walk nor the X_0(ell) root
    # runs.  11a1 x 11a3 takes the walk and 11a1 x 37a1 the root, which
    # shows that the spies see them
    calls = []
    for module, name in ((isogeny, "codomains"), (oddpart, "x0_roots")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    specs = [report.parse_pair_spec(json.loads(path.read_text(encoding="utf-8"))["input"])
             for path in sorted(GOLDEN_DIR.glob("golden_*.json"))]
    specs += report.search_family(300, 0)
    for spec in specs:
        report.analyze(spec)
    assert len(specs) == 305 and calls == []
    for e2 in (CLASSES["11a"][2], [0, 0, 1, -1, 0]):  # 11a3, 37a1
        report.analyze(report.parse_pair_spec(
            {"first": {"weierstrass": CLASSES["11a"][0]}, "second": {"weierstrass": e2}}))
    assert set(calls) == {"codomains", "x0_roots"}


def _e13():
    """A curve with a rational 13-isogeny: j = N(3)/3 on X_0(13)."""
    return curve_with_j(Fraction(poly_eval(X0_TABLE[-1][2], 3), 3))


def test_reducible_shortcut_names_the_kernel():
    for e, ell in ((CURVES["11a1"], 5), (E_26B1, 7), (_e13(), 13)):
        v = mod_ell_surjectivity(e, ell, 1000)
        assert v.verdict == "inconclusive" == reference_surjectivity(e, ell, 1000)
        assert [k for k, _ in v.witnesses] == ["nonsplit", "split", "generic", "reducible"]
        assert f"{ell}-isogeny" in v.witnesses[-1][1]
        # the witness names a point t of X_0(ell) over j(E)
        (N,) = (N for degree, _, N in X0_TABLE if degree == ell)
        t = Fraction(v.witnesses[-1][1].split("t = ")[1].split()[0])
        assert poly_eval(N, t) == e.j() * t
        # a Borel image has no nonsplit witness; a class not met by
        # X0_EXIT_PRIME is marked as not sampled beyond it, never as absent
        # below B
        assert v.witnesses[0][1] == f"not found for p <= {X0_EXIT_PRIME}; larger p not sampled"
        assert all(w.startswith("p = ") or w == v.witnesses[0][1]
                   for _, w in v.witnesses[:3])
    # below the first prime above X0_EXIT_PRIME the scan alone decides
    v = mod_ell_surjectivity(CURVES["11a1"], 5, X0_EXIT_PRIME)
    assert all(k != "reducible" for k, _ in v.witnesses)


@pytest.mark.parametrize("bound", [*range(X0_EXIT_PRIME, X0_EXIT_PRIME + 13), *range(229, 242)])
def test_scans_around_the_x0_exit_equal_the_full_loops(bound):
    # the X_0(ell) exit is looked for at the first good prime above
    # X0_EXIT_PRIME, so the first thirteen bounds hold the scans that end
    # just before it, at it and past it; at bounds 229-241, far past it,
    # every scan has taken it.  Each curve below has a rational ell-isogeny
    for e, e2, ell in ((CURVES["11a1"], CURVES["11a3"], 5), (CURVES["11a2"], E_37A1, 5),
                       (E_26B1, E_37A1, 7), (_e13(), CURVES["14a1"], 13)):
        v = mod_ell_surjectivity(e, ell, bound)
        assert v.verdict == reference_surjectivity(e, ell, bound) == "inconclusive"
        exits = any(p > X0_EXIT_PRIME and is_good_prime(e, p) for p in primes_up_to(bound))
        assert (v.witnesses[-1][0] == "reducible") == exits
        first = reference_witness_primes(e, ell, bound)
        for name, text in v.witnesses[:3]:
            if text.startswith("p = "):
                assert int(text[4:text.index(":")]) == first[name], (bound, ell, name)
            else:
                assert first.get(name, bound + 1) > (X0_EXIT_PRIME if exits else bound)
        for curve in (e, e2):
            _assert_single_curve_scans_equal_the_full_loops(curve, bound)
        for odd in (2, 3, 5, 7, 13):
            assert congruence_evidence(e, e2, odd, bound) == \
                reference_congruence(e, e2, odd, bound)


def _assert_single_curve_scans_equal_the_full_loops(curve, bound):
    assert frobenius_table(curve, bound).entries == reference_frobenius_entries(curve, bound)
    assert supersingular_fraction(curve, bound) == reference_supersingular_fraction(curve, bound)
    for ell in (3, 5, 7, 11, 13):
        assert no_rational_ell_isogeny(curve, ell, bound) == reference_no_isogeny(curve, ell, bound)


def test_single_curve_scans_equal_the_full_loops():
    curves = [*CURVES.values(), E_37A1, E_26B1, E_CM, E_CM_QUARTIC, CurveLW(0, 0, 0, 0, 1),
              CurveLW(0, 0, 0, Fraction(1, 3), Fraction(2, 5))]
    for curve in curves:
        _assert_single_curve_scans_equal_the_full_loops(curve, 600)

import math
import random
from fractions import Fraction

import pytest

from kummer_brauer import curves
from kummer_brauer.arith import factor, is_prime, primes_up_to, rational_roots
from kummer_brauer.isogeny import X0_EXIT_PRIME
from kummer_brauer.curves import (
    CM_J_INVARIANTS,
    HASSE_MAX_PRIME,
    HASSE_MIN_PRIME,
    CurveLW,
    CurveRT2,
    NO_TWO_TORSION,
    BadReductionError,
    NonIntegralModelError,
    SingularCurveError,
    ap,
    bsgs_count,
    cm_status,
    count_points,
    count_points_exhaustive,
    frobenius_table,
    good_primes,
    good_reduction_at,
    hasse_trace,
    is_cm_j,
    is_good_prime,
    j_invariant_rt2,
    j_invariant_sw,
    point_order,
    supersingular_fraction,
    to_rt2,
)

E_XCUBE_MINUS_X = CurveLW(0, 0, 0, -1, 0)
E_37 = CurveLW(0, 0, 1, -1, 0)  # y^2 + y = x^3 - x
E_43 = CurveLW(0, 1, 1, 0, 0)  # y^2 + y = x^3 + x^2
E_SEXTIC = CurveLW(0, 0, 0, 0, 1)  # y^2 = x^3 + 1


def curve_with_j(j) -> CurveLW:
    """Some elliptic curve over Q with the given j-invariant (integral model)."""
    j = Fraction(j)
    if j == 0:
        return CurveLW(0, 0, 0, 0, 1)
    if j == 1728:
        return CurveLW(0, 0, 0, -1, 0)
    s = j / (1728 - j)
    p, q = 3 * s, 2 * s
    u = p.denominator * q.denominator // math.gcd(p.denominator, q.denominator)
    return CurveLW(0, 0, 0, p * u**4, q * u**6)


# -- independent oracles ------------------------------------------------------


def det_fraction(mat):
    """Determinant by fraction-free-ish Gaussian elimination over Q."""
    m = [[Fraction(v) for v in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] * inv
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def cubic_disc_by_resultant(c2, c1, c0):
    """disc(x^3 + c2 x^2 + c1 x + c0) = -Res(f, f') via a Sylvester matrix."""
    f = [1, c2, c1, c0]
    fp = [3, 2 * c2, c1]
    syl = [
        f + [0],
        [0] + f,
        fp + [0, 0],
        [0] + fp + [0],
        [0, 0] + fp,
    ]
    return -det_fraction(syl)


def double_loop_count(curve, p):
    """Exhaustive (x, y) in F_p^2 point count, plus the point at infinity."""
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


def random_lw(rng):
    while True:
        try:
            return CurveLW(rng.randint(0, 1), rng.randint(-5, 5),
                           rng.randint(0, 1), rng.randint(-20, 20),
                           rng.randint(-20, 20))
        except SingularCurveError:
            continue


def random_rt2(rng, lo=-40, hi=40):
    while True:
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        if a and b and a != b:
            return CurveRT2(a, b)


# -- invariants ----------------------------------------------------------------


def test_j_rt2_examples():
    assert j_invariant_rt2(CurveRT2(1, 2)) == 1728
    assert j_invariant_sw(-1, 0) == 1728  # the translated model y^2 = x^3 - x
    assert j_invariant_rt2(CurveRT2(5, 7)) == Fraction(3796416, 1225)
    assert j_invariant_rt2(CurveRT2(7, 5)) == j_invariant_rt2(CurveRT2(5, 7))


def test_j_sw_examples():
    assert j_invariant_sw(-1, 0) == 1728
    assert j_invariant_sw(0, 1) == 0
    assert j_invariant_sw(6, -2) == 1536
    with pytest.raises(SingularCurveError):
        j_invariant_sw(-3, 2)  # 4*(-27) + 27*4 = 0


def test_j_formulas_agree_after_depression():
    rng = random.Random(17)
    for _ in range(100):
        c = random_rt2(rng)
        a, b = Fraction(c.a), Fraction(c.b)
        s = (a + b) / 3
        p = a * b - (a + b) ** 2 / 3
        q = s**3 - (a + b) * s * s + a * b * s
        assert j_invariant_sw(p, q) == j_invariant_rt2(c)


def test_discriminant_examples():
    assert E_XCUBE_MINUS_X.discriminant() == 64
    assert CurveLW(0, 0, 0, 0, 1).discriminant() == -432
    c = CurveRT2(1, 2).to_lw()
    assert c.discriminant() == 64
    assert c.discriminant() == 16 * 1 * 4 * 1  # 16 a^2 b^2 (a-b)^2


def test_discriminant_against_resultant_oracle():
    rng = random.Random(23)
    for _ in range(100):
        a2, a4, a6 = rng.randint(-10, 10), rng.randint(-10, 10), rng.randint(-10, 10)
        try:
            c = CurveLW(0, a2, 0, a4, a6)
        except SingularCurveError:
            continue
        assert c.discriminant() == 16 * cubic_disc_by_resultant(a2, a4, a6)


def test_rt2_discriminant_formula():
    rng = random.Random(29)
    for _ in range(50):
        c = random_rt2(rng)
        a, b = c.a, c.b
        assert c.to_lw().discriminant() == 16 * a * a * b * b * (a - b) ** 2


def reference_invariants(c):
    """c4, c6 and the discriminant by the Fraction formulas on a1..a6 (the
    computation the integral model replaced)."""
    a1, a2, a3, a4, a6 = c.key()
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return (b2 * b2 - 24 * b4,
            -b2**3 + 36 * b2 * b4 - 216 * b6,
            -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6)


# 2, 3, their powers and products, and powers of 5, 7 and 11
DENOMINATORS = (1, 1, 2, 3, 4, 6, 8, 9, 12, 27, 32, 72, 25, 49, 343, 121)


def random_rational_lw(rng):
    while True:
        try:
            return CurveLW(*(Fraction(rng.randint(-40, 40), rng.choice(DENOMINATORS))
                             for _ in range(5)))
        except SingularCurveError:
            continue


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def big_coeff_shifted_models():
    """y^2 = (x+s)(x+s-a)(x+s-b) for (a, b) = (p q1, p q2) with p a 6-digit
    and q1, q2 8-digit primes, shifted by s = p^2 and by s = p^2 / 6."""
    models = []
    for p, q1, q2 in ((999_983, 99_999_989, 99_999_971),
                      (900_001, 50_000_017, 77_777_777)):
        p, q1, q2 = next_prime(p), next_prime(q1), next_prime(q2)
        a, b = p * q1, p * q2
        for s in (Fraction(p * p), Fraction(p * p, 6)):
            r0, r1, r2 = -s, a - s, b - s
            models.append(CurveLW(0, -(r0 + r1 + r2), 0,
                                  r0 * r1 + r0 * r2 + r1 * r2, -r0 * r1 * r2))
    return models


def test_integral_invariants_equal_the_fraction_formulas():
    rng = random.Random(83)
    models = [random_rational_lw(rng) for _ in range(200)] + big_coeff_shifted_models()
    assert any(c.key()[4].denominator % 343 == 0 for c in models)
    for c in models:
        c4, c6, disc = reference_invariants(c)
        u = math.lcm(*(a.denominator for a in c.key()))
        assert c.short_model == (-27 * c4 * u**4, -54 * c6 * u**6)
        assert c.discriminant() == disc
        assert c.j() == c4**3 / disc
        for p in primes_up_to(60):
            integral = all(a.denominator % p for a in c.key())
            assert c.is_p_integral(p) == integral
            if integral:
                assert good_reduction_at(c, p) == (disc.numerator % p != 0)
            else:
                with pytest.raises(NonIntegralModelError):
                    good_reduction_at(c, p)


def test_b_invariants_equal_the_formulas_on_the_fraction_coefficients():
    # b_invariants scales the integral model's b_i by u^-i
    rng = random.Random(27)
    models = [random_rational_lw(rng) for _ in range(200)] + big_coeff_shifted_models()
    assert sum(c._u > 1 for c in models) > 150
    for c in models:
        got = c.b_invariants()
        assert got == curves._b_invariants(*c.key())
        assert all(type(b) is Fraction for b in got)


def test_rt2_form_carried_by_to_lw_equals_the_root_search():
    rng = random.Random(89)
    pairs = [(3, 5), (5, 3), (-3, 5), (3, -5), (-3, -5), (-5, -3), (7, -7)]
    pairs += [(c.a, c.b) for c in (random_rt2(rng, -10**6, 10**6) for _ in range(50))]
    for a, b in pairs:
        carried = CurveRT2(a, b).to_lw()
        found = CurveLW(0, -(a + b), 0, a * b, 0)  # no carried form: root search
        assert carried == found and carried is not found
        assert to_rt2(carried) == to_rt2(found) == curves._rt2_form(found)
        if a < 0 or b < 0:
            assert to_rt2(carried) != CurveRT2(a, b)


def change_model(a, u, r, s, t):
    """a1..a6 of the model reached by x = u^2 x' + r, y = u^3 y' + s u^2 x' + t
    (Silverman, The Arithmetic of Elliptic Curves, III.1)."""
    a1, a2, a3, a4, a6 = a
    return (
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u**2,
        (a3 + r * a1 + 2 * t) / u**3,
        (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4,
        (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6,
    )


def test_cubic_roots_equal_the_roots_of_the_b_invariant_cubic():
    """cubic_roots on long models with a1, a3 != 0 and rational coefficients:
    the rational roots of 4x^3 + b2 x^2 + 2 b4 x + b6, and for a model moved
    from y^2 = (x - e)(x^2 + p x + q) the moved roots (e - r) / u^2."""
    rng = random.Random(97)

    def rand_q(lo=-40, hi=40):
        return Fraction(rng.randint(lo, hi), rng.choice(DENOMINATORS[:12]))

    checked = []
    while len(checked) < 480:
        kind = len(checked) % 4
        if kind == 0:
            c, moved = random_rational_lw(rng), None
        elif kind == 1:
            c, moved = random_lw(rng), None
        else:  # kind 2: three rational roots, kind 3: one
            e = rand_q()
            if kind == 2:
                e1, e2 = rand_q(), rand_q()
                p, q = -(e1 + e2), e1 * e2
            else:
                p, q = rand_q(), rand_q()
            u = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 5)))
            r, s, t = rand_q(), rand_q(-5, 5), rand_q()
            try:
                c = CurveLW(*change_model((0, p - e, 0, q - p * e, -q * e), u, r, s, t))
            except SingularCurveError:
                continue
            base = rational_roots_monic_cubic(p - e, q - p * e, -q * e)
            moved = sorted((x - r) / u**2 for x in base)
        b2, b4, b6, _ = c.b_invariants()
        want = rational_roots_monic_cubic(b2 / 4, b4 / 2, b6 / 4)
        assert c.cubic_roots == want, c.key()
        if moved is not None:
            assert c.cubic_roots == moved, c.key()
        checked.append(c)
    assert sum(c.a1 != 0 and c.a3 != 0 for c in checked) >= 200
    assert sum(any(a.denominator != 1 for a in c.key()) for c in checked) >= 200
    assert {len(c.cubic_roots) for c in checked} == {0, 1, 3}


def test_good_reduction():
    c = CurveRT2(1, 2).to_lw()  # disc 64
    assert good_reduction_at(c, 5)
    assert not good_reduction_at(c, 2)
    assert good_reduction_at(E_XCUBE_MINUS_X, 3)
    with pytest.raises(NonIntegralModelError):
        good_reduction_at(CurveLW(0, 0, 0, Fraction(1, 5), 1), 5)


def test_is_good_prime_matches_good_reduction_at():
    rng = random.Random(67)
    models = [random_lw(rng) for _ in range(20)]
    models += [CurveLW(0, 0, 0, Fraction(1, 5), 1), CurveLW(Fraction(1, 6), 0, 0, -1, 0)]
    for c in models:
        for p in primes_up_to(200):
            if c.is_p_integral(p):
                assert is_good_prime(c, p) == good_reduction_at(c, p)
            else:
                assert not is_good_prime(c, p)
    # good_reduction_at keeps its own checks
    with pytest.raises(ValueError):
        good_reduction_at(E_XCUBE_MINUS_X, 9)


def test_good_primes_are_the_primes_every_curve_is_good_at(monkeypatch):
    rng = random.Random(71)
    models = [random_lw(rng) for _ in range(4)] + [CurveLW(0, 0, 0, Fraction(1, 5), 1)]
    for group in ((), models[:1], models[:2], models[3:]):
        for skip in (0, 2, 5, 7, 199):
            expected = [p for p in primes_up_to(200) if p != skip and all(
                c.is_p_integral(p) and good_reduction_at(c, p) for c in group)]
            assert list(good_primes(tuple(group), 200, skip)) == expected
    # lazy: a scan that stops at a prime has tested no prime past it
    tested = []
    real = curves.is_good_prime
    monkeypatch.setattr(curves, "is_good_prime",
                        lambda c, p: tested.append(p) or real(c, p))
    # as the scans that take their exits at the first prime above
    # X0_EXIT_PRIME do
    scan = good_primes((E_XCUBE_MINUS_X,), 10**5)
    first = next(p for p in primes_up_to(2 * X0_EXIT_PRIME) if p > X0_EXIT_PRIME)
    assert next(p for p in scan if p > X0_EXIT_PRIME) == first
    assert max(tested) == first


def test_count_points_examples():
    assert count_points(E_XCUBE_MINUS_X, 5) == 8  # a_5 = -2
    assert count_points(E_XCUBE_MINUS_X, 7) == 8  # a_7 = 0
    assert count_points(E_37, 3) == 7  # a_3 = -3
    assert count_points(E_43, 3) == 6  # a_3 = -2
    with pytest.raises(BadReductionError):
        count_points(CurveRT2(1, 2).to_lw(), 2)


def test_count_points_against_double_loop():
    rng = random.Random(41)
    curves = [E_XCUBE_MINUS_X, E_37, E_43, E_SEXTIC] + [random_lw(rng) for _ in range(6)]
    for c in curves:
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if not (c.is_p_integral(p) and good_reduction_at(c, p)):
                continue
            assert count_points(c, p) == double_loop_count(c, p)


# torsion-rich, CM, fully rational 2-torsion and a rational model
BSGS_PANEL = [
    CurveLW(0, -1, 1, -10, -20),  # 11a1, 5-torsion
    CurveLW(0, -1, 1, 0, 0),  # 11a3, 5-torsion
    CurveLW(1, 0, 1, 4, -6),  # 14a1, 6-torsion
    E_XCUBE_MINUS_X,  # CM, j = 1728
    E_SEXTIC,  # CM, j = 0
    CurveRT2(5, 7).to_lw(),
    CurveLW(0, 0, 0, Fraction(1, 3), Fraction(2, 5)),
]


def test_bsgs_count_agrees_above_threshold():
    for c in BSGS_PANEL:
        for p in good_primes((c,), 3000):
            if p <= HASSE_MAX_PRIME:
                continue
            exact = count_points_exhaustive(c, p)
            assert bsgs_count(c, p) == exact, (c.label(), p)
            assert count_points(c, p) == exact, (c.label(), p)


def test_bsgs_count_at_small_primes_is_exact_or_undecided():
    undecided = 0
    for c in BSGS_PANEL:
        for p in good_primes((c,), HASSE_MAX_PRIME):
            n = bsgs_count(c, p)
            if n is None:
                undecided += 1
            else:
                assert n == count_points_exhaustive(c, p), (c.label(), p)
    assert undecided > 0


def test_count_points_is_exhaustive_below_17_hasse_to_the_switch_or_if_bsgs_undecided(
        monkeypatch):
    exhaustive, hasse = [], []
    real_exhaustive, real_hasse = count_points_exhaustive, hasse_trace
    monkeypatch.setattr(curves, "count_points_exhaustive",
                        lambda curve, p: exhaustive.append(p) or real_exhaustive(curve, p))
    monkeypatch.setattr(curves, "hasse_trace",
                        lambda curve, p: hasse.append(p) or real_hasse(curve, p))
    c = CurveLW(0, -1, 1, -10, -20)
    # the primes on either side of the switch HASSE_MAX_PRIME
    below = max(primes_up_to(HASSE_MAX_PRIME))
    above = next(p for p in primes_up_to(2 * HASSE_MAX_PRIME) if p > HASSE_MAX_PRIME)
    primes = (13, 17, below, above, 1009, 2999)
    traces = [ap(c, p) for p in primes]
    assert exhaustive == [13] and hasse == [17, below]
    c._ap.clear()
    monkeypatch.setattr(curves, "bsgs_count", lambda curve, p: None)
    assert [ap(c, p) for p in primes] == traces
    assert exhaustive == [13, 13] and hasse == [17, below, 17, *primes[2:]]
    assert traces[:4] == [p + 1 - double_loop_count(c, p) for p in primes[:4]]
    assert traces[4:] == [p + 1 - real_exhaustive(c, p) for p in primes[4:]]


# y^2 = x^3 - 4: CM with j = 0, and a_13 = -7
E_X3_MINUS_4 = CurveLW(0, 0, 0, 0, -4)


def hasse_coefficient(curve, p):
    """The coefficient of x^(p-1) in (x^3 + A x + B)^((p-1)/2) mod p, by
    plain polynomial multiplication: a reference for hasse_trace."""
    A, B = curve.short_model
    f = [B, A, 0, 1]
    power = [1]
    for _ in range((p - 1) // 2):
        product = [0] * (len(power) + 3)
        for i, a in enumerate(power):
            for k, b in enumerate(f):
                product[i + k] = (product[i + k] + a * b) % p
        power = product
    return power[p - 1]


def test_hasse_trace_equals_the_exhaustive_count():
    # 11a1, not CM, has A = 0 mod 31 and B = 0 mod 41, both among the p
    # below: neither case needs a path of its own
    A, B = BSGS_PANEL[0].short_model
    assert A % 31 == 0 and B % 41 == 0
    # every p at which count_points reads hasse_trace is checked
    assert HASSE_MAX_PRIME < 3000
    signs = set()
    for c in BSGS_PANEL + [E_X3_MINUS_4]:
        for p in good_primes((c,), 3000):
            if p < HASSE_MIN_PRIME:
                continue
            t = p + 1 - count_points_exhaustive(c, p)
            assert hasse_trace(c, p) == t, (c.label(), p)
            signs.add((t > 0) - (t < 0))
    # the residue is centred: an uncentred one fails at every t < 0
    assert signs == {-1, 0, 1}


def test_hasse_trace_needs_p_at_least_17():
    # a_13 = -7 of y^2 = x^3 - 4 is 6 mod 13, and |a_13| <= 7 leaves both
    # residues possible: below 17 Hasse's bound does not fix the centring
    assert 13 + 1 - count_points_exhaustive(E_X3_MINUS_4, 13) == -7
    assert hasse_coefficient(E_X3_MINUS_4, 13) == 6
    with pytest.raises(ValueError):
        hasse_trace(E_X3_MINUS_4, 13)
    # the least p with 2 sqrt(p) < p/2
    assert HASSE_MIN_PRIME == next(n for n in range(2, 100) if 16 * n < n * n)
    for c in (E_X3_MINUS_4, E_37):
        for p in good_primes((c,), 60):
            if p >= 5:
                t = p + 1 - count_points_exhaustive(c, p)
                assert hasse_coefficient(c, p) == t % p, (c.label(), p)


def test_errors_above_threshold():
    # the first prime above HASSE_MAX_PRIME, where count_points runs bsgs_count
    p = next(q for q in primes_up_to(2 * HASSE_MAX_PRIME) if q > HASSE_MAX_PRIME)
    bad = CurveRT2(1, p).to_lw()
    point_counts = (ap, count_points, count_points_exhaustive, bsgs_count, hasse_trace)
    for f in point_counts:
        with pytest.raises(BadReductionError):
            f(bad, p)
    non_integral = CurveLW(0, 0, 0, Fraction(1, p), 1)
    for f in point_counts:
        with pytest.raises(NonIntegralModelError):
            f(non_integral, p)


def test_frobenius_table_examples():
    t = frobenius_table(E_XCUBE_MINUS_X, 7)
    assert dict(t.entries) == {3: 0, 5: -2, 7: 0}
    assert frobenius_table(E_XCUBE_MINUS_X, 1).entries == ()
    t = frobenius_table(E_37, 3)
    assert dict(t.entries) == {2: -2, 3: -3}


def test_hasse_bound_random_curves():
    rng = random.Random(53)
    for _ in range(50):
        c = random_lw(rng)
        for p, t in frobenius_table(c, 200).entries:
            assert t * t <= 4 * p


def test_to_rt2_examples():
    # roots {-2, 1, 2}: y^2 = (x-1)(x-2)(x+2) = x^3 - x^2 - 4x + 4
    assert to_rt2(CurveLW(0, -1, 0, -4, 4)) == CurveRT2(3, 4)
    assert to_rt2(CurveLW(0, 0, 0, 6, -2)) == NO_TWO_TORSION
    # 37a1 has a3 = 1 and no rational 2-torsion
    assert to_rt2(E_37) == NO_TWO_TORSION


def test_to_rt2_rational_roots():
    # roots {0, 1/4, 2}: scaling by 4^2 gives integer roots {0, 4, 32}
    c = CurveLW(0, Fraction(-9, 4), 0, Fraction(1, 2), 0)
    assert to_rt2(c) == CurveRT2(4, 32)


def test_root_choice_independence():
    import itertools
    rng = random.Random(61)
    for _ in range(30):
        c = random_rt2(rng)
        roots = [0, c.a, c.b]
        js = set()
        for k in range(3):
            rest = [roots[i] for i in range(3) if i != k]
            for perm in itertools.permutations(rest):
                js.add(j_invariant_rt2(CurveRT2(perm[0] - roots[k], perm[1] - roots[k])))
        assert len(js) == 1


def test_cm_status_examples():
    assert cm_status(E_XCUBE_MINUS_X).verdict == "cm"  # j = 1728
    assert cm_status(CurveLW(0, 0, 0, 0, -1)).verdict == "cm"  # j = 0
    curve = CurveLW(0, 0, 0, 6, -2)
    st = cm_status(curve)
    assert st.verdict == "not_cm" and curve.j() == 1536
    assert st.evidence.startswith("j = 1536 is not in the rational CM list")


def test_is_cm_j_is_membership_of_the_rational_j():
    rng = random.Random(28)
    panel = [j + k for j in CM_J_INVARIANTS for k in (-1, 0, 1)]
    panel += [Fraction(j, d) for j in CM_J_INVARIANTS for d in (1, 2, 7, 1728)]
    panel += [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 50)) for _ in range(300)]
    for x in panel:
        assert is_cm_j(x) == (Fraction(x) in CM_J_INVARIANTS), x
    assert all(is_cm_j(j) and is_cm_j(Fraction(j)) for j in CM_J_INVARIANTS)
    assert is_cm_j(Fraction(2 * 1728, 2)) and not is_cm_j(Fraction(1728, 5))


def test_cm_list_validated_by_supersingular_oracle():
    # every hard-coded CM j-invariant must come with a curve whose
    # supersingular frequency is at least 0.35 for p <= 500
    for j in CM_J_INVARIANTS:
        c = curve_with_j(j)
        assert c.j() == j
        zeros, total = supersingular_fraction(c, 500)
        assert total > 50
        assert Fraction(zeros, total) >= Fraction(35, 100), (j, zeros, total)


def test_not_cm_low_supersingular_frequency():
    for c in (CurveLW(0, 0, 0, 6, -2), CurveRT2(3, 4).to_lw()):
        zeros, total = supersingular_fraction(c, 500)
        assert Fraction(zeros, total) < Fraction(15, 100)


def test_cm_verdicts_match_statistic():
    for c in (E_XCUBE_MINUS_X, CurveLW(0, 0, 0, 0, -1)):
        zeros, total = supersingular_fraction(c, 500)
        assert Fraction(zeros, total) > Fraction(35, 100)


def test_point_order():
    assert point_order(E_SEXTIC, (Fraction(2), Fraction(3))) == 6
    assert point_order(E_SEXTIC, (Fraction(0), Fraction(1))) == 3
    assert point_order(E_SEXTIC, (Fraction(-1), Fraction(0))) == 2
    assert point_order(E_SEXTIC, None) == 1
    with pytest.raises(ValueError):
        point_order(E_SEXTIC, (Fraction(5), Fraction(5)))


def test_singular_inputs_rejected():
    with pytest.raises(SingularCurveError):
        CurveRT2(0, 2)
    with pytest.raises(SingularCurveError):
        CurveRT2(3, 3)
    with pytest.raises(SingularCurveError):
        CurveLW(0, 0, 0, 0, 0)


# -- rational roots of monic cubics: rational_roots against divisor enumeration -


def _divisors(n):
    """All positive divisors of a nonzero integer, from its factorization."""
    divs = [1]
    for p, e in factor(abs(n)).factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def divisor_integer_roots(coeffs):
    """Integer roots of y^n + coeffs[0] y^(n-1) + ... + coeffs[-1] by the
    rational root test: a nonzero root divides the constant term, and a zero
    constant term splits off the root 0."""
    if not coeffs:
        return set()
    if coeffs[-1] == 0:
        return {0} | divisor_integer_roots(coeffs[:-1])
    roots = set()
    for d in _divisors(coeffs[-1]):
        for r in (d, -d):
            v = 1
            for c in coeffs:
                v = v * r + c
            if v == 0:
                roots.add(r)
    return roots


def divisor_roots(c2, c1, c0):
    """Rational roots of x^3 + c2 x^2 + c1 x + c0: after y = L x, with L the
    common denominator, they are the integer roots divided by L."""
    L = 1
    for c in (c2, c1, c0):
        L = L * c.denominator // math.gcd(L, c.denominator)
    roots = divisor_integer_roots([int(c2 * L), int(c1 * L * L), int(c0 * L**3)])
    return sorted(Fraction(r, L) for r in roots)


def _monic_from_roots(roots):
    r0, r1, r2 = roots
    return -(r0 + r1 + r2), r0 * r1 + r0 * r2 + r1 * r2, -r0 * r1 * r2


def _shift_cubic(c, r):
    """Coefficients of p(x - r) for the monic cubic p with coefficients c."""
    c2, c1, c0 = c
    return (c2 - 3 * r, c1 - 2 * c2 * r + 3 * r * r, c0 - c1 * r + c2 * r * r - r**3)


def random_monic_cubic(rng):
    kind = rng.randrange(6)
    if kind == 0:  # three integer roots
        c = _monic_from_roots([rng.randint(-300, 300) for _ in range(3)])
    elif kind == 1:  # a double root
        r, s = rng.randint(-300, 300), rng.randint(-300, 300)
        c = _monic_from_roots([r, r, s])
    elif kind == 2:  # three integer roots, one coefficient perturbed
        c = list(_monic_from_roots([rng.randint(-300, 300) for _ in range(3)]))
        c[rng.randrange(3)] += rng.choice((-2, -1, 1, 2))
    elif kind == 3:  # rational roots with small denominators
        roots = [Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(3)]
        c = _monic_from_roots(roots)
    elif kind == 4:  # arbitrary small coefficients
        c = [rng.randint(-2000, 2000) for _ in range(3)]
    else:  # an integer root r and an irrational root within 1 of it, with a
        # critical point of the cubic between them
        r, n = rng.randint(-300, 300), rng.randint(3, 400)
        k, s, t = rng.randint(1, n - 1), rng.choice((-1, 1)), rng.choice((-1, 1))
        # u (u^2 - s n u + s k) in u = x - r, mirrored to -u when t = -1
        c = _shift_cubic((-s * t * n, s * k, 0), r)
    return tuple(Fraction(v) for v in c)


def rational_roots_monic_cubic(c2, c1, c0):
    """The rational roots of the separable x^3 + c2 x^2 + c1 x + c0, in
    increasing order: arith.rational_roots of L times it, L the common
    denominator of its coefficients."""
    L = math.lcm(*(Fraction(c).denominator for c in (c2, c1, c0)))
    return rational_roots([int(c * L) for c in (c0, c1, c2, 1)])


def cubic_discriminant(c2, c1, c0):
    """The discriminant of x^3 + c2 x^2 + c1 x + c0."""
    return 18 * c2 * c1 * c0 - 4 * c2**3 * c0 + c2 * c2 * c1 * c1 - 4 * c1**3 - 27 * c0 * c0


def test_rational_roots_of_cubics_match_divisor_enumeration():
    # a cubic with a repeated root has a rational repeated root, a repeated
    # root mod every prime: rational_roots raises ValueError on those
    rng = random.Random(5003)
    cubics = [random_monic_cubic(rng) for _ in range(5000)]
    cubics += [(Fraction(0),) * 3, (Fraction(-3), Fraction(3), Fraction(-1)),  # x^3, (x-1)^3
               (Fraction(0), Fraction(-3), Fraction(2)),  # (x-1)^2 (x+2)
               (Fraction(0), Fraction(1), Fraction(0)),  # x (x^2 + 1)
               (Fraction(-9, 4), Fraction(1, 2), Fraction(0))]
    counts, repeated = set(), 0
    for c in cubics:
        if cubic_discriminant(*c) == 0:
            with pytest.raises(ValueError):
                rational_roots_monic_cubic(*c)
            repeated += 1
            continue
        got = rational_roots_monic_cubic(*c)
        assert got == divisor_roots(*c), c
        counts.add(len(got))
    assert counts == {0, 1, 3}
    assert repeated > 500


def test_rational_roots_of_large_cubics():
    # roots of 60 and 200 digits, where divisor enumeration cannot run
    for digits in (60, 200):
        big = 10**digits
        roots = [-big + 7, 3 * big // 7, big + 1]
        c = [Fraction(v) for v in _monic_from_roots(roots)]
        assert rational_roots_monic_cubic(*c) == sorted(map(Fraction, roots))
        c[2] += 1
        assert rational_roots_monic_cubic(*c) == []

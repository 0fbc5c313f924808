"""Elliptic curve models over Q: invariants, isomorphism over Q
(same_curve), reduction, point counting over F_p (exhaustive below 17, from
the Hasse invariant up to 650, and by baby-step giant-step in the Hasse
interval above it) with an exhaustive recount of a cited trace
(verify_trace), Frobenius trace tables, and complex-multiplication status.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm

from .arith import Rational, Record, is_prime, is_square, primes_up_to, rational_roots


class SingularCurveError(ValueError):
    """The supplied coefficients define a singular cubic."""


class NonIntegralModelError(ValueError):
    """The model is not p-integral; the caller must rescale first."""


class BadReductionError(ValueError):
    """Point counting requested at a prime of bad reduction."""


class CurveRT2(Record):
    """y^2 = x(x-a)(x-b) with distinct nonzero integers a, b.

    All three points of order 2 are rational: (0,0), (a,0), (b,0).
    """

    __match_args__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a == 0 or b == 0 or a == b:
            raise SingularCurveError(f"x(x-{a})(x-{b}) is not separable")
        self.__dict__.update(a=a, b=b)

    def to_lw(self) -> "CurveLW":
        """The long model, carrying its 2-torsion: cubic_roots, the integer
        roots 0, a, b of x(x-a)(x-b) in increasing order, and the rt2 form
        with the smallest moved to 0, as a root search and to_rt2 would
        find them."""
        a, b = self.a, self.b
        curve = CurveLW(0, -(a + b), 0, a * b, 0)
        r0, r1, r2 = sorted((0, a, b))
        object.__setattr__(curve, "cubic_roots", [Fraction(r0), Fraction(r1), Fraction(r2)])
        object.__setattr__(curve, "_rt2", CurveRT2(r1 - r0, r2 - r0))
        return curve

    def j(self) -> Rational:
        return j_invariant_rt2(self)


def _b_invariants(a1, a2, a3, a4, a6):
    """b2, b4, b6, b8 of a long model, in the coefficients' own type."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


class CurveLW(Record):
    """Long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    Construction works in integers on the integral model u^i a_i (u the lcm
    of the denominators of a1..a6).  short_model, the one record of the
    curve's isomorphism class over Q, is y^2 = x^3 + A x + B with
    A = -27 c4 u^4 and B = -54 c6 u^6 (Cremona, 3.1), isomorphic to the model
    over Q and over F_p for p not dividing 6u.  j, the rt2 form, the a_p and
    the x of the rational 2-torsion points are memos kept on the object;
    equality and hashing read a1..a6 only, so equal objects share no memo.
    """

    __match_args__ = ("a1", "a2", "a3", "a4", "a6")

    def __init__(self, a1, a2, a3, a4, a6):
        coeffs = [Fraction(v) for v in (a1, a2, a3, a4, a6)]
        u = lcm(*(c.denominator for c in coeffs))
        a1, a2, a3, a4, a6 = (
            c.numerator * (u**i // c.denominator) for c, i in zip(coeffs, (1, 2, 3, 4, 6)))
        b2, b4, b6, b8 = _b_invariants(a1, a2, a3, a4, a6)
        disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if disc == 0:
            raise SingularCurveError("zero discriminant")
        # short_model and the private fields are computed once from a1..a6;
        # equality, hashing and repr ignore them.  _disc, _b246 and _b8 are
        # the discriminant and b2, b4, b6, b8 of the integral model, and _ap
        # holds a_p by good prime p, filled by ap()
        self.__dict__.update(
            zip(self.__match_args__, coeffs),
            short_model=(-27 * (b2 * b2 - 24 * b4), 54 * (b2**3 - 36 * b2 * b4 + 216 * b6)),
            _u=u, _disc=disc, _b246=(b2, b4, b6), _b8=b8, _ap={})

    def b_invariants(self) -> tuple[Rational, Rational, Rational, Rational]:
        """b2, b4, b6, b8 of this model: b_i has weight i, so it is the
        integral model's b_i over u^i."""
        u2 = self._u**2
        b2, b4, b6 = self._b246
        return Fraction(b2, u2), Fraction(b4, u2**2), Fraction(b6, u2**3), Fraction(self._b8, u2**4)

    def discriminant(self) -> Rational:
        return Fraction(self._disc, self._u**12)

    def j(self) -> Rational:
        return self._j

    @cached_property
    def _j(self) -> Rational:
        b2, b4, _ = self._b246
        return Fraction((b2 * b2 - 24 * b4) ** 3, self._disc)

    @cached_property
    def _rt2(self) -> CurveRT2 | str:
        return _rt2_form(self)

    @cached_property
    def cubic_roots(self) -> list[Rational]:
        """The x of the rational points of order 2, in increasing order: the
        distinct rational roots of 4x^3 + b2 x^2 + 2 b4 x + b6, which are the
        roots of x^3 + a2 x^2 + a4 x + a6 when a1 = a3 = 0.

        On the integral model (x -> x / u^2) y = 4x turns the cubic monic
        and integral, y^3 + b2 y^2 + 8 b4 y + 16 b6, so its rational roots
        are integers, found by arith.rational_roots, and x = y / (4 u^2).
        The cubic is separable because the discriminant is not 0."""
        b2, b4, b6 = self._b246
        scale = 4 * self._u**2
        return [y / scale for y in rational_roots([16 * b6, 8 * b4, b2, 1])]

    def is_p_integral(self, p: int) -> bool:
        """Whether no coefficient has the prime p in its denominator."""
        return self._u % p != 0

    def key(self) -> tuple:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def label(self) -> str:
        return "[" + ",".join(str(c) for c in self.key()) + "]"


def j_invariant_rt2(curve: CurveRT2) -> Rational:
    """j of y^2 = x(x-a)(x-b): 256 (a^2+b^2-ab)^3 / (a^2 b^2 (a-b)^2)."""
    a, b = curve.a, curve.b
    num = 256 * (a * a + b * b - a * b) ** 3
    den = a * a * b * b * (a - b) ** 2
    return Fraction(num, den)


def j_invariant_sw(p: int | Rational, q: int | Rational) -> Rational:
    """j of y^2 = x^3 + px + q: 1728 * 4p^3 / (4p^3 + 27q^2)."""
    p, q = Fraction(p), Fraction(q)
    disc = 4 * p**3 + 27 * q * q
    if disc == 0:
        raise SingularCurveError("4p^3 + 27q^2 = 0")
    return 1728 * 4 * p**3 / disc


def _integer_root(n: int, k: int) -> int | None:
    """The integer r with r^3 = n for k = 3 (n >= 1, so x^3 - n is
    separable), or r >= 0 with r^2 = n for k = 2; None when there is none."""
    if k == 2:
        return isqrt(n) if is_square(n) else None
    return next((int(r) for r in rational_roots([-n, 0, 0, 1])), None)


def _is_rational_power(q: Fraction, *ks: int) -> bool:
    """Whether q = u^(k1 k2 ...) for a rational u, taking integer k-th roots
    of the coprime numerator and denominator in turn."""
    num, den = q.numerator, q.denominator
    for k in ks:
        num, den = _integer_root(num, k), _integer_root(den, k)
        if num is None or den is None:
            return False
    return True


def same_curve(e: CurveLW, e2: CurveLW) -> bool:
    """Isomorphism over Q: A' = u^4 A and B' = u^6 B for a rational u != 0,
    (A, B) the curves' short models (Cremona, Algorithms for Modular
    Elliptic Curves, 3.1).

    With j equal and j not in {0, 1728}, A' = L^2 A and B' = L^3 B for
    L = B' A / (B A'), so u exists iff L is a square.  At j = 1728 (B = 0)
    A'/A must be a fourth power, at j = 0 (A = 0) B'/B a sixth power.
    Twists with equal j are deliberately not "same"."""
    if e.j() != e2.j():
        return False
    (A, B), (A2, B2) = e.short_model, e2.short_model
    if A == 0:
        return _is_rational_power(Fraction(B2, B), 2, 3)
    if B == 0:
        return _is_rational_power(Fraction(A2, A), 2, 2)
    return _is_rational_power(Fraction(B2 * A, B * A2), 2)


def good_reduction_at(curve: CurveLW, p: int) -> bool:
    """Whether p does not divide the supplied model's discriminant.

    The model is taken as given (no minimalization), so a False here may be an
    artifact of a non-minimal model; callers treating False as "bad" only ever
    weaken certificates.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not curve.is_p_integral(p):
        raise NonIntegralModelError(f"model is not {p}-integral")
    return curve._disc % p != 0


def is_good_prime(curve: CurveLW, p: int) -> bool:
    """Whether the model is p-integral with good reduction at p, for a p the
    caller already knows to be prime (from primes_up_to): no primality test,
    and False where good_reduction_at would raise NonIntegralModelError."""
    return curve.is_p_integral(p) and curve._disc % p != 0


def _require_good_reduction(curve: CurveLW, p: int) -> None:
    # good_reduction_at raises NonIntegralModelError itself
    if not good_reduction_at(curve, p):
        raise BadReductionError(f"bad reduction at {p}")


def _reduce(c: Rational, p: int) -> int:
    return c.numerator * pow(c.denominator, -1, p) % p


def count_points_exhaustive(curve: CurveLW, p: int) -> int:
    """#E(F_p) including the point at infinity, by exhaustive enumeration of x.

    For odd p the quadratic in y is resolved by its discriminant against a
    table of squares mod p; p = 2 is exhausted directly.
    """
    _require_good_reduction(curve, p)
    a1, a2, a3, a4, a6 = (
        _reduce(c, p) for c in (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6))
    if p == 2:
        n = 1
        for x in (0, 1):
            for y in (0, 1):
                if (y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)) % 2 == 0:
                    n += 1
        return n
    # number of y with y^2 + (a1 x + a3) y = rhs(x)  is  1 + chi(disc)
    sq = bytearray(p)
    for y in range((p + 1) // 2):
        sq[y * y % p] = 1
    n = 1
    for x in range(p):
        rhs = ((x + a2) * x + a4) * x + a6
        t = a1 * x + a3
        d = (t * t + 4 * rhs) % p
        if d == 0:
            n += 1
        elif sq[d]:
            n += 2
    return n


# -- a_p from the Hasse invariant -------------------------------------------

# the least p with 2 sqrt(p) < p/2: from here on the residue of a_p mod p in
# (-p/2, p/2) is a_p itself (Hasse's bound)
HASSE_MIN_PRIME = 17


def hasse_trace(curve: CurveLW, p: int) -> int:
    """a_p at a good prime p >= HASSE_MIN_PRIME, from the Hasse invariant.

    On y^2 = f(x) = x^3 + A x + B, the short_model mod p, chi(f(x)) is
    f(x)^m with m = (p - 1)/2.  Summed over x in F_p, a power x^e of
    0 < e < 2(p - 1) leaves -1 for e = p - 1 and 0 otherwise, so
    #E = p + 1 + sum_x chi(f(x)) is 1 - H mod p and a_p = H mod p, where H
    is the coefficient of x^(p-1) in f^m (Silverman, AEC, V.4.1 and its
    proof).  Hasse's bound then makes a_p the residue of H in (-p/2, p/2).

    The terms of H are c_i A^j B^k with c_i = m!/(i! j! k!), j = 2m - 3i
    and k = 2i - m, for lo = ceil(m/2) <= i <= hi = floor(2m/3).  With
    X = A^3 and Y = B^2, H = c_hi A^j(hi) B^k(lo) W, where
    W = sum_i (c_i/c_hi) X^(hi-i) Y^(i-lo) is summed from i = lo upward as
    one fraction num/den, by c_i/c_(i+1) = (i+1)(k+1)(k+2) / (j(j-1)(j-2)):
    about p/12 steps, none dividing by A or B, so A = 0 or B = 0 needs no
    case of its own.  c_hi takes about p/6 products more, since j(hi) <= 2,
    and the quotient one inversion.

    Raises like count_points_exhaustive at a bad prime or on a model that is
    not p-integral, and ValueError below HASSE_MIN_PRIME.
    """
    _require_good_reduction(curve, p)
    if p < HASSE_MIN_PRIME:
        raise ValueError(f"a_p from the Hasse invariant needs p >= {HASSE_MIN_PRIME}")
    A, B = (c % p for c in curve.short_model)
    X, Y = A * A * A % p, B * B % p
    m = (p - 1) // 2
    lo, hi = (m + 1) // 2, 2 * m // 3
    num = den = y_power = 1
    for i in range(lo, hi):
        j, k = 2 * m - 3 * i, 2 * i - m
        falling = j * (j - 1) * (j - 2)
        y_power = y_power * Y % p
        num = (falling * y_power * den + (i + 1) * (k + 1) * (k + 2) * X * num) % p
        den = falling * den % p
    # times c_hi A^j(hi) B^k(lo), c_hi = m!/(hi! j! k!) at i = hi
    j, k = 2 * m - 3 * hi, 2 * hi - m
    num = num * A**j * B ** (2 * lo - m) % p
    for t in range(hi + 1, m + 1):
        num = num * t % p
    for t in (*range(2, j + 1), *range(2, k + 1)):
        den = den * t % p
    h = num * pow(den, -1, p) % p
    return h - p if 2 * h > p else h


# -- #E(F_p) by baby-step giant-step in the Hasse interval -------------------
#
# Points are affine pairs (x, y) over F_p on y^2 = x^3 + a x + b, or None for
# the point at infinity; the group law needs only a.

# count_points reads a_p from the Hasse invariant up to HASSE_MAX_PRIME and
# counts by bsgs_count above it: there E or its quadratic twist always has a
# point whose order has exactly one multiple in the Hasse interval (Cremona
# and Sutherland, J. Theor. Nombres Bordeaux 22, 2010), so a few sampled
# points almost always decide, and hasse_trace covers the rest.  The switch
# is where the two cost the same: hasse_trace takes about p/12 steps and
# bsgs_count about p^(1/4) group operations, and on ten curves over Q they
# measured 41 against 43 us per call at 600 < p <= 650 and 46 against 46 us
# at 650 < p <= 700.  No scan reads it: the exits read isogeny.X0_EXIT_PRIME.
HASSE_MAX_PRIME = 650
# x = 0, 1, ... tried before bsgs_count gives up
_BSGS_TRIES = 16


def _ec_add(P, Q, a: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(n: int, P, a: int, p: int):
    R = None
    while n:
        if n & 1:
            R = _ec_add(R, P, a, p)
        P = _ec_add(P, P, a, p)
        n >>= 1
    return R


def _killing_multipliers(P, a: int, p: int, lo: int, hi: int) -> list[int] | None:
    """Every m in [lo, hi] with m P = O, by baby-step giant-step; None when P
    has order below the baby-step count s (its multiples crowd the interval).

    Baby steps store jP -> j for 0 <= j < s, all distinct once P has order at
    least s; the giant step from lo in strides of s then meets -jP exactly at
    the m = base + j that kill P.
    """
    s = isqrt(hi - lo) + 1
    baby = {}
    R = None
    for j in range(s):
        if j and R is None:
            return None
        baby[R] = j
        R = _ec_add(R, P, a, p)
    Q = _ec_mul(lo, P, a, p)
    found = []
    for base in range(lo, hi + 1, s):
        j = baby.get(None if Q is None else (Q[0], -Q[1] % p))
        if j is not None and base + j <= hi:
            found.append(base + j)
        Q = _ec_add(Q, R, a, p)
    return found


def bsgs_count(curve: CurveLW, p: int) -> int | None:
    """#E(F_p) by Shanks-Mestre baby-step giant-step, or None if undecided.

    Works on y^2 = x^3 + A x + B, the curve's short_model mod p, isomorphic
    to the model over F_p for p > 3.  For x0 = 0, 1, ... with d = x0^3 + A x0 + B
    nonzero, (d x0, d^2) lies on y^2 = x^3 + A d^2 x + B d^3: that is E when d
    is a square mod p and its quadratic twist E' otherwise, and
    #E' = 2p + 2 - #E.  Each point leaves as candidates the N in the Hasse
    interval [p + 1 - w, p + 1 + w], w = floor(2 sqrt p), with N P = O
    (respectively (2p + 2 - N) P = O).  #E is always a candidate, so a single
    survivor is #E.  Raises like count_points_exhaustive at a bad prime or on
    a model that is not p-integral.
    """
    _require_good_reduction(curve, p)
    if p <= 3:
        return None
    A, B = (c % p for c in curve.short_model)
    w = isqrt(4 * p)
    lo, hi = p + 1 - w, p + 1 + w
    candidates = None
    for x in range(min(p, _BSGS_TRIES)):
        d = ((x * x + A) * x + B) % p
        if d == 0:  # a point of order 2
            continue
        kills = _killing_multipliers((d * x % p, d * d % p), A * d * d % p, p, lo, hi)
        if kills is None:
            continue
        if pow(d, (p - 1) // 2, p) != 1:
            kills = [2 * p + 2 - m for m in kills]
        candidates = set(kills) if candidates is None else candidates.intersection(kills)
        if len(candidates) == 1:
            return candidates.pop()
    return None


def count_points(curve: CurveLW, p: int) -> int:
    """#E(F_p) including the point at infinity, at a good prime.

    count_points_exhaustive below HASSE_MIN_PRIME; p + 1 - hasse_trace from
    there up to HASSE_MAX_PRIME, and above it wherever bsgs_count cannot
    decide; bsgs_count otherwise.
    """
    if p < HASSE_MIN_PRIME:
        return count_points_exhaustive(curve, p)
    if p > HASSE_MAX_PRIME:
        n = bsgs_count(curve, p)
        if n is not None:
            return n
    return p + 1 - hasse_trace(curve, p)


def ap(curve: CurveLW, p: int) -> int:
    """Frobenius trace a_p = p + 1 - #E(F_p) at a good prime.

    Memoized on the curve object, so one object counts points at p once.
    Nothing is kept between objects: a batch that wants its analyses to
    share a_p passes the same curve object to each of them.
    """
    known = curve._ap
    if p not in known:
        known[p] = p + 1 - count_points(curve, p)
    return known[p]


class WitnessVerificationError(RuntimeError):
    """A cited a_p disagreed with its exhaustive recount: a program fault,
    never an input error."""


def verify_trace(curve: CurveLW, p: int, t: int) -> None:
    """Check a cited a_p against the exhaustive point count at p."""
    exact = p + 1 - count_points_exhaustive(curve, p)
    if t != exact:
        raise WitnessVerificationError(
            f"a_{p} of {curve.label()} was {t}, exhaustive count gives {exact}")


def good_primes(curves: tuple[CurveLW, ...], bound: int, skip: int = 0):
    """The primes a trace scan reads, lazily in increasing order: p <= bound,
    p != skip, at which every curve in the tuple is good (is_good_prime).
    Every scan of a_p takes its primes here but nonisogeny_certificate."""
    for p in primes_up_to(bound):
        if p != skip and all(is_good_prime(c, p) for c in curves):
            yield p


class FrobeniusTable(Record):
    """a_p for all good primes p <= bound of one curve model."""

    __match_args__ = ("curve", "bound", "entries")

    def __init__(self, curve: str, bound: int, entries: tuple[tuple[int, int], ...]):
        self.__dict__.update(curve=curve, bound=bound, entries=entries)


def frobenius_table(curve: CurveLW, bound: int) -> FrobeniusTable:
    entries = tuple((p, ap(curve, p)) for p in good_primes((curve,), bound))
    for p, t in entries:
        if t * t > 4 * p:
            raise AssertionError(f"Hasse bound violated at {p}: a_p = {t}")
    return FrobeniusTable(curve.label(), bound, entries)


NO_TWO_TORSION = "no rational 2-torsion"


def to_rt2(curve: CurveLW) -> CurveRT2 | str:
    """The form y^2 = x(x-a)(x-b) of a curve whose 2-torsion is rational.

    The roots are the x of the points of order 2 (cubic_roots), which
    completing the square, (y + (a1 x + a3)/2)^2 = x^3 + (b2/4) x^2 +
    (b4/2) x + b6/4, leaves in place on every model.  The smallest root
    goes to 0 and the remaining roots, sorted ascending, give (a, b); fewer
    than three rational roots give NO_TWO_TORSION.  Computed once per curve
    object; a model built by CurveRT2.to_lw carries its form from the start.
    """
    return curve._rt2


def _rt2_form(curve: CurveLW) -> CurveRT2 | str:
    roots = curve.cubic_roots
    if len(roots) < 3:
        return NO_TWO_TORSION
    # scaling x by u^2 (u = common denominator) keeps the curve isomorphic
    # over Q and makes the roots integral
    u = lcm(*(r.denominator for r in roots))
    r0, r1, r2 = (int(r * u * u) for r in roots)
    return CurveRT2(r1 - r0, r2 - r0)


# The thirteen rational j-invariants of curves with complex multiplication
# (class number one); each entry is validated by the supersingular-frequency
# oracle in the test suite rather than taken on faith.
CM_J_INVARIANTS = (
    0,
    1728,
    -3375,
    8000,
    54000,
    287496,
    -32768,
    16581375,
    -884736,
    -12288000,
    -884736000,
    -147197952000,
    -262537412640768000,
)


def is_cm_j(j: int | Rational) -> bool:
    """Whether j is the j-invariant of a CM curve over Q: an integer in
    CM_J_INVARIANTS, decided on ints."""
    return j.denominator == 1 and j.numerator in CM_J_INVARIANTS


class CMStatus(Record):
    """verdict "cm" | "not_cm"; evidence names j and the supersingular count."""

    __match_args__ = ("verdict", "evidence")

    def __init__(self, verdict: str, evidence: str):
        self.__dict__.update(verdict=verdict, evidence=evidence)


def supersingular_fraction(curve: CurveLW, bound: int) -> tuple[int, int]:
    """(number of good p <= bound with a_p = 0, number of good p <= bound)."""
    traces = [ap(curve, p) for p in good_primes((curve,), bound)]
    return traces.count(0), len(traces)


# 500 gives the supersingular statistic enough primes to be legible without
# dragging in a large trace table
CM_EVIDENCE_BOUND = 500


def cm_status(curve: CurveLW) -> CMStatus:
    """Complex-multiplication verdict by j-membership in the rational CM list,
    with the supersingular frequency up to CM_EVIDENCE_BOUND attached as
    corroborating evidence."""
    j = curve.j()
    cm = is_cm_j(j)
    frac = supersingular_fraction(curve, CM_EVIDENCE_BOUND)
    return CMStatus(
        "cm" if cm else "not_cm",
        f"j = {j} is {'' if cm else 'not '}in the rational CM list; "
        f"a_p = 0 for {frac[0]} of {frac[1]} good p <= {CM_EVIDENCE_BOUND}")


# -- rational points and the chord-tangent group law ------------------------

Point = tuple[Rational, Rational] | None  # None is the point at infinity


def on_curve(curve: CurveLW, pt: Point) -> bool:
    if pt is None:
        return True
    x, y = Fraction(pt[0]), Fraction(pt[1])
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    return y * y + a1 * x * y + a3 * y == ((x + a2) * x + a4) * x + a6


def add_points(curve: CurveLW, P: Point, Q: Point) -> Point:
    if P is None:
        return Q
    if Q is None:
        return P
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and y2 == -y1 - a1 * x1 - a3:
        return None
    if x1 != x2:
        lam = (y2 - y1) / (x2 - x1)
        nu = (y1 * x2 - y2 * x1) / (x2 - x1)
    else:
        den = 2 * y1 + a1 * x1 + a3
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / den
        nu = (-(x1**3) + a4 * x1 + 2 * a6 - a3 * y1) / den
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return (x3, y3)


def point_order(curve: CurveLW, P: Point, max_order: int = 12) -> int | None:
    """Exact order of P if it is at most max_order, else None."""
    if not on_curve(curve, P):
        raise ValueError("point is not on the curve")
    R = P
    for n in range(1, max_order + 1):
        if R is None:
            return n
        R = add_points(curve, R, P)
    return None

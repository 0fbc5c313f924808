"""Rational isogenies of degree 2, 3, 5, 7 and 13 through the modular curves
X_0(ell) of genus 0.

Each X_0(ell) with ell in {2, 3, 5, 7, 13} has a parameter t with
j = N(t)/t, and the Fricke involution t -> s/t gives the j-invariant of the
ell-isogenous curve (Maier, "On rationally parametrized modular equations",
J. Ramanujan Math. Soc. 24, 2009).  The rational roots t of N(t) - j t are
the rational ell-isogenies of a curve with j-invariant j, one each, whether
or not the kernel points have rational x-coordinates (the mu_5 kernel of
11a1 -> 11a3 is found).  Elkies' normalization (Elkies 1998; Schoof,
J. Theor. Nombres Bordeaux 7, 1995, section 7) then gives the codomain over
Q exactly, twist included, with no kernel polynomial.  The roots t come
from arith.rational_roots, without factoring.

The edges work on an integral short model y^2 = x^3 + A x + B (a curve's
short_model), given as the pair (A, B); isogeny_class walks them from a
curve to the curves of its isogeny class over Q that they reach, each once
up to curves.same_curve.  Not found: isogenies of degree 11, 17, 19, 37,
43, 67 and 163, whose X_0(ell) has positive genus, and every edge at j = 0
or 1728 (either end), where N(t) - j t has repeated roots and the codomain
formula divides by zero; such curves have CM.

A trace already read rules a degree out for the whole class: where
x^2 - a_p x + p is irreducible over F_ell (frobenius_irreducible), E[ell]
is an irreducible Galois module, so E has no rational ell-isogeny (Serre,
Invent. Math. 15, 1972), and every curve isogenous to E has the same a_p.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .arith import rational_roots
from .curves import CurveLW, j_invariant_sw, same_curve

# (ell, s, N(t) with constant term first): j = N(t)/t on X_0(ell), and the
# Fricke involution is t -> s/t
X0_TABLE = (
    (2, 2**12, (4096, 768, 48, 1)),  # (t + 16)^3
    (3, 3**6, (729, 756, 270, 36, 1)),  # (t + 27)(t + 3)^3
    (5, 5**3, (125, 750, 1575, 1300, 315, 30, 1)),  # (t^2 + 10t + 5)^3
    # (t^2 + 13t + 49)(t^2 + 5t + 1)^3
    (7, 7**2, (49, 748, 4018, 8624, 5915, 1904, 322, 28, 1)),
    # (t^2 + 5t + 13)(t^4 + 7t^3 + 20t^2 + 19t + 1)^3
    (13, 13, (13, 746, 15145, 124852, 354536, 534820, 509366, 333580, 157118,
              54340, 13832, 2548, 325, 26, 1)),
)
X0_DEGREES = tuple(ell for ell, _, _ in X0_TABLE)

# The trace scans' two exact exits, the isogeny_class walk in
# homrank.nonisogeny_certificate and the X_0(ell) root in
# oddpart.surjectivity_verdicts, run at the first prime above this one, so
# that a pair with an earlier witness never pays for them.  Each witness
# class shows at a positive density of primes, so a pair still without a
# witness here is almost always isogenous, a twist or of Borel image: the
# pairs the exits end.  Analysing the goldens and search_family(363) meets
# every non-isogeny witness at p = 3 or 5 and, at every sampled ell <= 37,
# the last witness class by p = 41 (at ell = 11), so none of them runs an
# exit.
X0_EXIT_PRIME = 50

# An isogeny class over Q has at most 8 curves (Kenku, J. Number Theory 15,
# 1982; Cremona, Algorithms for Modular Elliptic Curves, 3.8).
CLASS_SIZE_MAX = 8


def _integral(A: Fraction, B: Fraction) -> tuple[int, int]:
    u = lcm(A.denominator, B.denominator)
    return int(A * u**4), int(B * u**6)


def frobenius_irreducible(t: int, p: int, ell: int) -> bool:
    """Whether x^2 - t x + p, the characteristic polynomial of Frobenius at
    a good prime p != ell with trace t, is irreducible over F_ell: for
    ell = 2 (p odd, so the polynomial is x^2 + x + 1 or (x + 1)^2) when t is
    odd, for odd ell when t^2 - 4p is a nonsquare mod ell (Euler's
    criterion).  Then the curve has no rational ell-isogeny."""
    if ell == 2:
        return t % 2 == 1
    return pow(t * t - 4 * p, (ell - 1) // 2, ell) == ell - 1


def x0_roots(j: Fraction, ell: int) -> list[Fraction]:
    """The rational t with N(t) = j t on X_0(ell), ell in X0_DEGREES, in
    increasing order: one for each rational ell-isogeny from a curve with
    j-invariant j.  None are sought at j = 0 or 1728."""
    if j in (0, 1728):
        return []
    (N,) = (N for degree, _, N in X0_TABLE if degree == ell)
    a, b = j.numerator, j.denominator
    return rational_roots([b * c - a * (i == 1) for i, c in enumerate(N)])


def _form(f: list[int], x: int, y: int) -> int:
    """y^n f(x/y) for f of degree n, constant term first: the homogeneous
    form sum f_i x^i y^(n-i), in integers."""
    acc, xi = 0, 1
    for c in f:
        acc = acc * y + c * xi
        xi *= x
    return acc


def codomains(A: int, B: int,
              degrees: tuple[int, ...] = X0_DEGREES) -> list[tuple[int, tuple[int, int]]]:
    """(ell, the integral short model of the codomain) for every rational
    isogeny of degree ell in degrees, a subset of {2, 3, 5, 7, 13}, from
    y^2 = x^3 + A x + B (4A^3 + 27B^2 != 0) whose codomain j is not 0 or
    1728.

    With E4 = -48A, E6 = 864B and j' = -j E6/E4 = 18 j B/A, a root t of
    N(t) - j t and u = s/t give the codomain's j~ = N(u)/u and
    j~' = (J'(u) (-s/t^2) / J'(t)) j'/ell for J = N(t)/t, that is
    j~' = -t^2 D(u) j' / (s D(t) ell) with D(t) = t N'(t) - N(t); then
    E4~ = j~'^2 / (j~ (j~ - 1728)), E6~ = -j~'^3 / (j~^2 (j~ - 1728)) and
    the codomain is y^2 = x^3 - (E4~/48) x + E6~/864.

    All of it is integer arithmetic.  With j = jn/jd, t = tn/td,
    u = P/Q for P = s td and Q = tn, and the homogeneous forms N^ and D^
    (_form) of N and D, both of degree n: j~ = a/b with a = N^(P, Q) and
    b = P Q^(n-1), and j~' = c/d with c = -18 jn B td^(n-2) D^(P, Q) and
    d = s ell A jd tn^(n-2) D^(tn, td).  So -E4~/48 = -(cb)^2 / (48 d^2 a e)
    and E6~/864 = -(cb)^3 / (864 d^3 a^2 e) with e = a - 1728 b, the only
    two Fractions built.
    """
    j = j_invariant_sw(A, B)
    out = []
    for ell, s, N in X0_TABLE:
        if ell not in degrees:
            continue
        D = [(i - 1) * c for i, c in enumerate(N)]
        n = len(N) - 1
        for t in x0_roots(j, ell):
            tn, td = t.numerator, t.denominator
            P, Q = s * td, tn
            a, b = _form(N, P, Q), P * Q ** (n - 1)
            e = a - 1728 * b
            if a == 0 or e == 0:  # j~ = 0 or 1728
                continue
            cb = -18 * j.numerator * B * td ** (n - 2) * _form(D, P, Q) * b
            d = s * ell * A * j.denominator * tn ** (n - 2) * _form(D, tn, td)
            out.append((ell, _integral(Fraction(-cb * cb, 48 * d * d * a * e),
                                       Fraction(-cb**3, 864 * d**3 * a * a * e))))
    return out


def isogeny_class(curve: CurveLW, traces: tuple[tuple[int, int], ...] = ()):
    """Yield the curves reached from the curve by rational isogenies of
    degree 2, 3, 5, 7 and 13 (codomains, which skips every edge at j = 0 or
    1728), as integral short models, breadth first and each once up to
    isomorphism over Q (same_curve), at most CLASS_SIZE_MAX of them; the
    first is the curve itself.

    traces, pairs (p, a_p) of the curve at good primes, rule degrees out:
    an ell with frobenius_irreducible at some p != ell is not walked, from
    any curve of the class."""
    degrees = tuple(ell for ell in X0_DEGREES
                    if not any(p != ell and frobenius_irreducible(t, p, ell) for p, t in traces))
    reached = [CurveLW(0, 0, 0, *curve.short_model)]
    yield reached[0]
    for model in reached:  # grows while it is walked
        for _, codomain in codomains(int(model.a4), int(model.a6), degrees):
            image = CurveLW(0, 0, 0, *codomain)
            if any(same_curve(image, seen) for seen in reached):
                continue
            reached.append(image)
            yield image
            if len(reached) == CLASS_SIZE_MAX:
                return


def isogenous(e: CurveLW, e2: CurveLW) -> bool:
    """True when the walk from E reaches E', which certifies a chain of
    Q-isogenies from E to E' (prime-degree chains run both ways, through
    the dual isogenies); False proves nothing (an isogeny of degree 11, 17,
    19, 37, 43, 67 or 163, or through j = 0 or 1728, is not walked)."""
    return any(same_curve(model, e2) for model in isogeny_class(e))

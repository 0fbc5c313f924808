"""Rational isogenies of degree 2, 3, 5 and 7 whose kernels have rational
x-coordinates: division polynomials, their rational roots found without
factoring, and the codomain by Velu's formulas (C. R. Acad. Sci. Paris 273,
1971) in Kohel's kernel-polynomial form.

Everything works on an integral short model y^2 = x^3 + A x + B, given as
the pair (A, B).  A kernel of odd degree ell is {O, +-P, ..., +-(ell-1)/2 P}
and is given by the x-coordinates of its (ell - 1)/2 pairs +-kP; a kernel of
degree 2 by the x-coordinate of its point.  Rational x(P) makes the kernel
Galois-stable (sigma P = +-P), so each one found is a rational isogeny.

An x-rational point P of odd order ell is a rational point of order ell on
the quadratic twist by y(P)^2, so ell <= 7 by Mazur (Publ. Math. IHES 47,
1977): the four degrees cover every x-rational kernel of prime degree.
Rational isogenies whose kernel is not x-rational (the mu_5 kernel of
11a1 -> 11a3, any of degree 11 or more) are not found here.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .arith import is_prime
from .curves import CurveLW, _integer_roots_monic_cubic

KERNEL_DEGREES = (2, 3, 5, 7)

Poly = list[int]  # integer coefficients, constant term first


def short_model(curve: CurveLW) -> tuple[int, int]:
    """(A, B) with A = -27 c4 u^4 and B = -54 c6 u^6 integers, u the lcm of
    the denominators of -27 c4 and -54 c6: an integral short model
    isomorphic to the curve over Q (u = 1 for an integral model)."""
    return _integral(-27 * curve._c4, -54 * curve._c6)


def _integral(A: Fraction, B: Fraction) -> tuple[int, int]:
    u = lcm(A.denominator, B.denominator)
    return int(A * u**4), int(B * u**6)


# -- division polynomials ------------------------------------------------------


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


def _eval(f: Poly, x, m: int = 0):
    """f(x), or f(x) mod m for m > 0."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
        if m:
            acc %= m
    return acc


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


# -- rational roots --------------------------------------------------------------


def rational_roots(f: Poly, avoid: int) -> list[Fraction]:
    """The rational roots of f, an integer polynomial without repeated roots
    over Q, found without factoring.

    y = c x (c the leading coefficient) turns c^(n-1) f(y/c) into a monic
    integer polynomial g, whose rational roots are integers.  Its roots mod
    the smallest prime p >= 5 with p not dividing avoid * c and no repeated
    root mod p are Hensel-lifted modulo p^(2^k) > 2M, M = 1 + max |g_i| the
    Cauchy bound on |y|; a lift becomes a root only when g(y) = 0 exactly.
    """
    n = len(f) - 1
    if n < 1:
        return []
    c = f[n]
    g = [f[i] * c ** (n - 1 - i) for i in range(n)] + [1]
    dg = [i * g[i] for i in range(1, n + 1)]
    bound = 1 + max(abs(a) for a in g[:n])
    p = 5
    while True:
        if (avoid * c) % p:
            gp, dgp = [a % p for a in g], [a % p for a in dg]
            roots = [r for r in range(p) if _eval(gp, r, p) == 0]
            if all(_eval(dgp, r, p) for r in roots):
                break
        p += 1
        while not is_prime(p):
            p += 1
    out = []
    for r in roots:
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - _eval(g, r, m) * pow(_eval(dg, r, m), -1, m)) % m
        y = r - m if 2 * r > m else r
        # an integer root divides the constant term; that test is cheap
        if abs(y) <= bound and (g[0] % y == 0 if y else g[0] == 0) and _eval(g, y) == 0:
            out.append(Fraction(y, c))
    return out


# -- kernels and codomains ---------------------------------------------------------


def _x_multiple(psi: dict[int, Poly], x: Fraction, k: int) -> Fraction:
    """x(kP) = x(P) - psi_(k-1) psi_(k+1) / psi_k^2 for k = 2, 3 (the
    doubling formula at k = 2), in the g_n of division_polynomials."""
    F = _eval(psi[0], x)
    below, above, mid = (_eval(psi[i], x) for i in (k - 1, k + 1, k))
    if k % 2:
        return x - F * below * above / (mid * mid)
    return x - below * above / (F * mid * mid)


def kernels(A: int, B: int, ell: int,
            psi: dict[int, Poly] | None = None) -> list[tuple[Fraction, ...]]:
    """Every ell-kernel of y^2 = x^3 + A x + B with rational x-coordinates,
    for ell in KERNEL_DEGREES: (x(P),) at ell = 2 (an integer root of the
    monic 2-division cubic, by curves' bisection), (x(P), ..., x((ell-1)/2 P))
    for odd ell (roots of psi_ell).
    psi, when given, is division_polynomials(A, B)."""
    if ell not in KERNEL_DEGREES:
        raise ValueError(f"kernels of degree {ell} are not searched")
    if ell == 2:
        return [(Fraction(x),) for x in sorted(_integer_roots_monic_cubic(0, A, B))]
    psi = psi or division_polynomials(A, B)
    out: list[tuple[Fraction, ...]] = []
    seen: set[Fraction] = set()
    for x in rational_roots(psi[ell], ell * (4 * A**3 + 27 * B * B)):
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

"""Triviality certificates for odd-order transcendental Brauer classes, and
congruence evidence for deliberately non-trivial odd classes.

Every certificate is one-sided and carries its witnesses, so a report can be
re-checked without re-running the search.

The determinant of the mod-ell Galois representation of a curve over Q is
onto F_ell^*, a theorem rather than an assumption: by the Weil pairing it is
the mod-ell cyclotomic character, whose image is Gal(Q(zeta_ell)/Q) = F_ell^*
because the cyclotomic polynomial Phi_ell is irreducible over Q.  So the
sampled (a_p mod ell, p mod ell) pairs need only certify the rest of the image.
"""

from __future__ import annotations

from .arith import Record, is_prime, is_rational_square, primes_up_to, valuation
from .curves import (
    CurveLW,
    CurveRT2,
    Point,
    ap,
    cm_status,
    good_primes,
    is_good_prime,
    point_order,
    same_curve,
    to_rt2,
)
from .gl2 import WitnessPredicate
from .isogeny import X0_DEGREES, X0_EXIT_PRIME, x0_roots


class SurjectivityVerdict(Record):
    """verdict is "surjective" | "inconclusive"."""

    __match_args__ = ("verdict", "witnesses")

    def __init__(self, verdict: str, witnesses: tuple[tuple[str, str], ...]):
        self.__dict__.update(verdict=verdict, witnesses=witnesses)


class OddCertificate(Record):
    """A sound, re-checkable claim about odd-torsion Brauer classes.

    kind is "j-valuation" | "cm-isogeny-exclusion" | "six-torsion-cm-pair" |
    "mod-ell-sampling" | "congruence-evidence"; primes_covered is "all-odd",
    "all", or an explicit tuple of primes."""

    __match_args__ = ("kind", "primes_covered", "witnesses", "caveats", "detail")

    def __init__(self, kind: str, primes_covered: str | tuple[int, ...],
                 witnesses: tuple[tuple[str, str], ...] = (), caveats: tuple[str, ...] = (),
                 detail: str = ""):
        self.__dict__.update(kind=kind, primes_covered=primes_covered, witnesses=witnesses,
                             caveats=caveats, detail=detail)


class CertificateFailure(Record):
    __match_args__ = ("reason",)

    def __init__(self, reason: str):
        self.__dict__.update(reason=reason)


def mod_ell_surjectivity(curve: CurveLW, ell: int, bound: int) -> SurjectivityVerdict:
    """Decide surjectivity of the mod-ell Galois image where possible.

    ell = 2: exact.  The image is the Galois group of the 2-division cubic,
    and it is all of GL(2, F_2) = S3 iff the cubic is irreducible (the curve
    has no rational point of order 2: cubic_roots is empty) with non-square
    discriminant.

    ell >= 3: witness sampling over good primes p <= bound, p != ell, with
    (t, d) = (a_p mod ell, p mod ell).  Three witnesses are required, one
    from each class of `WitnessPredicate` (nonsplit, split, generic), the
    predicate whose classes the exhaustive oracle validates.
    All three found means the image is full (its determinant is onto, as the
    module docstring states); anything else is reported as inconclusive,
    never as "not surjective".
    At ell = 3 the split and generic classes are empty, so the verdict
    there is always inconclusive.  At ell >= 5 none is: for t != 0, t^2 - 4d
    runs over F_ell minus {t^2} as d runs over F_ell^*, which holds all
    (ell-1)/2 nonsquares and (ell-1)/2 - 1 >= 1 other nonzero squares; and
    u = t^2/d runs over F_ell^*, from which at most 5 values are excluded
    (u = 3 is left at ell = 5).  At ell = 5, 7 and 13, once the scan
    passes isogeny.X0_EXIT_PRIME, a rational root t of N(t) - j t on X_0(ell)
    (isogeny.x0_roots) ends it: a rational ell-isogeny puts the image in a
    Borel subgroup, which shows no nonsplit witness, so the verdict could
    only be inconclusive.  Curves with j = 0 or 1728 sample to the bound.
    """
    if ell == 2:
        # 256 Delta is the discriminant of the monic 2-division cubic
        # y^3 + b2 y^2 + 8 b4 y + 16 b6 (y = 4x)
        disc = 256 * curve.discriminant()
        roots = curve.cubic_roots
        if roots:
            detail = f"2-division cubic has a rational root (x = {roots[0]})"
        elif is_rational_square(disc):
            detail = "2-division cubic has square discriminant (group inside A3)"
        else:
            detail = ("2-division cubic irreducible with non-square discriminant "
                      f"(class of {disc})")
            return SurjectivityVerdict("surjective", (("exact", detail),))
        return SurjectivityVerdict("inconclusive", (("exact", detail),))
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    if ell == 3:
        return SurjectivityVerdict(
            "inconclusive",
            (("unsatisfiable",
              "some witness class is empty mod 3; no trace/determinant "
              "sample can certify surjectivity at this ell"),))
    classify = WitnessPredicate(ell)
    found: dict[str, str] = {}
    names = ("nonsplit", "split", "generic")
    isogeny_checked = ell not in X0_DEGREES
    for p in good_primes((curve,), bound, skip=ell):
        if not isogeny_checked and p > X0_EXIT_PRIME:
            isogeny_checked = True
            roots = x0_roots(curve.j(), ell)
            if roots:
                reducible = ("reducible", f"rational {ell}-isogeny: t = {roots[0]} "
                                          f"on X_0({ell})")
                return SurjectivityVerdict(
                    "inconclusive",
                    tuple((n, found.get(n, f"not found for p <= {X0_EXIT_PRIME}; larger p not sampled"))
                          for n in names) + (reducible,))
        t = ap(curve, p) % ell
        d = p % ell
        nonsplit, split, generic = classify(t, d)
        disc = (t * t - 4 * d) % ell
        if "nonsplit" not in found and nonsplit:
            found["nonsplit"] = f"p = {p}: t = {t}, t^2-4d = {disc} nonsquare mod {ell}"
        if "split" not in found and split:
            found["split"] = f"p = {p}: t = {t}, t^2-4d = {disc} nonzero square mod {ell}"
        if "generic" not in found and generic:
            u = t * t * pow(d, -1, ell) % ell
            found["generic"] = f"p = {p}: u = t^2/d = {u} mod {ell}"
        if len(found) == 3:
            return SurjectivityVerdict("surjective", tuple((n, found[n]) for n in names))
    witnesses = tuple((n, found.get(n, "not found")) for n in names)
    return SurjectivityVerdict("inconclusive", witnesses)


def _is_minus_power_of_two(v: int) -> bool:
    return v < 0 and (-v & (-v - 1)) == 0


def j_valuation_certificate(
    e: CurveLW, partner: CurveLW
) -> OddCertificate | CertificateFailure:
    """Odd-torsion exclusion from 5- and 7-adic valuations of j(E).

    Requires val_5(j(E)) and val_7(j(E)) to each be minus a power of two
    (so E has potential multiplicative reduction at both primes with period
    valuation prime to every odd ell).  For a pair, the partner curve must
    have fully rational 2-torsion and good reduction at 5 and 7; for the
    curve paired with itself (partner isomorphic to E) the valuation
    conditions alone suffice.  Asserts: the odd part of the geometric Brauer
    invariants vanishes, i.e. Br(A-bar)^Gamma is a finite abelian 2-group.

    Only a partner that fails its conditions is tested for isomorphism: as
    val_5(j) < 0, 5 divides the discriminant of every 5-integral model of E,
    so is_good_prime refuses every partner isomorphic to E at 5.
    """
    j = e.j()
    if j == 0:
        return CertificateFailure("j = 0 has no negative valuations")
    v5, v7 = valuation(j, 5), valuation(j, 7)
    if not _is_minus_power_of_two(v5):
        return CertificateFailure(f"val_5(j) = {v5} is not minus a power of two")
    if not _is_minus_power_of_two(v7):
        return CertificateFailure(f"val_7(j) = {v7} is not minus a power of two")
    witnesses = [("val_5(j)", str(v5)), ("val_7(j)", str(v7))]
    rt2 = to_rt2(partner)
    bad = [p for p in (5, 7) if not is_good_prime(partner, p)]
    if isinstance(rt2, CurveRT2) and not bad:
        witnesses.append(("partner good at", "5, 7"))
        witnesses.append(("partner 2-torsion", f"rational, translates to {rt2}"))
        return OddCertificate("j-valuation", "all-odd", tuple(witnesses))
    if same_curve(e, partner):
        return OddCertificate(
            "j-valuation", "all-odd", tuple(witnesses),
            detail="same-curve variant: scalar endomorphism rings mod every odd ell")
    if not isinstance(rt2, CurveRT2):
        return CertificateFailure(f"partner curve: {rt2}")
    return CertificateFailure(f"partner curve lacks good reduction at {bad[0]}")


def check_57_family(a: int, b: int) -> list[str]:
    """Violations of the family conditions on y^2 = x(x-a)(x-b): exactly one
    of a, b, a-b divisible by 5, exactly one by 7, none by 25 or 49.
    Empty list means valid, and then val_5(j) = val_7(j) = -2."""
    if a == 0 or b == 0 or a == b:
        return ["a, b must be distinct and nonzero"]
    triple = {"a": a, "b": b, "a-b": a - b}
    violations = []
    for q, qq in ((5, 25), (7, 49)):
        div = [name for name, v in triple.items() if v % q == 0]
        if len(div) != 1:
            violations.append(f"exactly one of a, b, a-b must be divisible by {q}; "
                              f"got {div or 'none'}")
        for name, v in triple.items():
            if v % qq == 0:
                violations.append(f"{qq} | {name}")
    return violations


def six_torsion_cm_certificate(
    e: CurveLW, partner: CurveLW, point: Point, ell_max: int, bound: int
) -> OddCertificate | CertificateFailure:
    """Vanishing of all geometric Brauer invariants for E x E' from a big
    mod-ell image on E and a CM partner with a rational point of order 6.

    Surjectivity for E is only sampled for primes up to ell_max (and is not
    decidable from traces at ell = 3); the certificate lists both gaps as
    caveats rather than silently asserting them.
    """
    order = point_order(partner, point)
    if order != 6:
        return CertificateFailure(f"supplied point has order {order}, not 6")
    status = cm_status(partner)
    if status.verdict != "cm":
        return CertificateFailure(f"partner curve is not CM: {status.evidence}")
    witnesses = [("six-torsion point", f"({point[0]}, {point[1]})"),
                 ("partner CM", status.evidence)]
    caveats = [f"surjectivity sampled only for ell <= {ell_max}",
               "mod-3 surjectivity is not decidable from trace sampling and "
               "is carried as an assumption"]
    for ell in primes_up_to(ell_max):
        if ell == 3:
            continue
        verdict = mod_ell_surjectivity(e, ell, bound)
        if verdict.verdict != "surjective":
            return CertificateFailure(f"mod-{ell} surjectivity not established")
        witnesses.append((f"mod-{ell} image", "full" if ell > 2 else "full (exact)"))
    return OddCertificate(
        "six-torsion-cm-pair", "all", tuple(witnesses), tuple(caveats),
        detail="asserts all geometric Brauer invariants vanish, for the pair "
               "and all of its quadratic twist surfaces")


def no_rational_ell_isogeny(curve: CurveLW, ell: int, bound: int) -> int | None:
    """Smallest good p <= bound (p != ell) whose Frobenius characteristic
    polynomial x^2 - a_p x + p is irreducible mod ell.

    Such a p proves E_ell has no Galois-stable line, hence no rational
    ell-isogeny.  None means no witness was found, which proves nothing.
    """
    if ell == 2 or not is_prime(ell):
        raise ValueError("ell must be an odd prime")
    squares = {x * x % ell for x in range(ell)}
    for p in good_primes((curve,), bound, skip=ell):
        if (ap(curve, p) ** 2 - 4 * p) % ell not in squares:
            return p
    return None


def cm_isogeny_exclusion_certificate(
    curve: CurveLW, ells: list[int], bound: int
) -> OddCertificate:
    """For a CM curve over Q, certify Br vanishing at exactly those odd ell
    where a no-rational-isogeny witness exists."""
    status = cm_status(curve)
    if status.verdict != "cm":
        raise ValueError("the isogeny-exclusion certificate needs a CM curve")
    covered = []
    witnesses = []
    caveats = []
    for ell in ells:
        w = no_rational_ell_isogeny(curve, ell, bound)
        if w is None:
            caveats.append(f"ell = {ell}: no witness up to {bound}; not covered")
        else:
            covered.append(ell)
            witnesses.append((f"ell = {ell}", f"p = {w}: x^2 - a_p x + p irreducible"))
    return OddCertificate(
        "cm-isogeny-exclusion", tuple(covered), tuple(witnesses), tuple(caveats),
        detail=f"CM curve, {status.evidence}")


def congruence_evidence(
    e: CurveLW, e2: CurveLW, ell: int, bound: int
) -> int | None:
    """None if a_p(E) = a_p(E') mod ell for every p <= bound, p != ell, good
    for both curves (a necessary condition for isomorphic mod-ell Galois
    modules and supporting evidence for a non-trivial odd class, never a
    proof); otherwise the first failing prime.

    A failing prime p != ell, with an irreducible mod-ell module on one side,
    also rules out a nonzero Galois homomorphism between the ell-torsion
    modules: the hom-vanishing witness of the pair reports."""
    for p in good_primes((e, e2), bound, skip=ell):
        if (ap(e, p) - ap(e2, p)) % ell != 0:
            return p
    return None

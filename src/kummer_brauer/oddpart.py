"""Triviality certificates for odd-order transcendental Brauer classes, and
congruence evidence for deliberately non-trivial odd classes.

Every certificate is one-sided and carries its witnesses, so a report can be
re-checked without re-running the search.  Surjectivity verdicts carry the
facts they rest on, not text (SurjectivityVerdict); a report formats them.

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
from .isogeny import X0_DEGREES, X0_EXIT_PRIME, frobenius_irreducible, x0_roots


class SurjectivityVerdict(Record):
    """verdict is "surjective" | "inconclusive"; witnesses are the facts it
    rests on, kind first.  ell = 2: ("rational-root", x), x a root of the
    2-division cubic, ("square-discriminant", 256 Delta) or ("irreducible",
    256 Delta).  ell = 3: none.  ell >= 5: the first (class, p, a_p) of each
    witness class met, in nonsplit, split, generic order, then
    ("reducible", t) if a root t on X_0(ell) ended the scan."""

    __match_args__ = ("verdict", "witnesses")

    def __init__(self, verdict: str, witnesses: tuple[tuple, ...]):
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
    """Decide surjectivity of the mod-ell Galois image where possible: the
    verdict of surjectivity_verdicts at the one ell, with the witnesses
    that SurjectivityVerdict lists.

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
    only be inconclusive, and ("reducible", t) is its last witness.  A
    nonsplit witness met before then proves the mod-ell module irreducible,
    so no root is sought.  Curves with j = 0 or 1728 sample to the bound.
    """
    return surjectivity_verdicts(curve, (ell,), bound)[ell]


def _mod2_verdict(curve: CurveLW) -> SurjectivityVerdict:
    # 256 Delta is the discriminant of the monic 2-division cubic
    # y^3 + b2 y^2 + 8 b4 y + 16 b6 (y = 4x)
    roots = curve.cubic_roots
    if roots:
        return SurjectivityVerdict("inconclusive", (("rational-root", roots[0]),))
    disc = 256 * curve.discriminant()
    if is_rational_square(disc):
        return SurjectivityVerdict("inconclusive", (("square-discriminant", disc),))
    return SurjectivityVerdict("surjective", (("irreducible", disc),))


def surjectivity_verdicts(
    curve: CurveLW, ells, bound: int
) -> dict[int, SurjectivityVerdict]:
    """The mod_ell_surjectivity verdict at every ell of ells, by ell, from
    one walk over the curve's good primes for all the sampled ell.

    At each p the X_0(ell) exits due there run first; then a_p is read
    once, if a scan with ell != p is still open, and classified for each
    such ell.  So every ell gets the verdict and witnesses of its own scan,
    the exits run where its scan would run them, and the a_p read are
    exactly those the scans of the single ell read together.  ValueError,
    before anything is sampled, when an ell is not prime.
    """
    names = ("nonsplit", "split", "generic")
    verdicts: dict[int, SurjectivityVerdict] = {}
    scans = {}  # ell -> (its predicate, the first (class, p, a_p) of each class met)
    for ell in ells:
        if ell == 2:
            verdicts[ell] = _mod2_verdict(curve)
        elif not is_prime(ell):
            raise ValueError("ell must be prime")
        elif ell == 3:
            verdicts[ell] = SurjectivityVerdict("inconclusive", ())
        else:
            scans[ell] = (WitnessPredicate(ell), {})
    if not scans:
        return verdicts
    exits = [ell for ell in scans if ell in X0_DEGREES]
    for p in good_primes((curve,), bound):
        if exits and p > X0_EXIT_PRIME:
            for ell in exits:
                # a nonsplit sample has proved E[ell] irreducible, so that
                # X_0(ell) has no root over j
                if ell in scans and "nonsplit" not in scans[ell][1]:
                    roots = x0_roots(curve.j(), ell)
                    if roots:
                        found = scans.pop(ell)[1]
                        verdicts[ell] = SurjectivityVerdict(
                            "inconclusive",
                            tuple(found[n] for n in names if n in found)
                            + (("reducible", roots[0]),))
            exits = []
        sampled = [ell for ell in scans if ell != p]
        if sampled:
            trace = ap(curve, p)
        for ell in sampled:
            classify, found = scans[ell]
            for name, hit in zip(names, classify(trace % ell, p % ell)):
                if hit and name not in found:
                    found[name] = (name, p, trace)
            if len(found) == 3:
                del scans[ell]
                verdicts[ell] = SurjectivityVerdict(
                    "surjective", tuple(found[n] for n in names))
        if not scans:
            break
    for ell, (_, found) in scans.items():
        verdicts[ell] = SurjectivityVerdict(
            "inconclusive", tuple(found[n] for n in names if n in found))
    return verdicts


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
    for p in good_primes((curve,), bound, skip=ell):
        if frobenius_irreducible(ap(curve, p), p, ell):
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
    return first_incongruent_primes(e, e2, (ell,), bound)[ell]


def first_incongruent_primes(
    e: CurveLW, e2: CurveLW, ells, bound: int
) -> dict[int, int | None]:
    """The congruence_evidence result at every ell of ells, by ell, from one
    walk over the primes good for both curves: at each p, while some ell
    != p is still open, delta = a_p(E) - a_p(E') is computed once and
    tested mod each such ell.  The a_p read are exactly those the scans of
    the single ell read together."""
    failing: dict[int, int | None] = dict.fromkeys(ells)
    open_ells = list(failing)
    if not open_ells:
        return failing
    for p in good_primes((e, e2), bound):
        tested = [ell for ell in open_ells if ell != p]
        if tested:
            delta = ap(e, p) - ap(e2, p)
        for ell in tested:
            if delta % ell:
                failing[ell] = p
                open_ells.remove(ell)
        if not open_ells:
            break
    return failing

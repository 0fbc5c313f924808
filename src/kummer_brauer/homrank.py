"""Rank of the geometric homomorphism group Hom(E-bar, E'-bar) with
certificates where possible, and the applicability gate for the two-torsion
dimension formula.

Certificates are one-sided: r = 0 is only ever asserted with an explicit
witness, r = 1 and r = 2 only for a pair of equal curves, and everything
else is reported as inconclusive.  A certified Q-isogeny (isogenous; an
isomorphism for equal curves) proves only that no non-isogeny witness
exists; for curves that are not equal, r stays undecided.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .arith import Record, is_rational_square, is_square, primes_up_to, rational_roots, valuation
from .curves import (
    CurveLW,
    ap,
    cm_status,
    count_points_exhaustive,
    is_cm_j,
    is_good_prime,
)
from .isogeny import X0_EXIT_PRIME, codomains
from .residues import Gate

# An isogeny class over Q has at most 8 curves (Kenku, J. Number Theory 15,
# 1982; Cremona, Algorithms for Modular Elliptic Curves, 3.8).
CLASS_SIZE_MAX = 8


class IsogenyEvidence(Record):
    """kind is "trace-square-mismatch" | "reduction-type-mismatch" |
    "same-curve" | "none-found".  isogenous: E and E' certified isogenous
    over Q; never rendered, and not part of the verdict, so == and hash
    ignore it."""

    __match_args__ = ("kind", "witness", "detail", "isogenous")
    _compared = ("kind", "witness", "detail")

    def __init__(self, kind: str, witness: int | None = None, detail: str = "",
                 isogenous: bool = False):
        self.__dict__.update(kind=kind, witness=witness, detail=detail, isogenous=isogenous)


class RankVerdict(Record):
    """r is 0, 1, 2, or None when nothing could be decided; confidence is
    "certified" | "heuristic" | "inconclusive"."""

    __match_args__ = ("r", "confidence", "gate", "evidence")

    def __init__(self, r: int | None, confidence: str, gate: Gate, evidence: IsogenyEvidence):
        self.__dict__.update(r=r, confidence=confidence, gate=gate, evidence=evidence)


class WitnessVerificationError(RuntimeError):
    """A cited a_p disagreed with its exhaustive recount: a program fault,
    never an input error."""


def _verify_trace(curve: CurveLW, p: int, t: int) -> None:
    """Check a cited a_p against the exhaustive point count at p."""
    exact = p + 1 - count_points_exhaustive(curve, p)
    if t != exact:
        raise WitnessVerificationError(
            f"a_{p} of {curve.label()} was {t}, exhaustive count gives {exact}")


def nonisogeny_certificate(e: CurveLW, e2: CurveLW, bound: int) -> IsogenyEvidence:
    """Search the primes p <= bound for a witness that E and E' are not
    isogenous over Q-bar: the one scan that does not take its primes from
    curves.good_primes, since a reduction-type witness lies where exactly
    one curve is good, and one lazy pass over all primes serves both kinds.

    Two sound witness kinds, scanned together with the smallest prime winning:
      - trace-square-mismatch: p good for both with a_p(E)^2 != a_p(E')^2.
        Curves isogenous over Q-bar with at least one of them non-CM are
        quadratic twists of each other, so their traces agree up to sign at
        every common good prime.
      - reduction-type-mismatch: p with val_p(j) < 0 for one curve (potential
        multiplicative reduction) while the other has good reduction at p.

    Where no witness can exist the answer is "none-found" at once: for equal
    j (twists of each other, or the same curve), and when both j are CM
    (quartic and sextic twists break the sign argument, so traces are not
    compared, and CM j are integers).  So it is when a walk from E, at the
    first prime above isogeny.X0_EXIT_PRIME, reaches a curve with the j of
    E' (E' or a twist of it).  The evidence records a Q-isogeny to E'
    itself (isogenous); a twist meeting records none.
    """
    if bound < 10:
        raise ValueError("bound must be at least 10")
    none_found = f"no witness among p <= {bound}"
    je, je2 = e.j(), e2.j()
    if je == je2:
        return IsogenyEvidence("none-found", None, none_found, same_curve(e, e2))
    if is_cm_j(je) and is_cm_j(je2):
        return IsogenyEvidence("none-found", None, none_found, isogenous(e, e2))
    walked = False  # pairs with an early witness never pay for the walk
    for p in primes_up_to(bound):
        if not walked and p > X0_EXIT_PRIME:
            walked = True
            # a Q-isogeny to E' or to a twist of E' gives equal a_p^2 at
            # every common good prime and the same potentially
            # multiplicative primes: no witness exists.  Unless both curves
            # are CM, the walk reaches at most one curve with the j of E'
            # (two would be isogenous twists, which have CM)
            meeting = next((model for model in _isogeny_walk(e) if model.j() == je2), None)
            if meeting is not None:
                return IsogenyEvidence("none-found", None, none_found, same_curve(meeting, e2))
        ok1, ok2 = is_good_prime(e, p), is_good_prime(e2, p)
        if ok1 and ok2:
            t1, t2 = ap(e, p), ap(e2, p)
            if t1 * t1 != t2 * t2:
                # re-verify both cited traces before certifying
                _verify_trace(e, p, t1)
                _verify_trace(e2, p, t2)
                return IsogenyEvidence(
                    "trace-square-mismatch", p,
                    f"a_{p} = {t1} vs {t2}; {t1*t1} != {t2*t2}")
        # val_p(j) < 0 iff p divides the reduced denominator (never for j = 0)
        if ok2 and je.denominator % p == 0:
            return IsogenyEvidence(
                "reduction-type-mismatch", p,
                f"val_{p}(j(E)) = {valuation(je, p)} < 0 but E' has good reduction at {p}")
        if ok1 and je2.denominator % p == 0:
            return IsogenyEvidence(
                "reduction-type-mismatch", p,
                f"val_{p}(j(E')) = {valuation(je2, p)} < 0 but E has good reduction at {p}")
    return IsogenyEvidence("none-found", None, none_found)


def _isogeny_walk(curve: CurveLW):
    """Yield the curves reached from the curve by rational isogenies of
    degree 2, 3, 5, 7 and 13 (isogeny.codomains, which skips every edge at
    j = 0 or 1728), as integral short models, breadth first and each once up
    to isomorphism over Q (same_curve), at most CLASS_SIZE_MAX of them; the
    first is the curve itself."""
    reached = [CurveLW(0, 0, 0, *curve.short_model)]
    yield reached[0]
    for model in reached:  # grows while it is walked
        for _, codomain in codomains(int(model.a4), int(model.a6)):
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
    return any(same_curve(model, e2) for model in _isogeny_walk(e))


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
    return is_rational_square(Fraction(B2 * A, B * A2))


def rank_r(e: CurveLW, e2: CurveLW, bound: int) -> RankVerdict:
    """Decide r = rank Hom(E-bar, E'-bar) where a sound verdict is available.

    r = 0 is certified by a non-isogeny witness; r = 1 (same curve, no CM) is
    heuristic because the CM exclusion rests on the rational CM j-list; for a
    CM curve paired with itself r = 2 but the applicability gate is withheld
    (its cohomological condition is not checked here).  Anything else is
    inconclusive.
    """
    if same_curve(e, e2):
        same = IsogenyEvidence("same-curve", isogenous=True)
        status = cm_status(e)
        if status.verdict == "not_cm":
            gate = Gate("same-curve-no-cm", True,
                        f"E = E'; {status.evidence}")
            return RankVerdict(1, "heuristic", gate, same)
        gate = Gate(None, False,
                    "E = E' has CM; the third applicability case needs a "
                    "cohomological vanishing this tool does not verify")
        return RankVerdict(2, "inconclusive", gate, same)
    evidence = nonisogeny_certificate(e, e2, bound)
    if evidence.kind in ("trace-square-mismatch", "reduction-type-mismatch"):
        gate = Gate("not-isogenous", True, evidence.detail)
        return RankVerdict(0, "certified", gate, evidence)
    gate = Gate(None, False, "no non-isogeny witness found and curves not equal")
    return RankVerdict(None, "inconclusive", gate, evidence)

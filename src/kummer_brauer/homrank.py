"""Rank of the geometric homomorphism group Hom(E-bar, E'-bar) with
certificates where possible, and the applicability gate for the two-torsion
dimension formula.

Certificates are one-sided: r = 0 is only ever asserted with an explicit
witness, r = 1 and r = 2 only for a pair of equal curves, and everything
else is reported as inconclusive.  Evidence of kind "same-curve" or
"isogenous" (a Q-isogeny certified by isogeny.isogeny_class) proves only
that no non-isogeny witness exists; for curves that are not equal, r stays
undecided.
"""

from __future__ import annotations

from .arith import Record, primes_up_to, valuation
from .curves import (
    CurveLW,
    ap,
    cm_status,
    is_cm_j,
    is_good_prime,
    same_curve,
    verify_trace,
)
from .isogeny import X0_EXIT_PRIME, isogenous, isogeny_class
from .residues import Gate


class IsogenyEvidence(Record):
    """kind is "trace-square-mismatch" | "reduction-type-mismatch" (with the
    witness prime) | "same-curve" (E and E' isomorphic over Q) |
    "isogenous" (E and E' certified isogenous over Q, not isomorphic) |
    "none-found"."""

    __match_args__ = ("kind", "witness", "detail")

    def __init__(self, kind: str, witness: int | None = None, detail: str = ""):
        self.__dict__.update(kind=kind, witness=witness, detail=detail)


class RankVerdict(Record):
    """r is 0, 1, 2, or None when nothing could be decided; confidence is
    "certified" | "heuristic" | "inconclusive"."""

    __match_args__ = ("r", "confidence", "gate", "evidence")

    def __init__(self, r: int | None, confidence: str, gate: Gate, evidence: IsogenyEvidence):
        self.__dict__.update(r=r, confidence=confidence, gate=gate, evidence=evidence)


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

    Where no witness can exist the scan ends at once: for equal j (twists
    of each other, or the same curve), and when both j are CM (quartic and
    sextic twists break the sign argument, so traces are not compared, and
    CM j are integers).  So it does when the walk isogeny.isogeny_class(E),
    at the first prime above isogeny.X0_EXIT_PRIME, reaches a curve with
    the j of E' (E' or a twist of it).  The walk is given the a_p(E) the
    scan has read, so it skips every degree they rule out.  The kind is
    then "same-curve" for E' isomorphic to E, "isogenous" where a walk
    reaches E' itself, and "none-found" for a twist.
    """
    if bound < 10:
        raise ValueError("bound must be at least 10")
    none_found = f"no witness among p <= {bound}"
    je, je2 = e.j(), e2.j()
    if je == je2:
        return IsogenyEvidence("same-curve" if same_curve(e, e2) else "none-found",
                               None, none_found)
    if is_cm_j(je) and is_cm_j(je2):
        return IsogenyEvidence("isogenous" if isogenous(e, e2) else "none-found",
                               None, none_found)
    walked = False  # pairs with an early witness never pay for the walk
    traces = []  # (p, a_p(E)) as read, which rule degrees out of the walk
    for p in primes_up_to(bound):
        if not walked and p > X0_EXIT_PRIME:
            walked = True
            # a Q-isogeny to E' or to a twist of E' gives equal a_p^2 at
            # every common good prime and the same potentially
            # multiplicative primes: no witness exists.  Unless both curves
            # are CM, the walk reaches at most one curve with the j of E'
            # (two would be isogenous twists, which have CM)
            meeting = next((model for model in isogeny_class(e, tuple(traces))
                            if model.j() == je2), None)
            if meeting is not None:
                return IsogenyEvidence("isogenous" if same_curve(meeting, e2) else "none-found",
                                       None, none_found)
        ok1, ok2 = is_good_prime(e, p), is_good_prime(e2, p)
        if ok1 and ok2:
            t1, t2 = ap(e, p), ap(e2, p)
            traces.append((p, t1))
            if t1 * t1 != t2 * t2:
                # re-verify both cited traces before certifying
                verify_trace(e, p, t1)
                verify_trace(e2, p, t2)
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


def rank_r(e: CurveLW, e2: CurveLW, bound: int) -> RankVerdict:
    """Decide r = rank Hom(E-bar, E'-bar) where a sound verdict is available.

    r = 0 is certified by a non-isogeny witness; r = 1 (same curve, no CM) is
    heuristic because the CM exclusion rests on the rational CM j-list; for a
    CM curve paired with itself r = 2 but the applicability gate is withheld
    (its cohomological condition is not checked here).  Anything else is
    inconclusive.
    """
    if same_curve(e, e2):
        same = IsogenyEvidence("same-curve")
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

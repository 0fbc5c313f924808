"""Pipeline orchestration: analyze a pair of elliptic curves over Q and
produce a machine-readable report on the transcendental Brauer group of the
associated Kummer surface, with every certificate carrying its witnesses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime, primes_up_to
from .curves import (
    CurveLW,
    CurveRT2,
    Point,
    _rational_roots_monic_cubic,
    on_curve,
    to_rt2,
)
from .homrank import rank_r, same_curve
from .oddpart import (
    CertificateFailure,
    OddCertificate,
    congruence_evidence,
    check_57_family,
    cm_isogeny_exclusion_certificate,
    j_valuation_certificate,
    mod_ell_surjectivity,
    six_torsion_cm_certificate,
)
from .residues import (
    Gate,
    kernel_dimension,
    residue_matrix,
    two_torsion_dimension,
)

MODEL_CAVEAT = ("reduction is tested on the supplied models without "
                "minimalization; a non-minimal model can only weaken "
                "certificates, never overclaim")
ELL3_CAVEAT = ("mod-3 surjectivity is not decidable from trace/determinant "
               "sampling and is carried as an assumption")
NO_TRANSFER = "no evidence that the geometric invariants vanish"

# Upper limits on the options: the prime sieve allocates one byte per
# integer up to bound, and witness_classes(ell) costs O(ell^2) per sampled ell.
MAX_BOUND = 10**6
MAX_ELL = 100


class InputError(ValueError):
    """Malformed curve records or analysis options."""


@dataclass(frozen=True)
class CurveInput:
    kind: str  # "rt2" | "weierstrass"
    lw: CurveLW
    rt2_raw: tuple[int, int] | None = None
    six_torsion: Point = None
    label: str | None = None

    def __post_init__(self):
        if self.six_torsion is not None and not on_curve(self.lw, self.six_torsion):
            raise InputError("six_torsion point is not on the curve")

    def echo(self) -> dict:
        out: dict = {}
        if self.kind == "rt2":
            out["rt2"] = {"a": self.rt2_raw[0], "b": self.rt2_raw[1]}
        else:
            out["weierstrass"] = [str(c) for c in self.lw.key()]
        if self.six_torsion is not None:
            out["six_torsion"] = [str(self.six_torsion[0]), str(self.six_torsion[1])]
        if self.label:
            out["label"] = self.label
        return out


def _parse_rational(v) -> Fraction:
    if isinstance(v, bool):
        raise InputError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"not a rational: {v!r}") from e
    raise InputError(f"not a rational: {v!r}")


def parse_curve_record(rec: dict) -> CurveInput:
    """Curve records: {"rt2": {"a": int, "b": int}} or
    {"weierstrass": [a1, a2, a3, a4, a6]} with rationals as "num/den"
    strings, plus optional "six_torsion": [x, y] and "label"."""
    if not isinstance(rec, dict):
        raise InputError("curve record must be an object")
    point = None
    if "six_torsion" in rec:
        xy = rec["six_torsion"]
        if not (isinstance(xy, (list, tuple)) and len(xy) == 2):
            raise InputError("six_torsion must be [x, y]")
        point = (_parse_rational(xy[0]), _parse_rational(xy[1]))
    label = rec.get("label")
    if "rt2" in rec:
        ab = rec["rt2"]
        try:
            a, b = int(ab["a"]), int(ab["b"])
        except (KeyError, TypeError, ValueError) as e:
            raise InputError("rt2 record needs integer fields a, b") from e
        try:
            curve = CurveRT2(a, b)
        except ValueError as e:
            raise InputError(str(e)) from e
        return CurveInput("rt2", curve.to_lw(), (a, b), point, label)
    if "weierstrass" in rec:
        coeffs = rec["weierstrass"]
        if not (isinstance(coeffs, (list, tuple)) and len(coeffs) == 5):
            raise InputError("weierstrass record needs [a1, a2, a3, a4, a6]")
        try:
            curve = CurveLW(*(_parse_rational(c) for c in coeffs))
        except ValueError as e:
            raise InputError(str(e)) from e
        return CurveInput("weierstrass", curve, None, point, label)
    raise InputError("curve record needs an 'rt2' or 'weierstrass' field")


@dataclass(frozen=True)
class CurvePairSpec:
    first: CurveInput
    second: CurveInput
    bound: int = 10_000
    ell_max: int = 37
    odd_primes: tuple[int, ...] = ()

    def echo(self) -> dict:
        return {
            "first": self.first.echo(),
            "second": self.second.echo(),
            "bound": self.bound,
            "ell_max": self.ell_max,
            "odd_primes": list(self.odd_primes),
        }


def parse_pair_spec(data: dict) -> CurvePairSpec:
    if not isinstance(data, dict):
        raise InputError("pair spec must be an object")
    try:
        first = parse_curve_record(data["first"])
        second = parse_curve_record(data["second"])
    except KeyError as e:
        raise InputError(f"pair spec needs 'first' and 'second': missing {e}") from e
    odd = data.get("odd_primes", [])
    if not isinstance(odd, (list, tuple)):
        raise InputError("odd_primes must be a list of odd primes")
    spec = CurvePairSpec(first, second, data.get("bound", 10_000),
                         data.get("ell_max", 37), tuple(odd))
    check_options(spec)
    return spec


def check_options(spec: CurvePairSpec) -> None:
    """Raise InputError unless 10 <= bound <= MAX_BOUND,
    2 <= ell_max <= MAX_ELL and every entry of odd_primes is an odd prime."""
    if not (isinstance(spec.bound, int) and 10 <= spec.bound <= MAX_BOUND):
        raise InputError(f"bound must be an integer in [10, {MAX_BOUND}]")
    if not (isinstance(spec.ell_max, int) and 2 <= spec.ell_max <= MAX_ELL):
        raise InputError(f"ell_max must be an integer in [2, {MAX_ELL}]")
    for ell in spec.odd_primes:
        if not (isinstance(ell, int) and ell >= 3 and is_prime(ell)):
            raise InputError("odd_primes must be odd primes")


# -- surface equation rendering ---------------------------------------------


def _fmt_coeff_times(c: Fraction, power_text: str) -> str:
    if c.denominator == 1:
        cs = "" if c == 1 else ("-" if c == -1 else str(c.numerator))
    else:
        cs = f"({c})*"
    return f"{cs}{power_text}"


def _fmt_cubic(c3: Fraction, c2: Fraction, c1: Fraction, c0: Fraction, var: str) -> str:
    terms = []
    for c, pw in ((c3, f"{var}^3"), (c2, f"{var}^2"), (c1, var), (c0, "")):
        if c == 0:
            continue
        if pw == "":
            text = str(c) if c.denominator == 1 else f"({c})"
            if c > 0:
                text = str(c)
        else:
            text = _fmt_coeff_times(c, pw)
        terms.append(text)
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _root_factor(var: str, root: Fraction) -> str:
    if root == 0:
        return var
    r = str(root) if root.denominator == 1 else f"({root})"
    return f"({var}-{r})" if root > 0 else f"({var}+{str(-root) if root.denominator != 1 else -root.numerator})"


def _curve_rhs(ci: CurveInput, var: str) -> tuple[str, bool]:
    """(right-hand side text, already-factored flag) for one curve."""
    if ci.kind == "rt2":
        a, b = ci.rt2_raw
        return "".join(_root_factor(var, Fraction(r)) for r in (0, a, b)), True
    c = ci.lw
    if c.a1 == 0 and c.a3 == 0:
        roots = _rational_roots_monic_cubic(c.a2, c.a4, c.a6)
        if len(roots) == 3:
            return "".join(_root_factor(var, r) for r in roots), True
        return _fmt_cubic(Fraction(1), c.a2, c.a4, c.a6, var), False
    b2, b4, b6, _ = c.b_invariants()
    return _fmt_cubic(Fraction(4), b2, 2 * b4, b6, var), False


def pair_surface_equation(first: CurveInput, second: CurveInput) -> str:
    fx, f_factored = _curve_rhs(first, "x")
    gy, g_factored = _curve_rhs(second, "y")
    if not f_factored:
        fx = f"({fx})"
    if not g_factored:
        gy = f"({gy})"
    return f"z^2 = {fx}{gy}"


# -- report ------------------------------------------------------------------


@dataclass
class BrauerReport:
    input_echo: dict
    labels: list[str | None]
    surface: str
    route: str  # "residue-matrix" | "galois-module-evidence" | "unresolved"
    d: int | None
    kernel_basis: list[list[str]]
    r: int | None
    r_confidence: str
    gate: Gate
    dim2: int | None  # None encodes "not determined"
    certificates: list[OddCertificate]
    witnesses: list[dict]
    evidence: list[dict]
    twisted: bool
    twisted_detail: str
    conclusion: str
    caveats: list[str]

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "input": self.input_echo,
            "labels": self.labels,
            "surface": self.surface,
            "two_torsion_route": self.route,
            "d": self.d,
            "kernel_basis": [list(b) for b in self.kernel_basis],
            "r": self.r,
            "r_confidence": self.r_confidence,
            "gate": {
                "case": self.gate.case,
                "passes": self.gate.passes,
                "detail": self.gate.detail,
            },
            "dim2": self.dim2 if self.dim2 is not None else "not determined",
            "certificates": [
                {
                    "kind": c.kind,
                    "primes_covered": (c.primes_covered
                                       if isinstance(c.primes_covered, str)
                                       else list(c.primes_covered)),
                    "witnesses": [list(w) for w in c.witnesses],
                    "caveats": list(c.caveats),
                    "detail": c.detail,
                }
                for c in self.certificates
            ],
            "witnesses": self.witnesses,
            "evidence": self.evidence,
            "twisted": {"flag": self.twisted, "detail": self.twisted_detail},
            "conclusion": self.conclusion,
            "caveats": self.caveats,
        }


def analyze(spec: CurvePairSpec) -> BrauerReport:
    """Run the full pipeline on a pair of curves.

    Two-torsion: when both curves have fully rational 2-torsion the residue
    matrix gives d and the dimension formula d - r; otherwise the 2-part is
    handled through mod-2 Galois module evidence and flagged.  Odd torsion:
    certificate strategies are tried in order j-valuation, CM isogeny
    exclusion, six-torsion CM pair, then per-ell sampling.
    """
    first, second = spec.first, spec.second
    e, e2 = first.lw, second.lw
    bound, ell_max = spec.bound, spec.ell_max
    same = same_curve(e, e2)
    rank = rank_r(e, e2, bound)
    gate = rank.gate

    surface = pair_surface_equation(first, second)
    witnesses: list[dict] = []
    caveats: list[str] = [MODEL_CAVEAT]
    if rank.evidence.witness is not None:
        witnesses.append({
            "role": f"non-isogeny ({rank.evidence.kind})",
            "prime": rank.evidence.witness,
            "detail": rank.evidence.detail,
        })
    if rank.confidence == "heuristic":
        caveats.append("r rests on the rational CM j-invariant list (heuristic)")

    # two-torsion part
    rt1, rt2_ = to_rt2(e), to_rt2(e2)
    d = None
    kernel_basis: list[list[str]] = []
    dim2: int | None = None
    two_resolved_zero = False
    if isinstance(rt1, CurveRT2) and isinstance(rt2_, CurveRT2):
        route = "residue-matrix"
        m = residue_matrix(rt1.a, rt1.b, rt2_.a, rt2_.b)
        d, basis = kernel_dimension(m)
        kernel_basis = [list(b) for b in basis]
        result = two_torsion_dimension(d, rank.r, gate, tuple(basis))
        dim2 = result.dim2
        two_resolved_zero = dim2 == 0
        if dim2 is not None and dim2 > 0:
            witnesses.append({
                "role": "two-torsion kernel",
                "prime": None,
                "detail": f"d = {d} residue-free combinations: {kernel_basis}",
            })
    else:
        route = "galois-module-evidence"
        caveats.append("a curve lacks fully rational 2-torsion; the 2-part is "
                       "handled through mod-2 Galois module evidence, not residues")

    # odd part
    certificates: list[OddCertificate] = []
    odd_all = False
    covered: set[int] = set()
    undecidable: set[int] = set()
    odd_ells = [p for p in primes_up_to(ell_max) if p % 2]

    cert = j_valuation_certificate(e, e2)
    if isinstance(cert, CertificateFailure) and not same:
        cert = j_valuation_certificate(e2, e)
    if isinstance(cert, OddCertificate):
        certificates.append(cert)
        odd_all = True

    if not odd_all and same and rank.r == 2:
        c = cm_isogeny_exclusion_certificate(e, odd_ells, max(bound, 200))
        certificates.append(c)
        covered.update(c.primes_covered)

    pair_cert = None
    if not odd_all and not same:
        partner_input = None
        big = None
        if second.six_torsion is not None:
            partner_input, big = second, e
        elif first.six_torsion is not None:
            partner_input, big = first, e2
        if partner_input is not None:
            c = six_torsion_cm_certificate(
                big, partner_input.lw, partner_input.six_torsion, ell_max, bound)
            if isinstance(c, OddCertificate):
                certificates.append(c)
                pair_cert = c
                odd_all = True
            else:
                caveats.append(f"six-torsion route failed: {c.reason}")

    if not odd_all and (same or rank.r == 0):
        remaining = [ell for ell in odd_ells if ell not in covered]
        s_witnesses = []
        s_caveats = []
        s_covered = []
        for ell in remaining:
            verdict = mod_ell_surjectivity(e, ell, bound)
            if verdict.verdict != "surjective":
                if ell == 3 and any(k == "unsatisfiable" for k, _ in verdict.witnesses):
                    undecidable.add(3)
                    s_caveats.append(ELL3_CAVEAT)
                else:
                    s_caveats.append(f"ell = {ell}: surjectivity not established "
                                     f"up to {bound}")
                continue
            if same:
                s_covered.append(ell)
                s_witnesses.append((f"ell = {ell}",
                                    "full mod-ell image forces scalar invariants"))
            else:
                w = congruence_evidence(e, e2, ell, bound)
                if w is None:
                    s_caveats.append(f"ell = {ell}: traces congruent for all "
                                     f"p <= {bound}; modules may be isomorphic")
                else:
                    s_covered.append(ell)
                    s_witnesses.append((f"ell = {ell}",
                                        f"full image on E and a_{w} differs mod {ell}"))
        if s_covered or s_caveats:
            s_caveats.append(f"primes above {ell_max} unverified (sampling bound)")
            certificates.append(OddCertificate(
                "mod-ell-sampling", tuple(s_covered), tuple(s_witnesses),
                tuple(s_caveats),
                detail=f"per-ell sampling up to B = {bound}, ell <= {ell_max}"))
            covered.update(s_covered)

    # two-torsion part via mod-2 evidence when residues are unavailable
    if route == "galois-module-evidence":
        if pair_cert is not None and gate.passes:
            two_resolved_zero = True
            dim2 = 0
            witnesses.append({
                "role": "two-torsion via pair certificate",
                "prime": None,
                "detail": "the six-torsion CM pair certificate covers 2 as well",
            })
        elif gate.passes:
            v2 = mod_ell_surjectivity(e, 2, bound)
            v2b = v2 if v2.verdict == "surjective" else mod_ell_surjectivity(e2, 2, bound)
            if same:
                if v2.verdict == "surjective":
                    two_resolved_zero = True
                    dim2 = 0
                    witnesses.append({
                        "role": "two-torsion (same curve)",
                        "prime": None,
                        "detail": v2.witnesses[0][1],
                    })
            elif rank.r == 0 and v2b.verdict == "surjective":
                w = congruence_evidence(e, e2, 2, bound)
                if w is not None:
                    two_resolved_zero = True
                    dim2 = 0
                    witnesses.append({
                        "role": "two-torsion (pair)",
                        "prime": w,
                        "detail": "irreducible mod-2 module on one side and "
                                  f"a_{w} parity mismatch",
                    })

    # requested congruence evidence
    evidence = []
    for ell in spec.odd_primes:
        fail = congruence_evidence(e, e2, ell, bound)
        evidence.append({
            "ell": ell,
            "result": "pass" if fail is None else "fail",
            "first_failing_prime": fail,
            "detail": ("traces congruent mod ell at all common good p <= "
                       f"{bound}; necessary for isomorphic modules, supporting "
                       "evidence for a non-trivial odd class, never a proof"
                       if fail is None else
                       f"a_{fail} differs mod {ell}"),
        })

    odd_sampled_ok = (
        not odd_all
        and all(ell in covered or ell in undecidable for ell in odd_ells)
        and bool(covered)
    )
    if odd_all or odd_sampled_ok:
        if not odd_all:
            caveats.append(f"odd coverage sampled for ell <= {ell_max} only")
        if 3 in undecidable:
            caveats.append(ELL3_CAVEAT)

    # conclusion
    if not gate.passes or not (two_resolved_zero or (dim2 is not None and dim2 > 0)):
        conclusion = "inconclusive"
    elif dim2 is not None and dim2 > 0:
        conclusion = "two-part-nontrivial"
    elif odd_all or odd_sampled_ok:
        conclusion = "trivial"
    else:
        conclusion = "odd-part-open"

    # deduplicate caveats, preserving first-seen order
    seen = set()
    caveats = [c for c in caveats if not (c in seen or seen.add(c))]

    report = BrauerReport(
        input_echo=spec.echo(),
        labels=[first.label, second.label],
        surface=surface,
        route=route if (route == "residue-matrix" or two_resolved_zero) else "unresolved",
        d=d,
        kernel_basis=kernel_basis,
        r=rank.r,
        r_confidence=rank.confidence,
        gate=gate,
        dim2=dim2,
        certificates=certificates,
        witnesses=witnesses,
        evidence=evidence,
        twisted=False,
        twisted_detail=NO_TRANSFER,
        conclusion=conclusion,
        caveats=caveats,
    )
    # the flag is read back from the report, by the rule validate_report uses
    detail = _twisted_transfer(report.to_dict())
    if detail is not None:
        report.twisted, report.twisted_detail = True, detail
    return report


def _twisted_transfer(data: dict) -> str | None:
    """The twisted-surface rule on a rendered report: the detail text of the
    branch that holds, or None when neither does.

    The conclusion transfers to every twisted Kummer surface of the pair
    exactly when the report's own certificates imply that all geometric
    Brauer invariants vanish at the sampled primes: either a six-torsion CM
    pair certificate, or a certified non-isogenous pair with module-vanishing
    evidence at 2 and at every decidable sampled odd prime.  Same-curve
    routes never qualify: the invariant 2-part survives.
    """
    certs = data.get("certificates", [])
    if any(c["kind"] == "six-torsion-cm-pair" for c in certs):
        return ("six-torsion CM pair certificate: conclusions transfer "
                "to all twists (conditional on the sampled-ell caveats)")
    if data.get("gate", {}).get("case") != "not-isogenous":
        return None
    if not any(w["role"] == "two-torsion (pair)" for w in data.get("witnesses", [])):
        return None
    sampled = set()
    for c in certs:
        if c["kind"] == "mod-ell-sampling" and isinstance(c["primes_covered"], list):
            sampled.update(c["primes_covered"])
    ell_max = data.get("input", {}).get("ell_max", 37)
    odd_ells = [p for p in primes_up_to(ell_max) if p % 2]
    undecidable = {3} if ELL3_CAVEAT in data.get("caveats", []) else set()
    if all(l in sampled or l in undecidable for l in odd_ells):
        return ("non-isogenous pair with module-vanishing evidence at "
                f"2 and every decidable odd ell <= {ell_max}; transfers "
                "to all twists (conditional on the sampled-ell caveats)")
    return None


def twisted_flag(data: dict) -> bool:
    """Whether the twisted-surface rule holds for a rendered report; analyze
    sets the report's flag by the same rule."""
    return _twisted_transfer(data) is not None


def render_report(report: BrauerReport, fmt: str = "json") -> str:
    """Stable serialization: json (sorted keys, reproducible bytes) or text."""
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise InputError(f"unknown format: {fmt}")
    d = report.to_dict()
    lines = [
        f"surface: {d['surface']}",
        f"labels: {d['labels']}",
        f"two-torsion route: {d['two_torsion_route']}",
        f"d = {d['d']}, r = {d['r']} ({d['r_confidence']}), dim2 = {d['dim2']}",
        f"gate: {d['gate']['case']} (passes: {d['gate']['passes']})",
        f"conclusion: {d['conclusion']}",
        "certificates:",
    ]
    for c in d["certificates"]:
        lines.append(f"  - {c['kind']} covering {c['primes_covered']}")
        for w in c["witnesses"]:
            lines.append(f"      witness {w[0]}: {w[1]}")
        for cv in c["caveats"]:
            lines.append(f"      caveat: {cv}")
    for ev in d["evidence"]:
        lines.append(f"congruence ell={ev['ell']}: {ev['result']}"
                     + (f" at p={ev['first_failing_prime']}" if ev["first_failing_prime"] else ""))
    lines.append(f"twisted-surface transfer: {d['twisted']['flag']}")
    lines.append("caveats:")
    for c in d["caveats"]:
        lines.append(f"  - {c}")
    return "\n".join(lines) + "\n"


def validate_report(data: dict) -> list[str]:
    """Independent consistency checks over a rendered report dict.

    Returns a list of violations (empty means the report's conclusion is
    supported by the premises it itself records)."""
    out = []
    gate = data.get("gate", {})
    dim2 = data.get("dim2")
    certs = data.get("certificates", [])
    conclusion = data.get("conclusion")
    if conclusion == "trivial":
        if not gate.get("passes"):
            out.append("trivial conclusion without a passing gate")
        if dim2 != 0:
            out.append("trivial conclusion without dim2 = 0")
        all_odd = any(c["primes_covered"] in ("all-odd", "all") for c in certs)
        sampled = set()
        for c in certs:
            if isinstance(c["primes_covered"], list):
                sampled.update(c["primes_covered"])
        ell_max = data.get("input", {}).get("ell_max", 37)
        odd_ells = [p for p in primes_up_to(ell_max) if p % 2]
        gaps = [l for l in odd_ells if l not in sampled]
        if not all_odd:
            if gaps and gaps != [3]:
                out.append(f"trivial conclusion with uncovered odd primes {gaps}")
            if gaps == [3] and ELL3_CAVEAT not in data.get("caveats", []):
                out.append("mod-3 gap without its caveat")
            if not data.get("caveats"):
                out.append("sampled coverage requires caveats")
    if conclusion == "two-part-nontrivial":
        if not isinstance(dim2, int) or dim2 <= 0:
            out.append("two-part-nontrivial without positive dim2")
    if isinstance(dim2, int) and isinstance(data.get("d"), int) \
            and isinstance(data.get("r"), int):
        if data["two_torsion_route"] == "residue-matrix" and dim2 != data["d"] - data["r"]:
            out.append("dim2 != d - r on the residue route")
    if data.get("r_confidence") == "heuristic" and conclusion == "trivial":
        if not any("CM j-invariant list" in c for c in data.get("caveats", [])):
            out.append("heuristic r without its caveat")
    recorded = data.get("twisted", {}).get("flag")
    if recorded is not None and recorded != twisted_flag(data):
        out.append("twisted flag does not match the report's own evidence")
    return out


# -- family search -----------------------------------------------------------


def _lattice_tuples():
    """(m, n, m', n') over nonnegative shells, lexicographic within a shell."""
    s = 0
    while True:
        for m in range(s + 1):
            for n in range(s + 1):
                for mp in range(s + 1):
                    for np_ in range(s + 1):
                        if max(m, n, mp, np_) == s:
                            yield m, n, mp, np_
        s += 1


def search_family(count: int, seed: int = 0) -> list[CurvePairSpec]:
    """Deterministically generate curve pairs (a, b) = (5 + 35m, 7 + 35n),
    (a', b') = (1 + 35m', 2 + 35n') with m != 2 mod 5 and n != 4 mod 7,
    validated against the family conditions; seed offsets the start of the
    enumeration."""
    if count < 1:
        raise InputError("count must be >= 1")
    if seed < 0:
        raise InputError("seed must be >= 0")
    out: list[CurvePairSpec] = []
    skipped = 0
    for m, n, mp, np_ in _lattice_tuples():
        if m % 5 == 2 or n % 7 == 4:
            continue
        a, b = 5 + 35 * m, 7 + 35 * n
        a2, b2 = 1 + 35 * mp, 2 + 35 * np_
        if check_57_family(a, b):
            continue
        if a2 == b2 or a2 == 0 or b2 == 0:
            continue
        if any(v % q == 0 for v in (a2, b2, a2 - b2) for q in (5, 7)):
            continue
        if skipped < seed:
            skipped += 1
            continue
        out.append(CurvePairSpec(
            CurveInput("rt2", CurveRT2(a, b).to_lw(), (a, b)),
            CurveInput("rt2", CurveRT2(a2, b2).to_lw(), (a2, b2)),
        ))
        if len(out) == count:
            return out
    raise AssertionError("unreachable: the family is infinite")

"""Pipeline orchestration: analyze a pair of elliptic curves over Q and
produce a machine-readable report on the transcendental Brauer group of the
associated Kummer surface, with every certificate carrying its witnesses.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .arith import Record, is_prime, primes_up_to
from .curves import (
    CurveLW,
    CurveRT2,
    Point,
    SingularCurveError,
    on_curve,
    to_rt2,
)
from .homrank import rank_r
from .oddpart import (
    CertificateFailure,
    OddCertificate,
    congruence_evidence,
    cm_isogeny_exclusion_certificate,
    first_incongruent_primes,
    j_valuation_certificate,
    mod_ell_surjectivity,
    six_torsion_cm_certificate,
    surjectivity_verdicts,
)
from .residues import kernel_dimension, residue_matrix, two_torsion_dimension

MODEL_CAVEAT = ("reduction is tested on the supplied models without "
                "minimalization; a non-minimal model can only weaken "
                "certificates, never overclaim")
ELL3_CAVEAT = ("mod-3 surjectivity is not decidable from trace/determinant "
               "sampling and is carried as an assumption")
NO_TRANSFER = "no evidence that the geometric invariants vanish"

# Upper limits on the options: the prime sieve allocates one byte per
# integer up to bound, and mod-ell sampling, O(ell) set-up and O(1) per
# sample, may read every a_p up to bound once for each sampled ell.
MAX_BOUND = 10**6
MAX_ELL = 100
# the bound and ell_max of a pair spec that gives none; ell_max also of a
# report's rules
DEFAULT_BOUND = 10_000
DEFAULT_ELL_MAX = 37
# search_family's work is linear in count + seed: 10^4 pairs printed as
# JSON take about 1 s and 53 MB (Python 3.11, 2-vCPU Xeon)
MAX_SEARCH = 10**4


class InputError(ValueError):
    """Malformed curve records or analysis options."""


class CurveInput(Record):
    __match_args__ = ("lw", "rt2_raw", "six_torsion", "label")

    def __init__(self, lw: CurveLW, rt2_raw: tuple[int, int] | None = None,
                 six_torsion: Point = None, label: str | None = None):
        if six_torsion is not None and not on_curve(lw, six_torsion):
            raise InputError("six_torsion point is not on the curve")
        self.__dict__.update(lw=lw, rt2_raw=rt2_raw, six_torsion=six_torsion, label=label)

    def echo(self) -> dict:
        out: dict = {}
        if self.rt2_raw is not None:
            out["rt2"] = {"a": self.rt2_raw[0], "b": self.rt2_raw[1]}
        else:
            out["weierstrass"] = [str(c) for c in self.lw.key()]
        if self.six_torsion is not None:
            out["six_torsion"] = [str(self.six_torsion[0]), str(self.six_torsion[1])]
        if self.label is not None:
            out["label"] = self.label
        return out


def _parse_rational(v) -> Fraction:
    if isinstance(v, bool):
        raise InputError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    # an exponent ("1e999999999") would make Fraction build a huge integer
    if isinstance(v, str) and "e" not in v.lower():
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"not a rational: {v!r}") from e
    raise InputError(f"not a rational: {v!r}")


def parse_curve_record(rec: dict) -> CurveInput:
    """Curve records: {"rt2": {"a": int, "b": int}} or
    {"weierstrass": [a1, a2, a3, a4, a6]} with rationals as "num/den"
    strings, plus optional "six_torsion": [x, y] and "label" (a string or
    null)."""
    if not isinstance(rec, dict):
        raise InputError("curve record must be an object")
    label = rec.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError(f"label must be a string, not {label!r}")
    point = None
    if "six_torsion" in rec:
        xy = rec["six_torsion"]
        if not (isinstance(xy, (list, tuple)) and len(xy) == 2):
            raise InputError("six_torsion must be [x, y]")
        point = (_parse_rational(xy[0]), _parse_rational(xy[1]))
    raw = None
    try:
        if "rt2" in rec:
            ab = rec["rt2"]
            try:
                a, b = _parse_rational(ab["a"]), _parse_rational(ab["b"])
            except (KeyError, TypeError) as e:
                raise InputError("rt2 record needs integer fields a, b") from e
            if a.denominator != 1 or b.denominator != 1:
                raise InputError("rt2 record needs integer fields a, b")
            raw = (int(a), int(b))
            curve = CurveRT2(*raw).to_lw()
        elif "weierstrass" in rec:
            coeffs = rec["weierstrass"]
            if not (isinstance(coeffs, (list, tuple)) and len(coeffs) == 5):
                raise InputError("weierstrass record needs [a1, a2, a3, a4, a6]")
            curve = CurveLW(*(_parse_rational(c) for c in coeffs))
        else:
            raise InputError("curve record needs an 'rt2' or 'weierstrass' field")
    except SingularCurveError as e:
        raise InputError(str(e)) from e
    # what a report prints of the curve: j, 256 Delta, the surface's b2, 2 b4,
    # b6 and the 2-torsion x; str() refuses ints past get_int_max_str_digits()
    b2, b4, b6, _ = curve.b_invariants()
    try:
        str((curve.j(), 256 * curve.discriminant(), b2, 2 * b4, b6))
        str(curve.cubic_roots)  # searched only once the cubic is printable
    except ValueError as e:
        raise InputError("j, Delta or a surface coefficient of the curve has more digits "
                         f"than a report prints ({sys.get_int_max_str_digits()})") from e
    return CurveInput(curve, raw, point, label)


class CurvePairSpec(Record):
    __match_args__ = ("first", "second", "bound", "ell_max", "odd_primes")

    def __init__(self, first: CurveInput, second: CurveInput, bound: int = DEFAULT_BOUND,
                 ell_max: int = DEFAULT_ELL_MAX, odd_primes: tuple[int, ...] = ()):
        self.__dict__.update(first=first, second=second, bound=bound, ell_max=ell_max,
                             odd_primes=odd_primes)

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
    # absent keys take CurvePairSpec's defaults
    options = {k: data[k] for k in ("bound", "ell_max") if k in data}
    spec = CurvePairSpec(first, second, odd_primes=tuple(odd), **options)
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


def _root_factor(var: str, root: int | Fraction) -> str:
    if root == 0:
        return var
    r = str(root) if root.denominator == 1 else f"({root})"
    return f"({var}-{r})" if root > 0 else f"({var}+{str(-root)})"


def _curve_rhs(ci: CurveInput, var: str) -> tuple[str, bool]:
    """(right-hand side text, already-factored flag) for one curve."""
    if ci.rt2_raw is not None:
        a, b = ci.rt2_raw
        return "".join(_root_factor(var, r) for r in (0, a, b)), True
    c = ci.lw
    if c.a1 == 0 and c.a3 == 0:
        roots = c.cubic_roots
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


class BrauerReport(Record):
    """A finished report: the schema-1 dict render_report writes."""

    __match_args__ = ("data",)

    def __init__(self, data: dict):
        self.__dict__.update(data=data)

    def to_dict(self) -> dict:
        return self.data

    @property
    def conclusion(self) -> str:
        return self.data["conclusion"]


def analyze(spec: CurvePairSpec) -> BrauerReport:
    """Run the full pipeline on a pair of curves.

    Two-torsion: when both curves have fully rational 2-torsion the residue
    matrix gives d and the dimension formula d - r; otherwise the 2-part is
    handled through mod-2 Galois module evidence and flagged.  Odd torsion:
    the strategies run in order j-valuation, CM isogeny exclusion,
    six-torsion CM pair, per-ell sampling.  The conclusion, the coverage
    caveats and the twisted flag are read off the report's premises by the
    rules validate_report checks.
    """
    first, second = spec.first, spec.second
    e, e2 = first.lw, second.lw
    if e2 == e:  # one object for equal models, so each a_p is counted once
        e2 = e
    bound, ell_max = spec.bound, spec.ell_max
    rank = rank_r(e, e2, bound)
    gate = rank.gate
    same = rank.evidence.kind == "same-curve"

    witnesses: list[dict] = []
    caveats: list[str] = [MODEL_CAVEAT]
    if rank.evidence.witness is not None:
        witnesses.append({"role": f"non-isogeny ({rank.evidence.kind})",
                          "prime": rank.evidence.witness,
                          "detail": rank.evidence.detail})
    if rank.confidence == "heuristic":
        caveats.append("r rests on the rational CM j-invariant list (heuristic)")

    # two-torsion part
    rt1, rt2_ = to_rt2(e), to_rt2(e2)
    residue_route = isinstance(rt1, CurveRT2) and isinstance(rt2_, CurveRT2)
    d, kernel_basis, dim2 = None, [], None
    if residue_route:
        d, basis = kernel_dimension(residue_matrix(rt1.a, rt1.b, rt2_.a, rt2_.b))
        kernel_basis = [list(b) for b in basis]
        dim2 = two_torsion_dimension(d, rank.r, gate)
        if dim2:
            witnesses.append({"role": "two-torsion kernel", "prime": None,
                              "detail": f"d = {d} residue-free combinations: {kernel_basis}"})
    else:
        caveats.append("a curve lacks fully rational 2-torsion; the 2-part is "
                       "handled through mod-2 Galois module evidence, not residues")

    # odd part
    cert = j_valuation_certificate(e, e2)
    if isinstance(cert, CertificateFailure) and not same:
        cert = j_valuation_certificate(e2, e)
    if isinstance(cert, CertificateFailure) and not same:
        partner, big = (second, e) if second.six_torsion is not None else (first, e2)
        if partner.six_torsion is not None:
            cert = six_torsion_cm_certificate(
                big, partner.lw, partner.six_torsion, ell_max, bound)
            if isinstance(cert, CertificateFailure):
                caveats.append(f"six-torsion route failed: {cert.reason}")
    certificates = [cert] if isinstance(cert, OddCertificate) else []
    if not certificates:
        odd_ells = _odd_ells(ell_max)
        if same and rank.r == 2:
            cert = cm_isogeny_exclusion_certificate(e, odd_ells, max(bound, 200))
            certificates.append(cert)
            odd_ells = [ell for ell in odd_ells if ell not in cert.primes_covered]
        if odd_ells and (same or rank.r == 0):
            certificates.append(
                _sampling_certificate(e, e2, same, odd_ells, ell_max, bound))

    # two-torsion part via mod-2 evidence when residues are unavailable
    if not residue_route and gate.passes:
        two = _mod2_witness(e, e2, same, certificates, bound)
        if two is not None:
            dim2 = 0
            witnesses.append(two)

    # requested congruence evidence; a certified Q-isogeny gives equal a_p
    # at every common good prime, so the scan would pass
    isogenous = rank.evidence.kind in ("same-curve", "isogenous")
    failing = {} if isogenous else first_incongruent_primes(e, e2, spec.odd_primes, bound)
    evidence = []
    for ell in spec.odd_primes:
        fail = failing.get(ell)
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

    premises = {
        "schema": 1,
        "input": spec.echo(),
        "labels": [first.label, second.label],
        "surface": pair_surface_equation(first, second),
        "two_torsion_route": ("residue-matrix" if residue_route else
                              "galois-module-evidence" if dim2 == 0 else "unresolved"),
        "d": d,
        "kernel_basis": kernel_basis,
        "r": rank.r,
        "r_confidence": rank.confidence,
        "gate": {"case": gate.case, "passes": gate.passes, "detail": gate.detail},
        "dim2": "not determined" if dim2 is None else dim2,
        "certificates": [_certificate_dict(c) for c in certificates],
        "witnesses": witnesses,
        "evidence": evidence,
    }
    transfer = _twisted_transfer(premises)
    return BrauerReport({
        **premises,
        "twisted": {"flag": transfer is not None, "detail": transfer or NO_TRANSFER},
        "conclusion": _conclusion(premises),
        "caveats": caveats + _coverage_caveats(premises),
    })


def _certificate_dict(c: OddCertificate) -> dict:
    covered = c.primes_covered
    return {"kind": c.kind,
            "primes_covered": covered if isinstance(covered, str) else list(covered),
            "witnesses": [list(w) for w in c.witnesses],
            "caveats": list(c.caveats),
            "detail": c.detail}


def _sampling_certificate(
    e: CurveLW, e2: CurveLW, same: bool, ells: list[int], ell_max: int, bound: int
) -> OddCertificate:
    """Per-ell sampling over the odd ell no other certificate covers.  A full
    mod-ell image on E covers ell for E paired with itself, and for a pair
    together with a trace mismatch mod ell.  One pass over the primes
    samples every ell, and one more finds the mismatches."""
    verdicts = surjectivity_verdicts(e, ells, bound)
    full = [ell for ell in ells if verdicts[ell].verdict == "surjective"]
    failing = {} if same else first_incongruent_primes(e, e2, full, bound)
    covered, witnesses, caveats = [], [], []
    for ell in ells:
        verdict = verdicts[ell]
        if verdict.verdict != "surjective":
            if ell == 3:
                caveats.append(ELL3_CAVEAT)
            else:
                caveats.append(f"ell = {ell}: surjectivity not established "
                               f"up to {bound}")
            continue
        if same:
            covered.append(ell)
            witnesses.append((f"ell = {ell}",
                              "full mod-ell image forces scalar invariants"))
            continue
        w = failing[ell]
        if w is None:
            caveats.append(f"ell = {ell}: traces congruent for all "
                           f"p <= {bound}; modules may be isomorphic")
        else:
            covered.append(ell)
            witnesses.append((f"ell = {ell}",
                              f"full image on E and a_{w} differs mod {ell}"))
    caveats.append(f"primes above {ell_max} unverified (sampling bound)")
    return OddCertificate(
        "mod-ell-sampling", tuple(covered), tuple(witnesses), tuple(caveats),
        detail=f"per-ell sampling up to B = {bound}, ell <= {ell_max}")


def _mod2_witness(
    e: CurveLW, e2: CurveLW, same: bool, certificates: list[OddCertificate], bound: int
) -> dict | None:
    """The witness that dim2 = 0 from mod-2 Galois module evidence, for a
    passing gate without residues; None when there is none.  Two curves that
    are not the same pass the gate only with r = 0."""
    if any(c.kind == "six-torsion-cm-pair" for c in certificates):
        return {"role": "two-torsion via pair certificate", "prime": None,
                "detail": "the six-torsion CM pair certificate covers 2 as well"}
    if same:
        v2 = mod_ell_surjectivity(e, 2, bound)
        if v2.verdict == "surjective":
            ((_, disc),) = v2.witnesses
            return {"role": "two-torsion (same curve)", "prime": None,
                    "detail": "2-division cubic irreducible with non-square "
                              f"discriminant (class of {disc})"}
    elif any(mod_ell_surjectivity(c, 2, bound).verdict == "surjective" for c in (e, e2)):
        w = congruence_evidence(e, e2, 2, bound)
        if w is not None:
            return {"role": "two-torsion (pair)", "prime": w, "detail":
                    f"irreducible mod-2 module on one side and a_{w} parity mismatch"}
    return None


# -- the rules a rendered report must satisfy -----------------------------------


def _odd_ells(ell_max: int) -> list[int]:
    return [p for p in primes_up_to(ell_max) if p % 2]


def _ell_max(data: dict) -> int:
    return data.get("input", {}).get("ell_max", DEFAULT_ELL_MAX)


def _odd_coverage(data: dict) -> str:
    """Which odd ell a rendered report's certificates cover: "all" when one
    of them covers every odd ell; "sampled" when they list at least one ell
    and every odd ell <= ell_max is listed or undecidable (3, when a
    certificate carries ELL3_CAVEAT); otherwise "none"."""
    certs = data.get("certificates", [])
    if any(c["primes_covered"] in ("all-odd", "all") for c in certs):
        return "all"
    listed = {ell for c in certs if isinstance(c["primes_covered"], list)
              for ell in c["primes_covered"]}
    if not listed:
        return "none"
    if any(ELL3_CAVEAT in c["caveats"] for c in certs):
        listed.add(3)
    return "sampled" if listed.issuperset(_odd_ells(_ell_max(data))) else "none"


def _coverage_caveats(data: dict) -> list[str]:
    """The report-level caveats that sampled odd coverage requires."""
    if _odd_coverage(data) != "sampled":
        return []
    out = [f"odd coverage sampled for ell <= {_ell_max(data)} only"]
    if any(ELL3_CAVEAT in c["caveats"] for c in data["certificates"]):
        out.append(ELL3_CAVEAT)
    return out


def _conclusion(data: dict) -> str:
    """The conclusion a rendered report's own gate, dim2 and odd coverage
    support."""
    dim2 = data.get("dim2")
    if not data.get("gate", {}).get("passes") or not isinstance(dim2, int) or dim2 < 0:
        return "inconclusive"
    if dim2 > 0:
        return "two-part-nontrivial"
    return "odd-part-open" if _odd_coverage(data) == "none" else "trivial"


def _twisted_transfer(data: dict) -> str | None:
    """The twisted-surface rule on a rendered report: the detail text of the
    branch that holds, or None when neither does.

    The conclusion transfers to every twisted Kummer surface of the pair
    exactly when the report's own certificates imply that all geometric
    Brauer invariants vanish at the sampled primes: either a six-torsion CM
    pair certificate, or a certified non-isogenous pair with module-vanishing
    evidence at 2 and sampled odd coverage (at least one odd ell, and every
    decidable odd ell).  Same-curve routes never qualify: the invariant
    2-part survives.
    """
    if any(c["kind"] == "six-torsion-cm-pair" for c in data.get("certificates", [])):
        return ("six-torsion CM pair certificate: conclusions transfer "
                "to all twists (conditional on the sampled-ell caveats)")
    if (data.get("gate", {}).get("case") == "not-isogenous"
            and any(w["role"] == "two-torsion (pair)" for w in data.get("witnesses", []))
            and _odd_coverage(data) == "sampled"):
        return ("non-isogenous pair with module-vanishing evidence at "
                f"2 and every decidable odd ell <= {_ell_max(data)}; "
                "transfers to all twists (conditional on the sampled-ell caveats)")
    return None


def twisted_flag(data: dict) -> bool:
    """Whether the twisted-surface rule holds for a rendered report; analyze
    sets the report's flag by the same rule."""
    return _twisted_transfer(data) is not None


def stable_json(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2) for dicts with
    str keys, lists, tuples, str, int, bool and None; any other value or key
    raises TypeError.  CPython's C encoder serves only indent=None; this
    writer takes about half the time of the pure-Python one, and strings
    still go through the C escaper."""
    out: list[str] = []
    _write_json(obj, "\n", out)
    return "".join(out)


def _write_json(obj, newline: str, out: list[str]) -> None:
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple, dict)):
        is_dict = isinstance(obj, dict)
        inner, sep, close = newline + "  ", "{" if is_dict else "[", "}" if is_dict else "]"
        for item in sorted(obj) if is_dict else obj:
            if not is_dict:
                out.append(sep + inner)
            elif isinstance(item, str):
                out.append(sep + inner + encode_basestring_ascii(item) + ": ")
                item = obj[item]
            else:
                raise TypeError(f"key {item!r} is not a str")
            _write_json(item, inner, out)
            sep = ","
        out.append(newline + close if obj else sep + close)  # "{}" and "[]" when empty
    else:
        raise TypeError(f"{type(obj).__name__} {obj!r} has no stable JSON form")


def render_report(report: BrauerReport, fmt: str = "json") -> str:
    """Stable serialization: json (sorted keys, reproducible bytes) or text."""
    d = report.to_dict()
    if fmt == "json":
        return stable_json(d) + "\n"
    if fmt != "text":
        raise InputError(f"unknown format: {fmt}")
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


def _shape_violations(data: dict) -> list[str]:
    """The fields the report rules read that are missing or mistyped."""
    if not isinstance(data, dict):
        return ["the report is not an object"]
    out = [f"no field {k!r}" for k in ("two_torsion_route", "gate", "dim2",
                                       "certificates", "witnesses") if k not in data]
    dim2 = data.get("dim2", "not determined")
    if type(dim2) is not int and dim2 != "not determined":  # true is no integer here
        out.append(f"dim2 {dim2!r} is neither an integer nor 'not determined'")
    out += [f"{k} is not an object" for k in ("gate", "twisted", "input")
            if not isinstance(data.get(k, {}), dict)]
    # the coverage rule sieves the primes up to ell_max; true is no integer
    given = data.get("input", {})
    if isinstance(given, dict) and "ell_max" in given:
        ell_max = given["ell_max"]
        if type(ell_max) is not int or not 2 <= ell_max <= MAX_ELL:
            out.append(f"input.ell_max {ell_max!r} is not an integer in [2, {MAX_ELL}]")
    caveats = data.get("caveats", [])
    if not isinstance(caveats, list) or not all(isinstance(c, str) for c in caveats):
        out.append("caveats is not a list of strings")
    for key, fields in (("certificates", ("kind", "primes_covered", "caveats")),
                        ("witnesses", ("role",))):
        items = data.get(key, [])
        if not isinstance(items, list):
            out.append(f"{key} is not a list")
            continue
        for i, item in enumerate(items):
            lacks = [k for k in fields if not isinstance(item, dict) or k not in item]
            if lacks:
                out.append(f"{key}[{i}] has no field {lacks}")
            elif key == "certificates":
                # the coverage rule gathers the listed primes into a set and
                # looks for the mod-3 caveat among the caveats
                covered = item["primes_covered"]
                if covered not in ("all-odd", "all") and not (
                        isinstance(covered, list) and all(type(p) is int for p in covered)):
                    out.append(f"{key}[{i}].primes_covered is neither 'all-odd', 'all' "
                               "nor a list of integers")
                if not isinstance(item["caveats"], list):
                    out.append(f"{key}[{i}].caveats is not a list")
    return out


def validate_report(data: dict) -> list[str]:
    """Independent consistency checks over a rendered report dict.

    Returns a list of violations (empty means the report's conclusion is
    supported by the premises it itself records).  The conclusion, the
    coverage caveats and the twisted flag must be what analyze's own rules
    give on the report's gate, dim2 and certificates.  A report that lacks a
    field those rules read, or holds one of the wrong type, gets only that
    violation."""
    out = _shape_violations(data)
    if out:
        return out
    conclusion = data.get("conclusion")
    caveats = data.get("caveats", [])
    expected = _conclusion(data)
    if conclusion != expected:
        out.append(f"conclusion {conclusion!r} where the gate, dim2 and odd "
                   f"coverage give {expected!r}")
    missing = [c for c in _coverage_caveats(data) if c not in caveats]
    if missing:
        out.append(f"sampled odd coverage without its caveats {missing}")
    dim2 = data.get("dim2")
    if isinstance(dim2, int) and isinstance(data.get("d"), int) \
            and isinstance(data.get("r"), int):
        if data["two_torsion_route"] == "residue-matrix" and dim2 != data["d"] - data["r"]:
            out.append("dim2 != d - r on the residue route")
    if data.get("r_confidence") == "heuristic" and conclusion == "trivial":
        if not any("CM j-invariant list" in c for c in caveats):
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
    (a', b') = (1 + 35m', 2 + 35n') with m != 2 mod 5 and n != 4 mod 7; seed
    offsets the start of the enumeration.  The residue filters alone put
    (a, b) in the family of check_57_family: mod 5, a = 0, b = 2 and
    a - b = 3; mod 7, a = 5, b = 0 and a - b = 5.  So 5 divides a alone, 7
    divides b alone, and 0 < a != b.  25 | a iff 1 + 7m = 0 mod 5 iff
    m = 2 mod 5, and 49 | b iff 1 + 5n = 0 mod 7 iff n = 4 mod 7.
    (a', b') needs no check: a' = 1, b' = 2 and a' - b' = -1 mod 35, so
    none is 0, a' != b', and 5 and 7 divide none.
    Pairs with a curve (a, b) in common hold the same CurveInput object, so
    analyses of the batch share its memos."""
    if count < 1:
        raise InputError("count must be >= 1")
    if seed < 0:
        raise InputError("seed must be >= 0")
    if count + seed > MAX_SEARCH:
        raise InputError(f"count + seed must be at most {MAX_SEARCH}")
    out: list[CurvePairSpec] = []
    inputs: dict[tuple[int, int], CurveInput] = {}

    def rt2_input(a: int, b: int) -> CurveInput:
        if (a, b) not in inputs:
            inputs[a, b] = CurveInput(CurveRT2(a, b).to_lw(), (a, b))
        return inputs[a, b]

    skipped = 0
    for m, n, mp, np_ in _lattice_tuples():
        if m % 5 == 2 or n % 7 == 4:
            continue
        a, b = 5 + 35 * m, 7 + 35 * n
        a2, b2 = 1 + 35 * mp, 2 + 35 * np_
        if skipped < seed:
            skipped += 1
            continue
        out.append(CurvePairSpec(rt2_input(a, b), rt2_input(a2, b2)))
        if len(out) == count:
            return out
    raise AssertionError("unreachable: the family is infinite")

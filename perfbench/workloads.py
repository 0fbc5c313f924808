"""Workload inputs, the timed pass of each workload, and its output checks.

The parent process (run.py) builds a job from --seed with `make_job`; it
never imports the program.  A child process (child.py) parses the job's
specs with the program, runs `run_pass` once, then `check_pass`.  Each
workload leans on a different layer:

- early-exit: the five goldens through the CLI plus a `search_family`
  batch; early witnesses end every scan at small p, so per-prime overhead,
  `a_p` cache reads and orchestration dominate.
- full-scan: two pairs whose non-isogeny and congruence scans run to
  B = 5000, so point counting (`count_points`) dominates.
- big-coeff: rt2 pairs with 14-digit semiprime coefficients, each analysed
  as an rt2 record and as a shifted Weierstrass model, so factoring
  (`arith.factor`) dominates; plus one budgeted probe that does not finish.
- criterion-oracle: the GL(2, F_ell) subgroup oracle at ell = 3 and 5,
  which touches no curve code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
EXPECTED_PATH = BENCH_DIR / "expected.json"

WORKLOADS = ("early-exit", "full-scan", "big-coeff", "criterion-oracle")

# early-exit: the seed picks the search_family offset among FAMILY_OFFSETS
# windows of FAMILY_COUNT pairs; expected.json covers every window.
FAMILY_COUNT = 300
FAMILY_OFFSETS = 64

FULL_SCAN_B = 5_000
# 11a1 / 11a3 are isogenous: the non-isogeny scan and both congruence scans
# run to B.  11a1 x 37a1: mod-5 sampling of 11a1 (rational 5-torsion) never
# succeeds and re-reads every cached a_p.
FULL_SCAN_PAIRS = (
    ("11a1-11a3", [0, -1, 1, -10, -20], [0, -1, 1, 0, 0], [5, 7]),
    ("11a1-37a1", [0, -1, 1, -10, -20], [0, 0, 1, -1, 0], []),
)

# big-coeff: (a, b) = (p*q1, p*q2) with p a 6-digit and q1, q2 8-digit
# primes, each from the top of its range.  The factor structure of every
# number the analysis factors is the same for every draw (see
# big_coeff_pool), so draws differ little in cost.  The seed draws
# BIG_COEFF_PAIRS pairs from a fixed pool of BIG_COEFF_POOL pairs, all of
# which expected.json covers.
BIG_COEFF_B = 1_000
BIG_COEFF_POOL = 32
BIG_COEFF_PAIRS = 2
POOL_SEED = 2009
SMALL_PRIME_BAND = (900_000, 1_000_000)
LARGE_PRIME_BAND = (50_000_000, 100_000_000)

# A 37-digit semiprime coefficient: Pollard rho inside square_class does not
# finish on it.  It runs in its own interpreter under a wall-clock budget.
PROBE_SEMIPRIME = 400000000000000013 * 7000000000000000013
PROBE_BUDGET_S = 1.0
PROBE_ARGV = ["analyze", "--first", f"rt2:{PROBE_SEMIPRIME},7",
              "--second", "rt2:1,2", "--bound-B", "100"]

ORACLE_ELLS = (3, 5)


# -- inputs (parent side; no program import) ----------------------------------


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases proven deterministic for n < 3.4 * 10^14."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _draw_prime(rng: random.Random, band: tuple[int, int]) -> int:
    while True:
        n = rng.randrange(*band) | 1
        if _is_prime(n):
            return n


def _draw_shiftable_prime(rng: random.Random, p: int) -> int:
    """A prime q in LARGE_PRIME_BAND with (q - p) / 2 prime."""
    while True:
        q = _draw_prime(rng, LARGE_PRIME_BAND)
        if _is_prime((q - p) // 2):
            return q


def _shifted_model(a: int, b: int, s: int) -> list[int]:
    """[a1..a6] of y^2 = (x+s)(x+s-a)(x+s-b): the rt2 curve (a, b) moved by
    x -> x + s.  Its cubic has roots -s, a-s, b-s."""
    r0, r1, r2 = -s, a - s, b - s
    return [0, -(r0 + r1 + r2), 0, r0 * r1 + r0 * r2 + r1 * r2, -r0 * r1 * r2]


def big_coeff_pool() -> list[dict]:
    """The fixed pool of big-coefficient pairs.

    Each curve is (a, b) = (p q1, p q2), shifted by s = p^2.  The shifted
    cubic's roots are -p^2, 2 p m1 and 2 p m2 with m = (q - p) / 2 prime, so
    `to_rt2` factors 4 p^4 m1 m2 (60 divisors) for every draw, and the
    residue matrix factors products of p, the q's and a - b = p (q1 - q2).
    """
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(BIG_COEFF_POOL):
        curves = []
        for _ in range(2):
            p = _draw_prime(rng, SMALL_PRIME_BAND)
            q1, q2 = (_draw_shiftable_prime(rng, p) for _ in range(2))
            a, b = sorted((p * q1, p * q2))
            curves.append((a, b, _shifted_model(a, b, p * p)))
        (a, b, w), (a2, b2, w2) = curves
        pool.append({
            "key": f"{a},{b},{a2},{b2}",
            "rt2": {"first": {"rt2": {"a": a, "b": b}},
                    "second": {"rt2": {"a": a2, "b": b2}},
                    "bound": BIG_COEFF_B},
            "shifted": {"first": {"weierstrass": w},
                        "second": {"weierstrass": w2},
                        "bound": BIG_COEFF_B},
        })
    return pool


def make_job(workload: str, seed: int, work_dir: Path = WORK_DIR) -> dict:
    """The inputs of one workload for one seed; the same seed gives the same job."""
    if workload == "early-exit":
        work_dir.mkdir(parents=True, exist_ok=True)
        goldens = []
        for path in sorted(GOLDEN_DIR.glob("*.json")):
            spec_path = work_dir / f"spec_{path.name}"
            spec = json.loads(path.read_text(encoding="utf-8"))["input"]
            spec_path.write_text(json.dumps(spec, sort_keys=True), encoding="utf-8")
            goldens.append([path.name, str(spec_path)])
        return {"workload": workload, "goldens": goldens,
                "family_count": FAMILY_COUNT,
                "family_offset": seed % FAMILY_OFFSETS}
    if workload == "full-scan":
        pairs = [[label, {"first": {"weierstrass": e}, "second": {"weierstrass": e2},
                          "bound": FULL_SCAN_B, "odd_primes": odd}]
                 for label, e, e2, odd in FULL_SCAN_PAIRS]
        return {"workload": workload, "pairs": pairs}
    if workload == "big-coeff":
        pool = big_coeff_pool()
        picks = random.Random(seed).sample(range(len(pool)), BIG_COEFF_PAIRS)
        pairs = []
        for i in picks:
            pairs.append([pool[i]["key"] + " rt2", pool[i]["rt2"]])
            pairs.append([pool[i]["key"] + " shifted", pool[i]["shifted"]])
        return {"workload": workload, "pairs": pairs,
                "probe": {"argv": PROBE_ARGV, "budget_s": PROBE_BUDGET_S}}
    if workload == "criterion-oracle":
        return {"workload": workload, "ells": list(ORACLE_ELLS)}
    raise ValueError(f"unknown workload {workload!r}")


# -- the pass (child side) -----------------------------------------------------


def import_program():
    """Import the program from the checkout's src/ and return its modules."""
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    from kummer_brauer import cli, gl2, report
    return {"cli": cli, "gl2": gl2, "report": report}


def parse_job(job: dict, mods: dict) -> dict:
    """Parse the job's pair specs with the program (part of set-up)."""
    parse = mods["report"].parse_pair_spec
    return {label: parse(rec) for label, rec in job.get("pairs", ())}


class Raised(str):
    """The output of an operation that raised: the exception's repr."""


def _timed(ops: list, label: str, fn) -> None:
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as e:  # counted as a failed operation, not a crashed run
        out = Raised(repr(e))
    ops.append((label, time.perf_counter() - t0, out))


def _cli_analyze(cli, spec_path: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["analyze", "--pair", spec_path])
    return code, buf.getvalue()


def run_probe(probe: dict) -> dict:
    """Run the CLI on the probe input in its own interpreter under a budget."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    t0 = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "kummer_brauer.cli", *probe["argv"]],
            capture_output=True, text=True, env=env, timeout=probe["budget_s"])
    except subprocess.TimeoutExpired:
        return {"outcome": "timeout", "seconds": time.perf_counter() - t0}
    return {"outcome": "exit", "code": done.returncode, "stdout": done.stdout,
            "seconds": time.perf_counter() - t0}


def run_pass(job: dict, parsed: dict, mods: dict) -> tuple[list, dict | None]:
    """One timed pass.  Returns the operations as (label, seconds, output)
    and the probe result, if the workload has one."""
    cli, gl2, report = mods["cli"], mods["gl2"], mods["report"]
    ops: list = []
    probe = None
    workload = job["workload"]
    if workload == "early-exit":
        for name, spec_path in job["goldens"]:
            _timed(ops, name, lambda: _cli_analyze(cli, spec_path))
        family = report.search_family(job["family_count"], job["family_offset"])
        for spec in family:
            a, b = spec.first.rt2_raw
            a2, b2 = spec.second.rt2_raw
            _timed(ops, f"{a},{b},{a2},{b2}",
                   lambda: report.render_report(report.analyze(spec)))
    elif workload in ("full-scan", "big-coeff"):
        for label, spec in parsed.items():
            _timed(ops, label, lambda: report.render_report(report.analyze(spec)))
        if "probe" in job:
            probe = run_probe(job["probe"])
    elif workload == "criterion-oracle":
        for ell in job["ells"]:
            _timed(ops, f"ell={ell}",
                   lambda: gl2.validate_surjectivity_criterion(ell))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, probe


def _op_text(out) -> str:
    if isinstance(out, str):
        return out
    if isinstance(out, tuple):  # (exit code, CLI stdout)
        return f"{out[0]}\n{out[1]}"
    return repr(out)


def digest(ops: list) -> str:
    """Hash of every output of a pass, in order."""
    h = hashlib.sha256()
    for label, _, out in ops:
        h.update(label.encode())
        h.update(_op_text(out).encode())
    return h.hexdigest()


# -- output checks (child side, after the timed region) -----------------------


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def summary_tuple(data: dict) -> list:
    """(conclusion, d, r, dim2) of a rendered report."""
    return [data["conclusion"], data["d"], data["r"], data["dim2"]]


def _check_report(text: str, expected, report) -> tuple[dict | None, list[str]]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        return None, [f"report is not JSON: {e}"]
    errors = [f"validate_report: {v}" for v in report.validate_report(data)]
    if expected is None:
        errors.append("no stored expectation for this input")
    elif summary_tuple(data) != expected:
        errors.append(f"(conclusion, d, r, dim2) = {summary_tuple(data)}, "
                      f"expected {expected}")
    return data, errors


def check_pass(job: dict, ops: list, probe: dict | None, mods: dict,
               expected: dict) -> list[tuple[str, str]]:
    """Every failed output check as (operation label, reason)."""
    report = mods["report"]
    workload = job["workload"]
    failures = [(label, f"raised {out}") for label, _, out in ops
                if isinstance(out, Raised)]
    ops = [op for op in ops if not isinstance(op[2], Raised)]
    want = expected[workload]
    if workload == "early-exit":
        goldens = {name for name, _ in job["goldens"]}
        for label, _, out in ops:
            if label in goldens:
                code, text = out
                if code != 0 or text.encode() != (GOLDEN_DIR / label).read_bytes():
                    failures.append((label, f"CLI exit {code} or output differs "
                                            "from the golden bytes"))
                continue
            failures += [(label, e) for e in
                         _check_report(out, want.get(label), report)[1]]
    elif workload in ("full-scan", "big-coeff"):
        seen: dict[str, dict] = {}
        for label, _, text in ops:
            key = label.partition(" ")[0]
            data, errors = _check_report(text, want.get(key), report)
            failures += [(label, e) for e in errors]
            if data is None:
                continue
            if key in seen and (summary_tuple(seen[key]), seen[key]["kernel_basis"]) \
                    != (summary_tuple(data), data["kernel_basis"]):
                failures.append((label, "the two models of one pair disagree"))
            seen[key] = data
        if probe is not None and not _probe_ok(probe, report):
            failures.append(("probe", f"probe ended badly: {probe}"))
    elif workload == "criterion-oracle":
        for label, _, res in ops:
            got = [res.passed, res.subgroup_count]
            if got != want[label]:
                failures.append((label, f"(passed, subgroups) = {got}, "
                                        f"expected {want[label]}"))
    return failures


def _probe_ok(probe: dict, report) -> bool:
    """A probe may time out (the known defect it measures), end with an input
    error, or finish with a valid report; anything else is a failure."""
    if probe["outcome"] == "timeout":
        return True
    if probe["code"] == 2:
        return True
    if probe["code"] != 0:
        return False
    try:
        return not report.validate_report(json.loads(probe["stdout"]))
    except json.JSONDecodeError:
        return False

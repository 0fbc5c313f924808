"""Layered cold-cache benchmark of kummer-brauer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload early-exit --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1

Each pass of a workload runs in a fresh interpreter (child.py), one at a
time, so the a_p cache, the prime sieve and the lazy imports are cold, as
they are for a user of the CLI.  Passes repeat until --seconds is spent.
With --trace 0 the end-to-end metrics are reported; with --trace 1,
untraced and traced passes alternate and the per-layer metrics of the
traced passes are reported.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_SAMPLES = 9  # set-up times per run, topped up with set-up-only passes
RUN_LIMIT_S = 170  # a run, passes included, ends within this

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("analyze_p50_ms", "ms"),
    ("analyze_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def _calls(span):
    return (f"{span}.calls", "count", True, lambda s: s["calls"].get(span, 0), span)


def _self(span, metric=None):
    return (metric or f"{span}.self_s", "s", False,
            lambda s: s["self_s"].get(span, 0.0), span)


def _extra(metric, unit, key, span):
    return (metric, unit, True, lambda s: s["extra"].get(key, 0), span)


def _us_per_call(band):
    return (f"curves.count_points.us_per_call.{band}", "us", False,
            lambda s: 1e6 * _ratio(s["extra"].get(f"count_points.band_s.{band}", 0.0),
                                   s["extra"].get(f"count_points.band_calls.{band}", 0)),
            "curves.count_points")


def _hit_ratio(s):
    calls = s["calls"].get("curves.ap", 0)
    return _ratio(calls - s["nested"].get("curves.ap>curves.count_points", 0), calls)


def _surjective_ratio(s):
    return _ratio(s["extra"].get("mod_ell_surjectivity.surjective", 0),
                  s["calls"].get("oddpart.mod_ell_surjectivity", 0))


def _unattributed(s):
    return s["run_s"] - sum(s["self_s"].values()) - s["probe_s"]


# (metric, unit, exact, value from one traced pass, span it needs).  Exact
# metrics are counts that must repeat in every traced pass; the others are
# medians over the traced passes.
PER_LAYER = (
    _calls("curves.count_points"),
    _self("curves.count_points"),
    _us_per_call("b1e2"),
    _us_per_call("b1e3"),
    _us_per_call("b1e4"),
    _calls("curves.ap"),
    ("curves.ap.hit_ratio", "ratio", True, _hit_ratio, "curves.ap"),
    _calls("curves.good_reduction_at"),
    _self("curves.good_reduction_at"),
    _calls("curves.to_rt2"),
    _self("curves.to_rt2"),
    _self("curves.cm_status"),
    _calls("arith.factor"),
    _self("arith.factor"),
    _extra("arith.factor.max_digits", "digits", "factor.max_digits", "arith.factor"),
    _calls("arith.square_class"),
    _calls("arith.is_prime"),
    _self("arith.is_prime"),
    _calls("arith.primes_up_to"),
    _self("arith.primes_up_to"),
    _self("residues.residue_matrix"),
    _self("residues.kernel_dimension"),
    _self("homrank.nonisogeny_certificate"),
    ("homrank.nonisogeny_certificate.ap_computed", "count", True,
     lambda s: s["nested"].get("homrank.nonisogeny_certificate>curves.count_points", 0),
     "homrank.nonisogeny_certificate"),
    _calls("homrank.same_curve"),
    _calls("oddpart.mod_ell_surjectivity"),
    _self("oddpart.mod_ell_surjectivity"),
    ("oddpart.mod_ell_surjectivity.surjective_ratio", "ratio", True, _surjective_ratio,
     "oddpart.mod_ell_surjectivity"),
    _self("oddpart.congruence_evidence"),
    _self("oddpart.six_torsion_cm_certificate"),
    _calls("gl2.witness_classes"),
    _self("gl2.witness_classes"),
    _self("gl2.GL2.init", "gl2.GL2.init_s"),
    _self("gl2.enumerate_subgroups"),
    _extra("gl2.subgroups", "count", "enumerate_subgroups.subgroups", "gl2.enumerate_subgroups"),
    _self("report.analyze"),
    _self("report.render_report"),
    _self("report.pair_surface_equation"),
    _self("cli.main"),
    ("trace.unattributed_s", "s", False, _unattributed, None),
    ("probe.seconds", "s", False, lambda s: s["probe_s"], None),
    ("probe.timed_out", "count", True, lambda s: s["probe_timed_out"], None),
)
# trace.overhead_ratio compares traced with untraced passes; computed apart.
PER_LAYER_NAMES = tuple(m[0] for m in PER_LAYER) + ("trace.overhead_ratio",)


class PassError(RuntimeError):
    """A pass did not complete: the program could not be run or ran too long."""


def spawn(job_path: Path, *flags: str, timeout: float) -> dict:
    """Run child.py once and return its JSON result."""
    if timeout <= 0:
        raise PassError(f"the run reached its {RUN_LIMIT_S} s limit")
    t0 = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(CHILD), str(job_path), repr(t0), *flags],
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise PassError(f"a pass ran longer than {timeout:.0f} s") from e
    if done.returncode != 0:
        raise PassError(f"a pass exited with code {done.returncode}:\n{done.stderr}")
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError) as e:
        raise PassError(f"a pass printed no result:\n{done.stdout}{done.stderr}") from e
    result["wall_s"] = time.monotonic() - t0
    return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    job = workloads.make_job(workload, seed)
    workloads.WORK_DIR.mkdir(parents=True, exist_ok=True)
    job_path = workloads.WORK_DIR / f"job_{workload}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")

    start = time.monotonic()
    modes = (False, True) if trace else (False,)
    passes: dict[bool, list] = {False: [], True: []}
    walls: list[float] = []
    setups: list[float] = []

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    while True:
        traced = modes[len(walls) % len(modes)]
        result = spawn(job_path, *(["--trace"] if traced else []), timeout=remaining())
        passes[traced].append(result)
        walls.append(result["wall_s"])
        if not traced:
            setups.append(result["setup_s"])
        # set-up-only children fill in where passes are few, spread over the
        # run so that one slow stretch of the machine does not set them all
        left = max(0.0, seconds - (time.monotonic() - start))
        passes_left = int(left / statistics.median(walls))
        while not trace and len(setups) + passes_left < SETUP_SAMPLES \
                and len(setups) < SETUP_SAMPLES * len(walls) / (len(walls) + passes_left):
            setups.append(spawn(job_path, "--setup-only", timeout=remaining())["setup_s"])
        if all(passes[m] for m in modes) and passes_left == 0:
            break
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(job_path, "--setup-only", timeout=remaining())["setup_s"])
    return {"job": job, "untraced": passes[False], "traced": passes[True],
            "setups": setups}


def end_to_end_metrics(run: dict) -> dict:
    """Times are best-of-run: the machine's speed drifts by tens of percent
    over seconds, and the fastest repetition is the one least disturbed.
    Set-up time and memory are medians."""
    untraced = run["untraced"]
    # every pass runs the same operations in the same order
    op_ms = [1e3 * min(times) for times in zip(*(p["op_s"] for p in untraced))]
    return {
        "setup_s": statistics.median(run["setups"]),
        "run_s": min(p["run_s"] for p in untraced),
        "analyze_p50_ms": statistics.median(op_ms),
        "analyze_p90_ms": percentile(op_ms, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }


def per_layer_metrics(run: dict) -> tuple[dict, list[str]]:
    """Per-layer values and the problems found (counts that did not repeat)."""
    problems = []
    summaries = []
    for p in run["traced"]:
        s = dict(p["trace"])
        s["run_s"] = p["run_s"]
        s["probe_s"] = p["probe"]["seconds"] if p["probe"] else 0.0
        s["probe_timed_out"] = int(bool(p["probe"]) and p["probe"]["outcome"] == "timeout")
        summaries.append(s)
    values = {}
    for name, _, exact, fn, _ in PER_LAYER:
        got = [fn(s) for s in summaries]
        if exact and len(set(got)) > 1:
            problems.append(f"{name} differs between traced passes: {got}")
        values[name] = got[0] if exact else statistics.median(got)
    values["trace.overhead_ratio"] = (
        statistics.median(p["run_s"] for p in run["traced"])
        / statistics.median(p["run_s"] for p in run["untraced"]))
    return values, problems


def result_line(workload: str, seed: int, run: dict, trace: bool) -> tuple[dict, list[str]]:
    """The final JSON object and the human-readable lines before it."""
    all_passes = run["untraced"] + run["traced"]
    attempted = sum(p["attempted"] for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    failures = [f"{label}: {why}" for p in all_passes for label, why in p["failures"]]
    problems = []
    if len({p["digest"] for p in all_passes}) > 1:
        problems.append("reports differ between passes (traced vs untraced or run to run)")
    lines = [f"workload {workload}  seed {seed}  untraced passes {len(run['untraced'])}"
             f"  traced passes {len(run['traced'])}"]
    absent: list[str] = []
    if trace:
        values, count_problems = per_layer_metrics(run)
        problems += count_problems
        units = {m[0]: m[1] for m in PER_LAYER}
        units["trace.overhead_ratio"] = "ratio"
        absent = sorted({a for p in run["traced"] for a in p["trace"]["absent"]})
        hook_errors = sorted({h for p in run["traced"] for h in p["trace"]["hook_errors"]})
        for name, _, _, _, span in PER_LAYER:
            if span in absent:
                lines.append(f"  {name:48s} absent")
        total_self = statistics.median(
            sum(p["trace"]["self_s"].values()) for p in run["traced"])
        lines.append(f"  self time of traced spans {total_self:.4f} s; unattributed "
                     f"remainder {values['trace.unattributed_s']:.4f} s")
        lines += [f"  hook failed for {h}; its derived metrics read 0" for h in hook_errors]
    else:
        values = end_to_end_metrics(run)
        units = dict(END_TO_END)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    absent_metrics = {m[0] for m in PER_LAYER if m[4] in absent}
    lines += [f"  {name:48s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()
              if name not in absent_metrics]
    lines.append(f"  {'failed_frac':48s} {failed / attempted:.6g} ({failed} of {attempted})")
    probes = [p["probe"] for p in all_passes if p["probe"]]
    if probes:
        lines.append(f"  budgeted probe ({len(str(workloads.PROBE_SEMIPRIME))}-digit "
                     f"semiprime): {probes[0]['outcome']} after "
                     f"{statistics.median(p['seconds'] for p in probes):.3f} s")
    lines += [f"  FAILED {f}" for f in failures[:20]] + [f"  PROBLEM {p}" for p in problems]
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (workloads.SRC_DIR / "kummer_brauer", workloads.GOLDEN_DIR)
               if not p.is_dir()]
    if missing:
        sys.stderr.write(f"cannot run: {', '.join(map(str, missing))} not found; "
                         "run from the root of a kummer-brauer checkout\n")
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            run = run_passes(name, args.seed, args.seconds, bool(args.trace))
        except PassError as e:
            sys.stderr.write(f"{name}: {e}\n")
            return 1
        result, lines = result_line(name, args.seed, run, bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

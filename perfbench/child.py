"""One pass of one workload in a fresh interpreter, so every cache is cold.

Usage: python3 perfbench/child.py JOB.json T0 [--trace] [--setup-only]

T0 is the parent's time.monotonic() just before it started this process;
set-up time runs from T0 until the program is imported and the job's specs
are parsed.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    job_path, t0 = argv[0], float(argv[1])
    trace = "--trace" in argv[2:]
    setup_only = "--setup-only" in argv[2:]

    import workloads
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    mods = workloads.import_program()
    parsed = workloads.parse_job(job, mods)
    setup_s = time.monotonic() - t0
    if setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        ops, probe = workloads.run_pass(job, parsed, mods)
        run_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer is not None:
            tracer.uninstall()

    failures = workloads.check_pass(job, ops, probe, mods, workloads.load_expected())
    print(json.dumps({
        "setup_s": setup_s,
        "run_s": run_s,
        "op_s": [seconds for _, seconds, _ in ops],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops) + (probe is not None),
        "failures": failures,
        "failed": len({label for label, _ in failures}),
        "digest": workloads.digest(ops),
        "probe": None if probe is None else
                 {k: probe[k] for k in ("outcome", "seconds") if k in probe},
        "trace": None if tracer is None else tracer.summary(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

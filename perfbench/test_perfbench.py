"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run
import workloads
from tracer import TARGETS, Tracer


def _spawn(job: dict, tmp_path, *flags: str) -> dict:
    job_path = tmp_path / f"job_{job['workload']}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    return run.spawn(job_path, *flags, timeout=120)


def _small_jobs(tmp_path) -> list[dict]:
    early = workloads.make_job("early-exit", 0, tmp_path)
    early["family_count"] = 10
    full = workloads.make_job("full-scan", 0)
    for _, spec in full["pairs"]:
        spec["bound"] = 1000
    big = workloads.make_job("big-coeff", 0)
    big["pairs"] = big["pairs"][:2]
    del big["probe"]
    oracle = {"workload": "criterion-oracle", "ells": [3]}
    return [early, full, big, oracle]


def test_traced_reports_are_byte_identical_and_counts_repeat(tmp_path):
    for job in _small_jobs(tmp_path):
        untraced = _spawn(job, tmp_path)
        traced = [_spawn(job, tmp_path, "--trace") for _ in range(2)]
        name = job["workload"]
        assert untraced["failures"] == [], name
        assert {p["digest"] for p in [untraced, *traced]} == {untraced["digest"]}, name
        _, problems = run.per_layer_metrics({"untraced": [untraced], "traced": traced})
        assert problems == [], name
        assert traced[0]["trace"]["calls"] == traced[1]["trace"]["calls"], name
        assert traced[0]["trace"]["nested"] == traced[1]["trace"]["nested"], name
        assert traced[0]["trace"]["absent"] == [], name


def test_largest_self_time_per_workload(tmp_path):
    _, _, big, oracle = _small_jobs(tmp_path)
    # point counting overtakes the per-prime overhead only at the full bound
    full = workloads.make_job("full-scan", 0)
    full["pairs"] = full["pairs"][:1]
    for job, layers in ((full, {"curves.count_points"}),
                        (big, {"arith.factor"}),
                        (oracle, {"gl2.enumerate_subgroups", "gl2.GL2.init"})):
        self_s = _spawn(job, tmp_path, "--trace")["trace"]["self_s"]
        assert max(self_s, key=self_s.get) in layers, job["workload"]


def test_tracer_patches_every_namespace_restores_and_reports_absent():
    mods = workloads.import_program()
    program = {name: mod for name, mod in sys.modules.items()
               if name == "kummer_brauer" or name.startswith("kummer_brauer.")}
    before = {name: {k: v for k, v in vars(mod).items() if callable(v)}
              for name, mod in program.items()}
    gl2_init = mods["gl2"].GL2.__init__
    tracer = Tracer(TARGETS + (("curves.gone", "curves", "no_such_function", None),
                               ("gone.f", "no_such_module", "f", None)))
    tracer.install()
    try:
        homrank, oddpart = program["kummer_brauer.homrank"], program["kummer_brauer.oddpart"]
        assert homrank.ap is oddpart.ap is program["kummer_brauer.curves"].ap
        assert homrank.ap is not before["kummer_brauer.curves"]["ap"]
        spec = mods["report"].parse_pair_spec(
            {"first": {"rt2": {"a": 5, "b": 7}}, "second": {"rt2": {"a": 1, "b": 2}},
             "bound": 200})
        mods["report"].analyze(spec)
    finally:
        tracer.uninstall()
    assert sorted(tracer.absent) == ["curves.gone", "gone.f"]
    assert tracer.calls["report.analyze"] == 1 and tracer.calls["curves.ap"] > 0
    assert tracer.calls["homrank.nonisogeny_certificate"] == 1
    assert mods["gl2"].GL2.__init__ is gl2_init
    for name, mod in program.items():
        after = vars(mod)
        assert all(after[k] is v for k, v in before[name].items()), name


def test_jobs_depend_only_on_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        assert workloads.make_job(name, 7, tmp_path) == workloads.make_job(name, 7, tmp_path)
    picks = {json.dumps(workloads.make_job("big-coeff", s)["pairs"]) for s in range(5)}
    assert len(picks) == 5
    assert workloads.make_job("early-exit", 3, tmp_path)["family_offset"] == 3


def test_every_drawable_input_has_an_expectation(tmp_path):
    expected = workloads.load_expected()
    pool = {entry["key"] for entry in workloads.big_coeff_pool()}
    assert pool == set(expected["big-coeff"])
    mods = workloads.import_program()
    family = mods["report"].search_family(
        workloads.FAMILY_OFFSETS + workloads.FAMILY_COUNT - 1)
    keys = {"{},{},{},{}".format(*s.first.rt2_raw, *s.second.rt2_raw) for s in family}
    assert keys == set(expected["early-exit"])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert tuple(m["name"] for m in spec["per_layer"]) == run.PER_LAYER_NAMES
    units = {m[0]: m[1] for m in run.PER_LAYER}
    for m in spec["per_layer"]:
        assert m["unit"] == units.get(m["name"], "ratio")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "early-exit",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert time.monotonic() - t0 < 60

"""Regenerate expected.json: (conclusion, d, r, dim2) for every input any
seed can draw, computed by the program at the commit that defined the
benchmark.  Run from the root of a checkout:

    python3 perfbench/make_expected.py

Rerun it only with a deliberate change of the reports' meaning, and say so.
"""

from __future__ import annotations

import json

import workloads


def main() -> None:
    mods = workloads.import_program()
    report = mods["report"]

    def summary(spec) -> list:
        return workloads.summary_tuple(report.analyze(spec).to_dict())

    expected: dict = {}
    family = report.search_family(workloads.FAMILY_OFFSETS + workloads.FAMILY_COUNT - 1)
    expected["early-exit"] = {
        "{},{},{},{}".format(*s.first.rt2_raw, *s.second.rt2_raw): summary(s)
        for s in family}
    job = workloads.make_job("full-scan", 0)
    expected["full-scan"] = {label: summary(report.parse_pair_spec(rec))
                             for label, rec in job["pairs"]}
    expected["big-coeff"] = {
        entry["key"]: summary(report.parse_pair_spec(entry["rt2"]))
        for entry in workloads.big_coeff_pool()}
    # |GL(2, F_3)| = 48 has 55 subgroups and |GL(2, F_5)| = 480 has 466.
    expected["criterion-oracle"] = {"ell=3": [True, 55], "ell=5": [True, 466]}
    workloads.EXPECTED_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

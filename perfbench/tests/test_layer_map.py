#!/usr/bin/env python3
"""Check that perfbench/layers.json and BENCHMARK.json agree.

layers.json carries, for each per-layer metric, the end-to-end metric it
should move and the workloads it should (and should not) move on. This
test fails when a metric is listed in one file and not the other, or an
entry names an end-to-end metric or a workload BENCHMARK.json lacks.

Usage: python3 perfbench/tests/test_layer_map.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

WORKLOADS = ["paper_dbi_2c", "baseline_mcf_1c", "sharded_64c",
             "trace_ff_sampled"]
END_TO_END = ["sim_kips", "setup_s", "peak_rss_mb", "sim_ipc"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as f:
        layers = json.load(f)["metrics"]

    errors = []
    workloads = [w["name"] for w in bench["workloads"]]
    if workloads != WORKLOADS:
        errors.append(f"workloads {workloads} != {WORKLOADS}")
    e2e = [m["name"] for m in bench["end_to_end"]]
    if e2e != END_TO_END:
        errors.append(f"end_to_end {e2e} != {END_TO_END}")

    per_layer = [m["name"] for m in bench["per_layer"]]
    mapped = [m["name"] for m in layers]
    if per_layer != mapped:
        errors.append("per_layer metrics and layers.json differ: "
                      f"only in BENCHMARK.json {set(per_layer) - set(mapped)}, "
                      f"only in layers.json {set(mapped) - set(per_layer)}, "
                      "or the order differs")
    for m in layers:
        name = m["name"]
        if m["moves"] not in e2e + ["none"]:
            errors.append(f"{name}: moves unknown metric {m['moves']}")
        for key in ("moves_on", "not_on"):
            unknown = set(m[key]) - set(workloads)
            if unknown:
                errors.append(f"{name}: {key} names {unknown}")
        if not m["moves_on"]:
            errors.append(f"{name}: moves on no workload")
        if set(m["moves_on"]) & set(m["not_on"]):
            errors.append(f"{name}: a workload is in moves_on and not_on")
        if not isinstance(m["deterministic"], bool) or not m["meaning"]:
            errors.append(f"{name}: needs deterministic and meaning")

    for e in errors:
        print("FAIL", e)
    print(f"{len(layers)} per-layer metrics mapped, {len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

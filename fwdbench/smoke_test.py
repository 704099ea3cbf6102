#!/usr/bin/env python3
"""Smoke test of the forwarding benchmark at its tiny size.

    python3 fwdbench/smoke_test.py

Runs every workload through run.py with --scale tiny and checks that:
  * each run is correct and prints exactly the metrics BENCHMARK.json names
    for its mode, each with the unit named there;
  * two runs with the same seed give identical virtual-time metrics;
  * another seed changes net.fault_drops on a lossy workload.
Exits non-zero on the first failure. Takes about twenty seconds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(condition, message):
    if not condition:
        sys.exit("FAIL: " + message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        results = {}
        for trace in (0, 1):
            result = run(workload, 1, trace)
            results[trace] = result
            check(result["correct"] and result["failed"] == 0,
                  "%s --trace %d is not correct" % (workload, trace))
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in expected[trace]}
            check(units == want, "%s --trace %d metrics differ from "
                  "BENCHMARK.json: %s" % (workload, trace,
                                          set(units) ^ set(want)))
        again = run(workload, 1, 0)
        for name, metric in results[0]["metrics"].items():
            if name.startswith("virt_"):
                check(metric == again["metrics"][name],
                      "%s %s differs between same-seed runs" % (workload,
                                                                name))
        print("ok %s" % workload)

    drops = [run("reliable_fwd", seed, 1)["metrics"]["net.fault_drops"]
             for seed in (1, 2)]
    check(drops[0] != drops[1],
          "net.fault_drops is %s for seeds 1 and 2" % drops[0]["value"])
    print("ok seeds reach the fault plan: net.fault_drops %s vs %s"
          % (drops[0]["value"], drops[1]["value"]))


if __name__ == "__main__":
    main()

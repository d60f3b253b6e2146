#!/usr/bin/env python3
"""Tiny-size smoke check of the lwsnap benchmark.

Usage, from the root of a checkout:

    python3 lwbench/smoke.py

For every workload it runs the benchmark briefly with --trace 0 and
--trace 1 and checks that the result line is well formed, that it is
correct, and that it names every metric BENCHMARK.json declares, with the
declared unit.  Then it runs each workload once with --wrong-expected (a
deliberately wrong expected answer) and checks that the run reports
failures, correct=false and exit code 1.  Exits 1 on the first problem.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join("lwbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"smoke: {workload}: no output\n{p.stderr}")
    return p.returncode, json.loads(lines[-1])


def check_result(workload, trace, declared, rc, res):
    what = f"{workload} --trace {trace}"
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"smoke: {what}: result keys {sorted(res)}")
    if rc != 0 or not res["correct"] or res["failed"] != 0:
        raise SystemExit(f"smoke: {what}: rc {rc}, result {res}")
    if res["attempted"] < 1:
        raise SystemExit(f"smoke: {what}: nothing attempted")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise SystemExit(f"smoke: {what}: metrics {got}, declared {want}")
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            raise SystemExit(f"smoke: {what}: {k} is not a number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res = run(w, trace)
            check_result(w, trace, bench[key], rc, res)
            print(f"smoke: {w} --trace {trace}: ok, "
                  f"{len(res['metrics'])} metrics, "
                  f"{res['attempted']} operations")
    for w in workloads:
        rc, res = run(w, 0, "--wrong-expected")
        if rc != 1 or res["correct"] or res["failed"] < 1:
            raise SystemExit(
                f"smoke: {w} --wrong-expected was not caught: rc {rc}, "
                f"failed {res['failed']} / {res['attempted']}")
        print(f"smoke: {w} --wrong-expected: caught, fail_ratio "
              f"{res['failed'] / res['attempted']:.3g}")
    print("smoke: ok")


if __name__ == "__main__":
    main()

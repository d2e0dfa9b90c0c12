#!/usr/bin/env python3
"""Self-test of the fleet-monitor benchmark.

Runs the short mode of every workload in BENCHMARK.json, untraced and
traced, and asserts that each run passes its correctness oracle with zero
failed ops and emits exactly the metrics BENCHMARK.json names, each with
its declared unit and a finite value. Run from the root of a checkout:

    python3 perfbench/selftest.py
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--short"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        reasons = json.loads(lines[0]).get("invalid") if lines else None
        return None, "exit code %d %s" % (proc.returncode, reasons or "")
    return json.loads(lines[-1]), None


def check(result, expected):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        errors.append("correct is %r" % result.get("correct"))
    if result.get("failed") != 0:
        errors.append("failed ops: %r" % result.get("failed"))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted: %r" % result.get("attempted"))
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append("metric names differ: missing %s, unexpected %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append("%s unit %r != %r" % (name, m.get("unit"), unit))
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s value %r" % (name, value))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result, error = run(workload, trace)
            errors = [error] if error else check(result, sets[trace])
            status = "ok" if not errors else "FAIL"
            print("%-13s trace=%d %s" % (workload, trace, status))
            for e in errors:
                print("    " + e)
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

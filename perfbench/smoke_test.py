#!/usr/bin/env python3
"""Smoke test of the layer-ladder benchmark.

Run from the root of a checkout:  python3 perfbench/smoke_test.py

A tiny run of every workload in BENCHMARK.json (and segment_store),
untraced and traced, must pass its output checks, fail nothing, and
print exactly the end-to-end (untraced) or per-layer (traced) metric
names the file lists, with their units. A run whose reference output is perturbed
must fail its output check and exit non-zero. Exits 0 when all hold.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", SECONDS, "--trace", trace,
           *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    # segment_store stays runnable although BENCHMARK.json leaves it
    # out (README.md, "Spreads"); its metric names are the same.
    workloads = [w["name"] for w in spec["workloads"]]
    if "segment_store" not in workloads:
        workloads.append("segment_store")
    problems = []
    for workload in workloads:
        for trace in ("0", "1"):
            code, result, err = run(workload, trace)
            label = f"{workload} --trace {trace}"
            before = len(problems)
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}\n{err[-2000:]}")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}\n{err[-2000:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append(f"{label}: missing {missing} extra {extra} "
                                f"unit mismatch {wrong}")
            if len(problems) == before:
                print(f"ok   {label}", flush=True)

    code, result, _ = run("keyed_agg", "0", ["--perturb-reference"])
    if code == 0 or result is None or result["correct"]:
        problems.append("perturbed reference: the output check did not fail")
    else:
        print("ok   perturbed reference fails the output check", flush=True)

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

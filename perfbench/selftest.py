#!/usr/bin/env python3
"""Harness self-test: every workload at a tiny size, untraced and traced.

    python3 perfbench/selftest.py

Checks that each run exits 0, that its last line is the result object,
that every metric BENCHMARK.json names is reported with the unit it
names, that every output check passed, and that the trace counts the
workload's design promises hold (no Jacobi SVD inside sgd_train's timed
region, no tape in sketch_eval). It makes no timing assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, spec: list, label: str) -> list[str]:
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0
            and result.get("attempted", 0) >= 1):
        problems.append(f"{label}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in spec}
    if sorted(metrics) != sorted(want):
        problems.append(f"{label}: metrics differ: missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name)
        if got is not None and (got.get("unit") != unit
                                or not isinstance(got.get("value"), (int, float))):
            problems.append(f"{label}: {name} = {got}, expected unit {unit}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for wl in bench["workloads"]:
        name = wl["name"]
        problems += check(run(name, 0), bench["end_to_end"], f"{name} trace=0")
        traced = run(name, 1)
        problems += check(traced, bench["per_layer"], f"{name} trace=1")
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        if name == "sgd_train":
            if layer.get("linalg.reference_svd.calls") != 0:
                problems.append("sgd_train: Jacobi SVD called in the timed region")
            if not layer.get("autodiff.tape_nodes_per_step", 0) > 0:
                problems.append("sgd_train: no tape nodes recorded")
        if name == "sketch_eval" and layer.get("autodiff.tape_nodes_per_step") != 0:
            problems.append("sketch_eval: the tape ran")
        if name == "cli_pipeline" and not layer.get("formats.save_sketch.bytes", 0) > 0:
            problems.append("cli_pipeline: no sketch bytes written")
        print(f"{name}: checked", flush=True)
    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

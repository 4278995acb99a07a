#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--workload sgd_train ...] [--first-seed 1]

Runs the benchmark command from BENCHMARK.json once per seed, untraced,
one run at a time, and prints for every workload and end-to-end metric
the median, the quartile spread (Q3 - Q1 over the median, from
statistics.quantiles(values, n=4)) and the bound. A spread above the
bound is flagged; the aim is a third of the bound. With --json PATH the
per-run results are written there too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--json", help="write the per-run results here")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    cmd = [sys.executable if bench["command"][0] == "python3" else bench["command"][0]]
    cmd += bench["command"][1:]
    results: dict = {}
    ok = True
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(cmd + ["--workload", name, "--seed", str(seed),
                                         "--seconds", str(bench["run_seconds"]),
                                         "--trace", "0"],
                                  cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and res["correct"]
            runs.append(res)
            print(f"{name} seed {seed}: correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                  flush=True)
        results[name] = runs
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= metric["bound"] / 3 else (
                " ABOVE BOUND/3" if spread <= metric["bound"] else " ABOVE BOUND")
            print(f"{name:14s} {metric['name']:12s} median {med:.4g} {metric['unit']} "
                  f"spread {spread:.3f} (bound {metric['bound']}){flag}", flush=True)
    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            json.dump(results, fh)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Layer timings of one sketch-and-solve SGD step at bundle size.

Usage:
    PYTHONPATH=src python3 scripts/bench_step.py [--repeats N] [--label NAME] [--out PATH]

At 64x48, k=4, m=8 (the spiked_bundle shape, 4 train matrices) it times
apply_sketch, svd of SA (and np.linalg.svd alone on the same SA),
scw_loss, scw_loss_and_grad, one SGD step and a 40-iteration learned
train, with BLAS pinned to one thread. One SGD step is
(train at 40 iterations - train at 0) / 40. Each timing is the median
over --repeats of the mean call time in a repeat, in microseconds. The
run is stored under --label in the output JSON together with nproc, the
numpy and Python versions and the BLAS thread count; runs under other
labels already in the file are kept, so one file can hold a before and
an after.
"""

import os

BLAS_THREADS = "1"
# Pin BLAS before numpy loads; this process only.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import timeit  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from lrsketch import evalbench, linalg, scw, sketch, trainer  # noqa: E402

SPEC = evalbench.DatasetSpec(name="step", kind="spiked", n=64, d=48, count_train=4,
                             count_test=1, spikes=4, decay=0.8, noise=0.1, drift=0.05,
                             seed=20261018)
K, M, ITERATIONS = 4, 8, 40
TRAIN = trainer.TrainConfig(k=K, lr=1.0, iterations=ITERATIONS, seed=20261018)


def timings(repeats: int) -> dict:
    """Median microseconds per call of each timed operation."""
    train_set, _ = evalbench.generate_dataset(SPEC)
    a = train_set[0]
    s = sketch.sparse_random_sketch(M, SPEC.n, 7)
    sa = sketch.apply_sketch(s, a)
    idle = replace(TRAIN, iterations=0)
    ops = {
        "apply_sketch": lambda: sketch.apply_sketch(s, a),
        "np_linalg_svd_sa": lambda: np.linalg.svd(sa, full_matrices=False),
        "svd_sa": lambda: linalg.svd(sa),
        "scw_loss": lambda: scw.scw_loss(a, s, K),
        "scw_loss_and_grad": lambda: scw.scw_loss_and_grad(a, s, K),
        "train_0": lambda: trainer.train(train_set, M, idle),
        f"train_{ITERATIONS}": lambda: trainer.train(train_set, M, TRAIN),
    }
    out = {}
    for name, fn in ops.items():
        timer = timeit.Timer(fn)
        number, _ = timer.autorange()  # calls per repeat: at least 0.2 s
        per_call = [t / number for t in timer.repeat(repeat=repeats, number=number)]
        out[name] = statistics.median(per_call) * 1e6
    out["sgd_step"] = (out[f"train_{ITERATIONS}"] - out.pop("train_0")) / ITERATIONS
    return out


def machine() -> dict:
    affinity = getattr(os, "sched_getaffinity", None)
    return {"nproc": len(affinity(0)) if affinity else os.cpu_count(),
            "numpy": np.__version__, "python": platform.python_version(),
            "blas_threads": int(BLAS_THREADS)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", default="BENCH_sgd_step.json")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    doc = {"shape": f"{SPEC.n}x{SPEC.d} spiked, k={K}, m={M}, "
                    f"{SPEC.count_train} train matrices, learned mode",
           "unit": "us, median over repeats", "runs": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc["runs"] = json.load(fh).get("runs", {})
    run = {"machine": machine(), "repeats": args.repeats,
           "median_us": {k: round(v, 1) for k, v in timings(args.repeats).items()}}
    doc["runs"][args.label] = run
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for name, us in run["median_us"].items():
        print(f"{name:20s} {us:10.1f} us")
    print(f"wrote {args.out} [{args.label}]")


if __name__ == "__main__":
    main()

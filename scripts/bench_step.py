#!/usr/bin/env python3
"""Layer timings of one sketch-and-solve SGD step at bundle size.

Usage:
    PYTHONPATH=src python3 scripts/bench_step.py [--repeats N] [--label NAME] [--out PATH]

At 64x48, k=4, m=8 (the spiked_bundle shape, 4 train matrices) it times
apply_sketch, svd of SA (and np.linalg.svd alone on the same SA), svd_b
(the SVD of B = AV as the step takes it: linalg.stack_svd of a stack of
one), scw_loss, scw_loss_and_grad, step_kernel (what an SGD step of a
lone run runs: lockstep's Stack.sa, sa_loss_and_grad_stack on a stack of
one and the gradient's gather, with the index arrays and ||A||_F^2 taken
beforehand), optimal_loss of the 4 train matrices,
normalize_top_singular of one matrix scaled by 2, generate_dataset of
that 5-matrix spec, one SGD step and a 40-iteration learned train, with
BLAS pinned to one thread. sweep_4_cells is one sweep shaped like
perfbench's sketch_eval: with the run_experiment memo cleared first, 4
cells (sparse and dense random sketches at (k, m) = (4, 8) and (2, 6),
3 trials each) on one 64x48 spec with 1 train and 2 test matrices.
step_kernel_1024x768 is step_kernel at IVY19's Hyper-like shape: one
spiked 1024x768 matrix with 10 spikes, k=10, m=20, made before any
timing starts. At the cli_pipeline shape (32x24 spiked, k=3, m=6, 4 train
matrices), step_kernel_32x24 is step_kernel on the first train matrix,
and step_kernel_stack4 is step_kernel over 4 runs (the learned and
mixed_joint runs below), one slice each, its time divided by 4;
train_loop_6 and
train_many_6 are the 6 runs `lrsketch train` trains there (learned,
mixed_joint and mixed_separate, two trials each, 10 iterations), as a
loop of train calls and as one train_many. eval_score_loop_30 and
eval_score_30 are what `lrsketch eval` scores there: those 6 trained
sketches plus 2 sparse and 2 dense random ones, each on 3 test
matrices, as a loop of 30 scw_loss calls and as one scw_losses (one
pass over the test matrices). score_train_4 is one of train's two
scoring passes at 64x48 (the learned start's mean loss over the 4 train
matrices), and score_many_6 one of train_many's at 32x24 (the starts of
the 6 runs over the 4 train matrices). score_cell_6 is one scw_losses call
of one sweep_4_cells cell: 3 sparse random sketches at m=8 on its 2 test
matrices at k=4. score_paper_4 is scw_losses at IVY19's shape: 10 sketches
(6 sparse ones with normal values standing in for trained ones, 4 dense)
at m=20 on 4 spiked 1024x768 test matrices at k=10, made before any timing
starts; its tracemalloc peak, taken once in a call of its own outside the
timings, is stored as "tracemalloc_peak_mib". It times the lrsketch it
imports; an older checkout is timed by that checkout's own copy of this
script, whose operations of the same names time what that code runs.
import_cli is start-up: a fresh interpreter imports
numpy untimed, then times `import lrsketch, lrsketch.cli`, by perfbench's
own recipe (perfbench/run.py import_lrsketch), once per round. Without
cached bytecode (PYTHONDONTWRITEBYTECODE=1 and no __pycache__ under
src/), that time includes compiling every module it loads.

Each operation's calls per repeat are picked once with autorange (at
least 0.2 s). The repeats then run round-robin: repeat r of every
operation runs before repeat r+1 of any, so a machine that drifts in
speed slows all operations alike. One SGD step is (train at 40
iterations - train at 0) / 40 within the same round. Each operation
gets the p25, median and p75 over --repeats of its mean call time in a
repeat, in microseconds ("us"). Each round also times perfbench's
machine-speed reference kernel (perfbench/calibrate.py) once, and
"scaled_us" gives the same quartiles with every repeat scaled by
NOMINAL_S over that round's reference time, so runs taken while the
machine ran at different speeds stay comparable. The run is stored
under --label in the output JSON together with nproc, the numpy and
Python versions, the BLAS thread count and sys.dont_write_bytecode;
runs under other labels already in the file are kept, so one file can
hold a before and an after.
"""

import os

BLAS_THREADS = "1"
# Pin BLAS before numpy loads; this process only.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from lrsketch import evalbench, linalg, lockstep, scw, sketch, trainer  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
from calibrate import NOMINAL_S, reference_seconds  # noqa: E402
from run import import_lrsketch  # noqa: E402

SPEC = evalbench.DatasetSpec(name="step", kind="spiked", n=64, d=48, count_train=4,
                             count_test=1, spikes=4, decay=0.8, noise=0.1, drift=0.05,
                             seed=20261018)
K, M, ITERATIONS = 4, 8, 40
TRAIN = trainer.TrainConfig(k=K, lr=1.0, iterations=ITERATIONS, seed=20261018)
SWEEP_SPEC = replace(SPEC, name="sweep", count_train=1, count_test=2)
SWEEP_CELLS = [(k, m, st) for k, m in ((4, 8), (2, 6))
               for st in ("sparse_random", "dense_random")]
LARGE_SPEC = replace(SPEC, name="large", n=1024, d=768, count_train=1, spikes=10)
LARGE_K, LARGE_M = 10, 20
PAPER_SPEC = replace(LARGE_SPEC, name="paper", count_test=4)
PIPE_SPEC = replace(SPEC, name="pipe", n=32, d=24, count_test=3, spikes=3)
PIPE_K, PIPE_M = 3, 6
PIPE_RUNS = [trainer.TrainConfig(k=PIPE_K, lr=1.0, iterations=10, seed=20261018 + 10 * i + t,
                                 mode=mode, learned_rows=PIPE_M // 2)
             for i, mode in enumerate(("learned", "mixed_joint", "mixed_separate"))
             for t in range(2)]
STACK = 4  # step_kernel_stack4 steps the learned and mixed_joint runs of PIPE_RUNS


def sweep_4_cells() -> None:
    evalbench._sweep_inputs.cache_clear()
    for k, m, st in SWEEP_CELLS:
        evalbench.run_experiment(SWEEP_SPEC, k, m, st, 3, TRAIN)


def score_paper():
    """scw_losses of PAPER_SPEC's test matrices under 6 sparse sketches with
    normal values and 4 dense ones, all of LARGE_M rows."""
    _, test = evalbench.generate_dataset(PAPER_SPEC)
    rng = np.random.default_rng(20261020)
    n = PAPER_SPEC.n
    sketches = [sketch.sparse_random_sketch(LARGE_M, n, seed).with_values(rng.standard_normal(n))
                for seed in range(6)]
    sketches += [sketch.dense_random_sketch(LARGE_M, n, seed) for seed in range(6, 10)]
    return lambda: scw.scw_losses(test, sketches, LARGE_K)


def traced_peak_mib(fn) -> float:
    """The tracemalloc peak of one call of fn, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def quartiles(samples) -> dict:
    p25, median, p75 = np.percentile(samples, [25, 50, 75])
    return {"p25": round(float(p25), 1), "median": round(float(median), 1),
            "p75": round(float(p75), 1)}


def stacked_step(mats: np.ndarray, sketches, k: int):
    """One lockstep step's SA and kernel for sketches, run r on matrix r: one
    Stack.sa, one sa_loss_and_grad_stack and the gradient's gather."""
    stack = lockstep.Stack(sketches, mats.shape[2], 1)
    vals = np.concatenate([s.value_of for s in sketches])
    which = np.arange(len(sketches))[None, :] % len(mats)
    slices = which.ravel()
    sq_norms = np.array([linalg.frobenius_norm(x) ** 2 for x in mats])
    return lambda: scw.sa_loss_and_grad_stack(
        mats.take(slices, axis=0), stack.sa(vals, mats, which[:, stack.blocks]), k,
        sq_norms.take(slices))[1].take(stack.index)


def step_kernel(a: np.ndarray, k: int, m: int):
    """What one SGD step of a lone run runs, on a seed-7 m-row sketch of a."""
    return stacked_step(a[None], [sketch.sparse_random_sketch(m, a.shape[0], 7)], k)


def step_kernel_stack(train_set):
    """One lockstep step of PIPE_RUNS[:STACK], run r on train matrix r."""
    sketches = [trainer._start(PIPE_SPEC.n, PIPE_M, cfg)[0] for cfg in PIPE_RUNS[:STACK]]
    return stacked_step(np.stack(train_set), sketches, PIPE_K)


def timings(repeats: int) -> tuple[dict, dict, dict]:
    """p25, median and p75 microseconds per call of each timed operation,
    raw and scaled by NOMINAL_S over each round's reference time, and the
    tracemalloc peaks."""
    train_set, _ = evalbench.generate_dataset(SPEC)
    a = train_set[0]
    s = sketch.sparse_random_sketch(M, SPEC.n, 7)
    sa = sketch.apply_sketch(s, a)
    b = (a @ linalg.svd(sa).v)[None]
    large = evalbench.generate_dataset(LARGE_SPEC)[0][0]
    raw = 2.0 * a
    idle = replace(TRAIN, iterations=0)
    ops = {
        "apply_sketch": lambda: sketch.apply_sketch(s, a),
        "np_linalg_svd_sa": lambda: np.linalg.svd(sa, full_matrices=False),
        "svd_sa": lambda: linalg.svd(sa),
        "svd_b": lambda: linalg.stack_svd(b),
        "scw_loss": lambda: scw.scw_loss(a, s, K),
        "scw_loss_and_grad": lambda: scw.scw_loss_and_grad(a, s, K),
        "step_kernel": step_kernel(a, K, M),
        "step_kernel_1024x768": step_kernel(large, LARGE_K, LARGE_M),
        "optimal_loss": lambda: evalbench.optimal_loss(train_set, K),
        "normalize_top_singular": lambda: evalbench.normalize_top_singular(raw),
        "generate_dataset": lambda: evalbench.generate_dataset(SPEC),
        "sweep_4_cells": sweep_4_cells,
        "train_0": lambda: trainer.train(train_set, M, idle),
        f"train_{ITERATIONS}": lambda: trainer.train(train_set, M, TRAIN),
    }
    pipe_set, pipe_test = evalbench.generate_dataset(PIPE_SPEC)
    ops["step_kernel_32x24"] = step_kernel(pipe_set[0], PIPE_K, PIPE_M)
    ops["train_loop_6"] = lambda: [trainer.train(pipe_set, PIPE_M, c) for c in PIPE_RUNS]
    scored = [trainer.train(pipe_set, PIPE_M, c)[0] for c in PIPE_RUNS] + [
        evalbench.random_sketch(st, PIPE_M, PIPE_SPEC.n, seed)
        for st in ("sparse_random", "dense_random") for seed in (1, 2)]
    ops["eval_score_loop_30"] = lambda: [scw.scw_loss(a, s, PIPE_K)
                                         for s in scored for a in pipe_test]
    ops["eval_score_30"] = lambda: scw.scw_losses(pipe_test, scored, PIPE_K)
    sweep_test = evalbench.generate_dataset(SWEEP_SPEC)[1]
    cell = [sketch.sparse_random_sketch(M, SPEC.n, seed) for seed in range(3)]
    ops["score_cell_6"] = lambda: scw.scw_losses(sweep_test, cell, K)
    ops["score_paper_4"] = score_paper()
    peaks = {"score_paper_4": round(traced_peak_mib(ops["score_paper_4"]), 1)}
    start = {0: sketch.concat_sketches(*trainer._start(SPEC.n, M, TRAIN))}
    sq_norms = [linalg.frobenius_norm(x) ** 2 for x in train_set]
    ops["score_train_4"] = lambda: trainer._mean_losses(train_set, sq_norms, start, [TRAIN])
    ops["step_kernel_stack4"] = step_kernel_stack(pipe_set)
    ops["train_many_6"] = lambda: list(trainer.train_many(pipe_set, PIPE_M, PIPE_RUNS))
    starts = {i: sketch.concat_sketches(*trainer._start(PIPE_SPEC.n, PIPE_M, cfg))
              for i, cfg in enumerate(PIPE_RUNS)}
    pipe_norms = [linalg.frobenius_norm(x) ** 2 for x in pipe_set]
    ops["score_many_6"] = lambda: trainer._mean_losses(pipe_set, pipe_norms, starts, PIPE_RUNS)
    timers = {name: timeit.Timer(fn) for name, fn in ops.items()}
    numbers = {name: timer.autorange()[0] for name, timer in timers.items()}
    samples = {name: [] for name in [*ops, "import_cli"]}
    speed = []  # NOMINAL_S / reference time, one per round
    for _ in range(repeats):
        speed.append(NOMINAL_S / reference_seconds())
        for name, timer in timers.items():
            samples[name].append(timer.timeit(numbers[name]) / numbers[name] * 1e6)
        samples["import_cli"].append(import_lrsketch()["raw"] * 1e6)
    samples["step_kernel_stack4"] = [us / STACK for us in samples["step_kernel_stack4"]]  # per run-step
    train_0 = samples.pop("train_0")
    samples["sgd_step"] = [(full - zero) / ITERATIONS
                           for full, zero in zip(samples[f"train_{ITERATIONS}"], train_0)]
    return ({name: quartiles(us) for name, us in samples.items()},
            {name: quartiles([x * f for x, f in zip(us, speed)])
             for name, us in samples.items()}, peaks)


def machine() -> dict:
    affinity = getattr(os, "sched_getaffinity", None)
    return {"nproc": len(affinity(0)) if affinity else os.cpu_count(),
            "numpy": np.__version__, "python": platform.python_version(),
            "blas_threads": int(BLAS_THREADS), "dont_write_bytecode": sys.dont_write_bytecode}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--label", default="current")
    parser.add_argument("--out", default="BENCH_sgd_step.json")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    doc = {"shape": f"{SPEC.n}x{SPEC.d} spiked, k={K}, m={M}, "
                    f"{SPEC.count_train} train matrices, learned mode; step_kernel_"
                    f"{LARGE_SPEC.n}x{LARGE_SPEC.d} at k={LARGE_K}, m={LARGE_M}; step_kernel_"
                    f"{PIPE_SPEC.n}x{PIPE_SPEC.d}, step_kernel_stack{STACK}, the 6-run "
                    f"trains, their scoring and the 10-sketch eval scoring at k={PIPE_K}, "
                    f"m={PIPE_M}; score_cell_6 at {SWEEP_SPEC.n}x{SWEEP_SPEC.d}, k={K}, m={M}; "
                    f"score_paper_4 at {PAPER_SPEC.n}x{PAPER_SPEC.d}, k={LARGE_K}, m={LARGE_M}",
           "unit": "us per call: p25, median, p75 over round-robin repeats; scaled_us "
                   "at the speed where perfbench's reference kernel takes NOMINAL_S",
           "runs": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc["runs"] = json.load(fh).get("runs", {})
    us, scaled_us, peaks = timings(args.repeats)
    run = {"machine": machine(), "repeats": args.repeats, "us": us, "scaled_us": scaled_us,
           "tracemalloc_peak_mib": peaks}
    doc["runs"][args.label] = run
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for name, q in us.items():
        sq = scaled_us[name]
        print(f"{name:24s} {q['p25']:10.1f} {q['median']:10.1f} {q['p75']:10.1f} us"
              f"  scaled {sq['p25']:10.1f} {sq['median']:10.1f} {sq['p75']:10.1f}")
    for name, mib in peaks.items():
        print(f"{name:24s} tracemalloc peak {mib:.1f} MiB")
    print(f"wrote {args.out} [{args.label}]")


if __name__ == "__main__":
    main()

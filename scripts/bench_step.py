#!/usr/bin/env python3
"""Layer timings of one sketch-and-solve SGD step at bundle size.

Usage:
    PYTHONPATH=src python3 scripts/bench_step.py [--repeats N] [--label NAME] [--out PATH]
                                                 [--against DIR]

At 64x48, k=4, m=8 (the spiked_bundle shape, 4 train matrices) it times
apply_sketch, svd of SA (and np.linalg.svd alone on the same SA), svd_b
(the SVD of B = AV as the step takes it: linalg.stack_svd of a stack of
one), scw_loss, scw_loss_and_grad, step_kernel (what an SGD step of a
lone run runs: the gather of its train matrix, lockstep's Stack.sa,
sa_loss_and_grad_stack on a stack of one and the gradient's gather, with
the Stack and ||A||_F^2 built beforehand), optimal_loss of the 4 train matrices,
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

With --against DIR, the lrsketch of another checkout (DIR/src/lrsketch)
is imported as well, under the name lrsketch_against (the package uses
only relative imports), and each operation runs on both trees in every
round, one right after the other, the first alternating from round to
round. Both trees' quartiles are stored ("us" and "scaled_us" for the
imported tree, the same under "against" for DIR, with DIR as given under
"tree"), and "ratio" gives the
quartiles of the per-round ratio imported / DIR, in which drift between
rounds cancels. step_kernel and step_kernel_stack4 build both trees'
lockstep.Stack(sketches, groups) and call Stack.sa(vals, a) on the step's
gathered train matrices, so DIR must share those two signatures. Trees
from before SA went through BLAS do not: their Stack took (sketches, d,
groups) and their Stack.sa the block matrices, scaled in place. import_cli
is not timed in this mode.
"""

import os

BLAS_THREADS = "1"
# Pin BLAS before numpy loads; this process only.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import replace  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import lrsketch  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
from calibrate import NOMINAL_S, reference_seconds  # noqa: E402
from run import import_lrsketch  # noqa: E402

MODULES = ("evalbench", "linalg", "lockstep", "scw", "sketch", "trainer")
AGAINST = "lrsketch_against"  # the module name --against imports DIR's package under
K, M, ITERATIONS = 4, 8, 40
LARGE_K, LARGE_M = 10, 20
PIPE_K, PIPE_M = 3, 6
STACK = 4  # step_kernel_stack4 steps the learned and mixed_joint runs of PIPE_RUNS


def modules(package) -> SimpleNamespace:
    """The modules of an imported lrsketch package that the timings use."""
    return SimpleNamespace(**{name: importlib.import_module(f"{package.__name__}.{name}")
                              for name in MODULES})


def load_tree(root: str) -> SimpleNamespace:
    """root/src/lrsketch imported as AGAINST, beside the lrsketch on sys.path."""
    init = os.path.join(root, "src", "lrsketch", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        AGAINST, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[AGAINST] = package
    spec.loader.exec_module(package)
    return modules(package)


class Tree:
    """The shapes and configs of the timings, built from one tree's modules."""

    def __init__(self, lr: SimpleNamespace):
        self.lr = lr
        self.spec = lr.evalbench.DatasetSpec(
            name="step", kind="spiked", n=64, d=48, count_train=4, count_test=1, spikes=4,
            decay=0.8, noise=0.1, drift=0.05, seed=20261018)
        self.train = lr.trainer.TrainConfig(k=K, lr=1.0, iterations=ITERATIONS, seed=20261018)
        self.sweep_spec = replace(self.spec, name="sweep", count_train=1, count_test=2)
        self.sweep_cells = [(k, m, st) for k, m in ((4, 8), (2, 6))
                            for st in ("sparse_random", "dense_random")]
        self.large_spec = replace(self.spec, name="large", n=1024, d=768, count_train=1,
                                  spikes=10)
        self.paper_spec = replace(self.large_spec, name="paper", count_test=4)
        self.pipe_spec = replace(self.spec, name="pipe", n=32, d=24, count_test=3, spikes=3)
        self.pipe_runs = [lr.trainer.TrainConfig(k=PIPE_K, lr=1.0, iterations=10,
                                                 seed=20261018 + 10 * i + t, mode=mode,
                                                 learned_rows=PIPE_M // 2)
                          for i, mode in enumerate(("learned", "mixed_joint", "mixed_separate"))
                          for t in range(2)]

    def sweep_4_cells(self) -> None:
        self.lr.evalbench._sweep_inputs.cache_clear()
        for k, m, st in self.sweep_cells:
            self.lr.evalbench.run_experiment(self.sweep_spec, k, m, st, 3, self.train)

    def score_paper(self):
        """scw_losses of paper_spec's test matrices under 6 sparse sketches with
        normal values and 4 dense ones, all of LARGE_M rows."""
        sketch = self.lr.sketch
        _, test = self.lr.evalbench.generate_dataset(self.paper_spec)
        rng = np.random.default_rng(20261020)
        n = self.paper_spec.n
        sketches = [sketch.sparse_random_sketch(LARGE_M, n, seed).with_values(
            rng.standard_normal(n)) for seed in range(6)]
        sketches += [sketch.dense_random_sketch(LARGE_M, n, seed) for seed in range(6, 10)]
        return lambda: self.lr.scw.scw_losses(test, sketches, LARGE_K)

    def stacked_step(self, mats: np.ndarray, sketches, k: int):
        """One lockstep step for sketches, run r on matrix r: the gather of the
        matrices, one Stack.sa, one sa_loss_and_grad_stack and the gradient's
        gather."""
        lockstep, kernel = self.lr.lockstep, self.lr.scw.sa_loss_and_grad_stack
        stack = lockstep.Stack(sketches, 1)
        vals = np.concatenate([s.value_of for s in sketches])
        slices = np.arange(len(sketches)) % len(mats)
        sq_norms = np.array([self.lr.linalg.frobenius_norm(x) ** 2 for x in mats])

        def step():
            a = mats.take(slices, axis=0)
            return kernel(a, stack.sa(vals, a), k, sq_norms.take(slices))[1].take(stack.index)
        return step

    def step_kernel(self, a: np.ndarray, k: int, m: int):
        """What one SGD step of a lone run runs, on a seed-7 m-row sketch of a."""
        return self.stacked_step(a[None], [self.lr.sketch.sparse_random_sketch(m, a.shape[0], 7)],
                                 k)

    def step_kernel_stack(self, train_set):
        """One lockstep step of pipe_runs[:STACK], run r on train matrix r."""
        sketches = [self.lr.trainer._start(self.pipe_spec.n, PIPE_M, cfg)[0]
                    for cfg in self.pipe_runs[:STACK]]
        return self.stacked_step(np.stack(train_set), sketches, PIPE_K)

    def operations(self) -> tuple[dict, dict]:
        """The timed operations, by name, and the tracemalloc peaks in MiB."""
        evalbench, linalg, scw, sketch, trainer = (self.lr.evalbench, self.lr.linalg,
                                                   self.lr.scw, self.lr.sketch, self.lr.trainer)
        spec, train = self.spec, self.train
        train_set, _ = evalbench.generate_dataset(spec)
        a = train_set[0]
        s = sketch.sparse_random_sketch(M, spec.n, 7)
        sa = sketch.apply_sketch(s, a)
        b = (a @ linalg.svd(sa).v)[None]
        large = evalbench.generate_dataset(self.large_spec)[0][0]
        raw = 2.0 * a
        idle = replace(train, iterations=0)
        ops = {
            "apply_sketch": lambda: sketch.apply_sketch(s, a),
            "np_linalg_svd_sa": lambda: np.linalg.svd(sa, full_matrices=False),
            "svd_sa": lambda: linalg.svd(sa),
            "svd_b": lambda: linalg.stack_svd(b),
            "scw_loss": lambda: scw.scw_loss(a, s, K),
            "scw_loss_and_grad": lambda: scw.scw_loss_and_grad(a, s, K),
            "step_kernel": self.step_kernel(a, K, M),
            "step_kernel_1024x768": self.step_kernel(large, LARGE_K, LARGE_M),
            "optimal_loss": lambda: evalbench.optimal_loss(train_set, K),
            "normalize_top_singular": lambda: evalbench.normalize_top_singular(raw),
            "generate_dataset": lambda: evalbench.generate_dataset(spec),
            "sweep_4_cells": self.sweep_4_cells,
            "train_0": lambda: trainer.train(train_set, M, idle),
            f"train_{ITERATIONS}": lambda: trainer.train(train_set, M, train),
        }
        pipe_set, pipe_test = evalbench.generate_dataset(self.pipe_spec)
        runs = self.pipe_runs
        ops["step_kernel_32x24"] = self.step_kernel(pipe_set[0], PIPE_K, PIPE_M)
        ops["train_loop_6"] = lambda: [trainer.train(pipe_set, PIPE_M, c) for c in runs]
        scored = [trainer.train(pipe_set, PIPE_M, c)[0] for c in runs] + [
            evalbench.random_sketch(st, PIPE_M, self.pipe_spec.n, seed)
            for st in ("sparse_random", "dense_random") for seed in (1, 2)]
        ops["eval_score_loop_30"] = lambda: [scw.scw_loss(a, s, PIPE_K)
                                             for s in scored for a in pipe_test]
        ops["eval_score_30"] = lambda: scw.scw_losses(pipe_test, scored, PIPE_K)
        sweep_test = evalbench.generate_dataset(self.sweep_spec)[1]
        cell = [sketch.sparse_random_sketch(M, spec.n, seed) for seed in range(3)]
        ops["score_cell_6"] = lambda: scw.scw_losses(sweep_test, cell, K)
        ops["score_paper_4"] = self.score_paper()
        peaks = {"score_paper_4": round(traced_peak_mib(ops["score_paper_4"]), 1)}
        start = {0: sketch.concat_sketches(*trainer._start(spec.n, M, train))}
        sq_norms = [linalg.frobenius_norm(x) ** 2 for x in train_set]
        ops["score_train_4"] = lambda: trainer._mean_losses(train_set, sq_norms, start, [train])
        ops["step_kernel_stack4"] = self.step_kernel_stack(pipe_set)
        ops["train_many_6"] = lambda: list(trainer.train_many(pipe_set, PIPE_M, runs))
        starts = {i: sketch.concat_sketches(*trainer._start(self.pipe_spec.n, PIPE_M, cfg))
                  for i, cfg in enumerate(runs)}
        pipe_norms = [linalg.frobenius_norm(x) ** 2 for x in pipe_set]
        ops["score_many_6"] = lambda: trainer._mean_losses(pipe_set, pipe_norms, starts, runs)
        return ops, peaks


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


def derived(samples: dict) -> dict:
    """samples with step_kernel_stack4 per run-step and sgd_step from the
    train_40 and train_0 of each round, in place of train_0."""
    samples["step_kernel_stack4"] = [us / STACK for us in samples["step_kernel_stack4"]]
    train_0 = samples.pop("train_0")
    samples["sgd_step"] = [(full - zero) / ITERATIONS
                           for full, zero in zip(samples[f"train_{ITERATIONS}"], train_0)]
    return samples


def summary(samples: dict, speed: list) -> dict:
    """Raw and scaled quartiles of each operation's samples (us)."""
    return {"us": {name: quartiles(us) for name, us in samples.items()},
            "scaled_us": {name: quartiles([x * f for x, f in zip(us, speed)])
                          for name, us in samples.items()}}


def timings(repeats: int, against: str | None = None) -> dict:
    """The run record: quartiles of microseconds per call of each timed
    operation, raw and scaled by NOMINAL_S over each round's reference time,
    and the tracemalloc peaks; with against, the same of DIR's tree under
    "against" and the quartiles of the per-round ratio under "ratio"."""
    trees = [Tree(modules(lrsketch))] + ([Tree(load_tree(against))] if against else [])
    built = [tree.operations() for tree in trees]
    timers = [{name: timeit.Timer(fn) for name, fn in ops.items()} for ops, _ in built]
    numbers = {name: timer.autorange()[0] for name, timer in timers[0].items()}
    samples = [{name: [] for name in numbers} for _ in trees]
    speed = []  # NOMINAL_S / reference time, one per round
    for r in range(repeats):
        speed.append(NOMINAL_S / reference_seconds())
        for name, number in numbers.items():
            for i in range(len(trees)):
                t = (i + r) % len(trees)  # which tree goes first alternates by round
                samples[t][name].append(timers[t][name].timeit(number) / number * 1e6)
        if not against:
            samples[0].setdefault("import_cli", []).append(import_lrsketch()["raw"] * 1e6)
    samples = [derived(x) for x in samples]
    run = {**summary(samples[0], speed), "tracemalloc_peak_mib": built[0][1]}
    if against:
        run["against"] = {"tree": against, **summary(samples[1], speed),
                          "tracemalloc_peak_mib": built[1][1]}
        run["ratio"] = {name: {key: round(value / 100, 3) for key, value in quartiles(
            [100 * x / y for x, y in zip(us, samples[1][name])]).items()}
            for name, us in samples[0].items()}
    return run


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
    parser.add_argument("--against", metavar="DIR",
                        help="also time DIR/src/lrsketch, interleaved, and report the ratios")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.against and not os.path.isfile(os.path.join(args.against, "src", "lrsketch",
                                                        "__init__.py")):
        parser.error(f"--against: no src/lrsketch/__init__.py under {args.against}")
    tree = Tree(modules(lrsketch))
    doc = {"shape": f"{tree.spec.n}x{tree.spec.d} spiked, k={K}, m={M}, "
                    f"{tree.spec.count_train} train matrices, learned mode; step_kernel_"
                    f"{tree.large_spec.n}x{tree.large_spec.d} at k={LARGE_K}, m={LARGE_M}; "
                    f"step_kernel_{tree.pipe_spec.n}x{tree.pipe_spec.d}, step_kernel_stack"
                    f"{STACK}, the 6-run trains, their scoring and the 10-sketch eval scoring "
                    f"at k={PIPE_K}, m={PIPE_M}; score_cell_6 at {tree.sweep_spec.n}x"
                    f"{tree.sweep_spec.d}, k={K}, m={M}; score_paper_4 at "
                    f"{tree.paper_spec.n}x{tree.paper_spec.d}, k={LARGE_K}, m={LARGE_M}",
           "unit": "us per call: p25, median, p75 over round-robin repeats; scaled_us "
                   "at the speed where perfbench's reference kernel takes NOMINAL_S",
           "runs": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc["runs"] = json.load(fh).get("runs", {})
    run = {"machine": machine(), "repeats": args.repeats, **timings(args.repeats, args.against)}
    doc["runs"][args.label] = run
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for name, q in run["us"].items():
        sq = run["scaled_us"][name]
        line = (f"{name:24s} {q['p25']:10.1f} {q['median']:10.1f} {q['p75']:10.1f} us"
                f"  scaled {sq['p25']:10.1f} {sq['median']:10.1f} {sq['p75']:10.1f}")
        if args.against:
            qa, ratio = run["against"]["us"][name], run["ratio"][name]
            line = (f"{name:24s} {q['median']:10.1f} vs {qa['median']:10.1f} us  ratio "
                    f"{ratio['p25']:.3f} {ratio['median']:.3f} {ratio['p75']:.3f}")
        print(line)
    for name, mib in run["tracemalloc_peak_mib"].items():
        print(f"{name:24s} tracemalloc peak {mib:.1f} MiB")
    print(f"wrote {args.out} [{args.label}]")


if __name__ == "__main__":
    main()

"""The benchmark's three workloads.

Each workload drives lrsketch only through its public functions and
`lrsketch.cli.main`, closed-loop: one caller waits for each result
before starting the next. Inputs derive from the workload seed. A
workload has:

  prepare(r)  input generation outside the timed region; repeated for
              setup_s, each repeat r on its own seed, the last one kept
  before(i)   untimed staging for iteration i
  steps(i)    the timed unit of work, as a list of calls the runner times
              one by one; each makes one public call, an Op
  after(i)    untimed output checks for iteration i
  finish()    untimed checks that need several iterations or a rerun

An Op fails if it raises, exits non-zero or fails an output check.
Functions are looked up on their modules at call time, so the tracer's
patches are seen. Inputs are built before the steps run, so the
benchmark's own seeding calls never land in a traced step.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import re
import shutil
from dataclasses import replace

import numpy as np

from lrsketch import cli, diffsvd, evalbench, formats, scw, seeding, sketch, trainer

DOMINANCE_SLACK = 1e-9
EXCESS_FLOOR = -1e-9


class Op:
    """One public call made in the timed region."""

    def __init__(self, label: str):
        self.label = label
        self.errors: list[str] = []

    def expect(self, cond, message: str) -> bool:
        if not cond:
            self.errors.append(message)
        return bool(cond)


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=np.float64))) for a in arrays)


class Workload:
    name = ""
    sgd_steps_per_iter = 0
    scw_evals_per_iter = 0

    def __init__(self, seed: int, size: str, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.ops: list[Op] = []
        self.excess_err = 0.0  # from iteration 0; 0 where the workload makes none
        self.train_loss = 0.0  # from iteration 0; 0 where the workload trains none

    def call(self, label: str, fn, *args, record: bool = True, **kwargs):
        """Run one public call as an Op; record=False for check-phase calls."""
        op = Op(label)
        if record:
            self.ops.append(op)
        try:
            return op, fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            op.errors.append(f"raised {type(exc).__name__}: {exc}")
            return op, None

    def cli(self, label: str, argv: list[str], record: bool = True):
        """cli.main with stdout/stderr captured; returns (op, stdout text)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            op, rc = self.call(label, cli.main, argv, record=record)
        if op.expect(rc == 0, f"exit code {rc}: {err.getvalue().strip()[-300:]}"):
            op.expect(not err.getvalue(), f"stderr: {err.getvalue().strip()[-300:]}")
        return op, out.getvalue()

    def prepare(self, r: int) -> None:
        pass

    def before(self, i: int) -> None:
        pass

    def steps(self, i: int) -> list:
        raise NotImplementedError

    def after(self, i: int) -> None:
        pass

    def finish(self) -> None:
        pass


class SgdTrain(Workload):
    """trainer.train in all three modes on a train set made during set-up."""

    name = "sgd_train"
    MODES = ("learned", "mixed_joint", "mixed_separate")

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        tiny = size == "tiny"
        n, d, self.k, self.m = (16, 12, 2, 4) if tiny else (64, 48, 4, 8)
        self.iterations = 5 if tiny else 40
        self.spec = evalbench.DatasetSpec(
            name="sgd", kind="spiked", n=n, d=d, count_train=2 if tiny else 4,
            count_test=1 if tiny else 2, spikes=self.k, decay=0.8, noise=0.1,
            drift=0.05, seed=0)
        self.power_cfg = diffsvd.PowerSvdConfig(t_iters=30)
        self.sgd_steps_per_iter = len(self.MODES) * self.iterations
        self.results: dict[int, list] = {}

    def prepare(self, r):
        # a fresh seed per repeat, so a cache of datasets cannot shorten setup_s
        spec = replace(self.spec, seed=seeding.derived_seed(self.seed, 1, r))
        self.train_set, self.test_set = evalbench.generate_dataset(spec)

    def _cfg(self, i: int, j: int, mode: str):
        return trainer.TrainConfig(
            k=self.k, lr=1.0, batch_size=1, iterations=self.iterations,
            seed=seeding.derived_seed(self.seed, 2, i, j), power_cfg=self.power_cfg,
            mode=mode, learned_rows=self.m // 2)

    def steps(self, i):
        out = self.results[i] = []

        def one(cfg):
            op, res = self.call(f"train[{cfg.mode}]", trainer.train, self.train_set,
                                self.m, cfg)
            out.append((op, cfg, res))

        return [functools.partial(one, self._cfg(i, j, mode))
                for j, mode in enumerate(self.MODES)]

    def after(self, i):
        finals = []
        for op, cfg, res in self.results[i]:
            if res is None:
                continue
            s, rep = res
            hist = [loss for _, loss in rep.loss_history]
            if op.expect(_finite(s.value_of, hist, [rep.initial_loss, rep.final_loss]),
                         "non-finite loss or sketch value"):
                op.expect(rep.final_loss <= rep.initial_loss,
                          f"final loss {rep.final_loss!r} > initial {rep.initial_loss!r}")
            finals.append(rep.final_loss)
        if i == 0 and finals:
            self.train_loss = float(np.mean(finals))

    def finish(self):
        """Pattern, frozen-block and concat-dominance checks on every sketch."""
        for ops in self.results.values():
            for op, cfg, res in ops:
                if res is not None:
                    self._check_sketch(op, cfg, res[0])

    def _check_sketch(self, op, cfg, s):
        # iterations=0 returns the initial sketch; its values do not depend
        # on the train set, so one matrix keeps this cheap
        init, _ = trainer.train(self.train_set[:1], self.m, replace(cfg, iterations=0))
        if not op.expect(len(s.blocks) == len(init.blocks), "block count changed"):
            return
        for b, b0 in zip(s.blocks, init.blocks):
            op.expect(b.m == b0.m and np.array_equal(b.row_of, b0.row_of)
                      and np.array_equal(b.trainable_mask, b0.trainable_mask),
                      "sparsity pattern changed during training")
            frozen = ~b0.trainable_mask
            op.expect(np.array_equal(b.value_of[frozen], b0.value_of[frozen]),
                      "frozen values moved during training")
        if cfg.mode == "learned":
            return
        learned = sketch.SparseSketch(s.n, s.blocks[:1])
        frozen_part = sketch.SparseSketch(s.n, s.blocks[1:])
        op.expect(not np.any(s.blocks[-1].trainable_mask), "last block is not frozen")
        for a in self.test_set:
            stacked, alone = scw.check_concat_dominance(a, learned, frozen_part, self.k)
            op.expect(stacked <= alone + DOMINANCE_SLACK,
                      f"concat dominance violated: {stacked!r} > {alone!r}")


class SketchEval(Workload):
    """evalbench.run_experiment for random sketches over several (k, m) cells."""

    name = "sketch_eval"
    TYPES = ("sparse_random", "dense_random")

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        tiny = size == "tiny"
        self.n, self.d = (16, 12) if tiny else (64, 48)
        self.cells = ((2, 4), (1, 3)) if tiny else ((4, 8), (2, 6))
        self.trials = 2 if tiny else 3
        self.count_test = 1 if tiny else 2
        self.scw_evals_per_iter = (len(self.cells) * len(self.TYPES) * self.trials
                                   * self.count_test)
        self.records: dict[int, list] = {}

    def _inputs(self, i: int):
        """Sweep i gets its own dataset, so no sweep can reuse another's work."""
        spec = evalbench.DatasetSpec(
            name="eval", kind="spiked", n=self.n, d=self.d, count_train=1,
            count_test=self.count_test, spikes=self.cells[0][0], decay=0.8, noise=0.1,
            drift=0.05, seed=seeding.derived_seed(self.seed, 1, i))
        cfg = trainer.TrainConfig(k=self.cells[0][0],
                                  seed=seeding.derived_seed(self.seed, 2, i))
        return spec, cfg

    def steps(self, i):
        spec, cfg = self._inputs(i)
        out = self.records[i] = []

        def one(k, m, st):
            op, rec = self.call(f"run_experiment[k={k},m={m},{st}]",
                                evalbench.run_experiment, spec, k, m, st, self.trials, cfg)
            out.append((op, (k, m, st), rec))

        return [functools.partial(one, k, m, st) for k, m in self.cells for st in self.TYPES]

    def after(self, i):
        errs = []
        for op, (k, m, st), rec in self.records[i]:
            if rec is None:
                continue
            op.expect((rec.dataset, rec.k, rec.m, rec.sketch_type, rec.trials)
                      == ("eval", k, m, st, self.trials), f"wrong record cell {rec}")
            if op.expect(_finite([rec.err, rec.std_err]), f"non-finite record {rec}"):
                op.expect(rec.err >= EXCESS_FLOOR, f"excess error {rec.err!r} < -1e-9")
                op.expect(rec.std_err >= 0.0, f"negative std_err {rec.std_err!r}")
            errs.append(rec.err)
        if i == 0 and errs:
            self.excess_err = float(np.mean(errs))

    def finish(self):
        """Same seed, same record: rerun the first cell of sweep 0."""
        op, (k, m, st), rec = self.records[0][0]
        spec, cfg = self._inputs(0)
        again = evalbench.run_experiment(spec, k, m, st, self.trials, cfg)
        op.expect(again == rec, f"rerun differs: {again} vs {rec}")


_TRAIN_LINE = re.compile(r"^train: \S+ k=\d+ m=\d+ \S+ trial \d+: loss (\S+) -> (\S+)$")
_RESULTS_HEADER = ["dataset", "k", "m", "sketch", "err", "std_err", "trials"]
_TRAINABLE = ("learned", "mixed_j", "mixed_s")


class CliPipeline(Workload):
    """cli.main gen-data -> train -> eval with --jobs 2 into a scratch dir."""

    name = "cli_pipeline"
    JOBS = 2

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        tiny = size == "tiny"
        n, d = (12, 10) if tiny else (32, 24)
        self.k, self.m = (2, 4) if tiny else (3, 6)
        self.count_train, self.count_test = (2, 1) if tiny else (4, 3)
        self.trials = 2
        self.iterations = 5 if tiny else 10
        self.dataset = {"name": "spiked", "kind": "spiked", "n": n, "d": d,
                        "count_train": self.count_train, "count_test": self.count_test,
                        "spikes": self.k, "decay": 0.8, "noise": 0.1, "drift": 0.05}
        self.train = {"lr": 1.0, "batch_size": 1, "iterations": self.iterations,
                      "power_iters": 30}
        n_types = len(evalbench.SKETCH_TYPES)
        self.sgd_steps_per_iter = len(_TRAINABLE) * self.trials * self.iterations
        self.scw_evals_per_iter = n_types * self.trials * self.count_test
        self.cmds: dict[int, list] = {}

    def _config(self, i: int) -> dict:
        """Iteration i gets its own seeds, so no iteration reuses another's work."""
        return {"version": 1, "seed": seeding.derived_seed(self.seed, 3, i),
                "out_dir": os.path.join(self.work_dir, f"it{i}"),
                "datasets": [dict(self.dataset, seed=seeding.derived_seed(self.seed, 4, i))],
                "pairs": [[self.k, self.m]],
                "sketch_types": list(evalbench.SKETCH_TYPES),
                "trials": self.trials, "train": self.train}

    def _config_path(self, i: int) -> str:
        return os.path.join(self.work_dir, f"config{i}.json")

    def prepare(self, r):
        os.makedirs(self.work_dir, exist_ok=True)
        self.before(0)

    def before(self, i):
        with open(self._config_path(i), "w", encoding="ascii") as fh:
            json.dump(self._config(i), fh)

    def _pipeline(self, config: str, jobs: int, out: str | None = None,
                  record: bool = True) -> tuple[list, list]:
        """One call per command; each appends (op, stdout) to the returned list."""
        extra = ["--jobs", str(jobs)] + (["--out", out] if out else [])
        done: list = []

        def one(cmd):
            done.append(self.cli(cmd, [cmd, "--config", config] + extra, record=record))

        return done, [functools.partial(one, cmd) for cmd in ("gen-data", "train", "eval")]

    def steps(self, i):
        self.cmds[i], calls = self._pipeline(self._config_path(i), self.JOBS)
        return calls

    def after(self, i):
        (gen_op, _), (train_op, train_text), (eval_op, _) = self.cmds[i]
        out_dir = self._config(i)["out_dir"]
        # the CLI prints losses to 4 decimals, so train_loss has that
        # resolution here and final <= initial compares rounded values;
        # sgd_train checks the same trainer.train at full precision
        finals = []
        for line in train_text.splitlines():
            hit = _TRAIN_LINE.match(line)
            if not hit:
                continue
            initial, final = float(hit.group(1)), float(hit.group(2))
            if train_op.expect(_finite([initial, final]), f"non-finite loss: {line}"):
                train_op.expect(final <= initial, f"loss went up: {line}")
            finals.append(final)
        train_op.expect(len(finals) == len(_TRAINABLE) * self.trials,
                        f"{len(finals)} train lines")
        errs = self._check_results(eval_op, os.path.join(out_dir, "results.csv"))
        if i == 0:
            self.train_loss = float(np.mean(finals)) if finals else 0.0
            self.excess_err = float(np.mean(errs)) if errs else 0.0
        else:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check_results(self, op, path) -> list[float]:
        if not op.expect(os.path.exists(path), "results.csv missing"):
            return []
        with open(path, newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
        op.expect(rows[:1] == [_RESULTS_HEADER], f"bad results header {rows[:1]}")
        want = sorted(["spiked", str(self.k), str(self.m), st]
                      for st in evalbench.SKETCH_TYPES)
        op.expect([r[:4] for r in rows[1:]] == want, "results.csv rows differ")
        errs = []
        for r in rows[1:]:
            err, std_err, trials = float(r[4]), float(r[5]), int(r[6])
            if op.expect(_finite([err, std_err]), f"non-finite row {r}"):
                op.expect(err >= EXCESS_FLOOR, f"excess error {err!r} < -1e-9")
            op.expect(trials == self.trials, f"row {r} has {trials} trials")
            errs.append(err)
        return errs

    def finish(self):
        (gen_op, _), (train_op, _), (eval_op, _) = self.cmds[0]
        cfg0 = self._config(0)
        out_dir = cfg0["out_dir"]
        data_dir = os.path.join(out_dir, "data", "spiked")
        sk_dir = os.path.join(out_dir, "sketches")
        probe = os.path.join(self.work_dir, "roundtrip")
        # every output file round-trips bit for bit
        for op, folder, load, save in ((gen_op, data_dir, formats.load_dmat, formats.save_dmat),
                                       (train_op, sk_dir, formats.load_sketch,
                                        formats.save_sketch)):
            for fname in sorted(os.listdir(folder)) if os.path.isdir(folder) else []:
                if fname.endswith((".dmat", ".skch")):
                    path = os.path.join(folder, fname)
                    save(probe, load(path))
                    op.expect(_same_bytes(path, probe), f"{fname} does not round-trip")
        # the written matrices are exactly what the generator makes
        spec = evalbench.DatasetSpec(**cfg0["datasets"][0])
        train_set, test_set = evalbench.generate_dataset(spec)
        for role, mats in (("train", train_set), ("test", test_set)):
            for j, a in enumerate(mats):
                path = os.path.join(data_dir, f"{role}_{j:03d}.dmat")
                gen_op.expect(os.path.exists(path)
                              and np.array_equal(formats.load_dmat(path), a),
                              f"{role}_{j:03d}.dmat differs from generate_dataset")
        # mixed sketches: frozen block untouched, stacking never hurts
        for st in ("mixed_j", "mixed_s"):
            for t in range(self.trials):
                path = os.path.join(sk_dir, f"spiked_k{self.k}_m{self.m}_{st}_t{t}.skch")
                if not train_op.expect(os.path.exists(path), f"missing {path}"):
                    continue
                s = formats.load_sketch(path)
                fb = s.blocks[-1]
                train_op.expect(len(s.blocks) == 2 and not np.any(fb.trainable_mask)
                                and np.all(np.abs(fb.value_of) == 1.0),
                                f"{st} t{t}: frozen block is not an untouched CountSketch")
                learned = sketch.SparseSketch(s.n, s.blocks[:1])
                frozen = sketch.SparseSketch(s.n, s.blocks[1:])
                for a in test_set:
                    stacked, alone = scw.check_concat_dominance(a, learned, frozen, self.k)
                    train_op.expect(stacked <= alone + DOMINANCE_SLACK,
                                    f"{st} t{t}: concat dominance violated")
        # same seed, --jobs 1: every output byte identical
        rerun = os.path.join(self.work_dir, "rerun")
        done, calls = self._pipeline(self._config_path(0), 1, out=rerun, record=False)
        for call in calls:
            call()
        for op, _ in done:
            eval_op.expect(op.errors == [], f"--jobs 1 rerun failed: {op.errors}")
        for root, _, files in os.walk(out_dir):
            for fname in files:
                path = os.path.join(root, fname)
                twin = os.path.join(rerun, os.path.relpath(path, out_dir))
                eval_op.expect(_same_bytes(path, twin),
                               f"{os.path.relpath(path, out_dir)} depends on --jobs")


def _same_bytes(a: str, b: str) -> bool:
    if not (os.path.exists(a) and os.path.exists(b)):
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


WORKLOADS = {w.name: w for w in (SgdTrain, SketchEval, CliPipeline)}

"""SGD over sketch values.

Plain constant-rate SGD on the exact squared sketch-and-solve loss,
with its closed-form gradient (`scw.sa_loss_and_grad`, the kernel of
`scw_loss_and_grad`): the hash pattern (which row each column hits) is
frozen, only the stored values move, and masked values never move. So a
run builds the index arrays the pattern fixes once, steps on the value
vector alone, and builds the trained sketch after its last step. Every
mode trains a block stacked on a frozen random block (`train`).

Every loss is the squared sketch-and-solve loss taken residual-free,
||A||^2 - sum_{i <= r} sigma_i(AV)^2, which matches scw_loss ** 2 (the
loss `eval` measures) to about eps * ||A||^2. The loss history holds each
step's batch mean from the step kernel; the initial and final losses are
means over the train set, of the m-row sketch returned, from one scoring
pass each (`scw.sq_losses`), with no approximation or residual built. A
run whose final loss is above its initial one returns its start.
Training returns no factor of any SVD, so it takes SA's without the sign
rule.

`train_many` gives each of many runs the bytes `train` gives it alone:
it scores the runs that share k in one pass, and runs that share every
shape step together (`lockstep`).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .formats import atomic_open
from .linalg import PowerSvdConfig, as_matrix, frobenius_norm
from .scw import sa_loss_and_grad, sq_losses
from .seeding import derived_seed, rng_from
from .sketch import (SparseSketch, concat_sketches, empty_sketch, grad_index, scatter_flat,
                     scatter_index, sparse_random_sketch)

# seed derivation tags under TrainConfig.seed
_SEED_INIT = 0  # initial trainable sketch
_SEED_BATCH = 1  # batch sampling stream
_SEED_FROZEN = 3  # frozen random block of mixed sketches
# tag 2 stays unused: renumbering _SEED_FROZEN would change every frozen block


class TrainingDivergedError(RuntimeError):
    """Loss or parameters became non-finite; the learning rate is too hot."""


@dataclass(frozen=True)
class TrainConfig:
    k: int
    lr: float = 0.1
    batch_size: int = 1
    iterations: int = 3000
    seed: int = 0
    # not used by training, which takes the exact gradient; still
    # accepted and range-checked (train.power_iters in configs)
    power_cfg: PowerSvdConfig = field(default_factory=PowerSvdConfig)
    mode: str = "learned"  # learned | mixed_joint | mixed_separate
    learned_rows: int = 0  # trainable rows for the mixed modes

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.lr >= 0:  # NaN fails too
            raise ValueError("lr must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.mode not in ("learned", "mixed_joint", "mixed_separate"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class TrainReport:
    # (iteration, mean residual-free loss over the batch, within about
    # eps * ||A||^2 of scw_loss**2) of what SGD moves; for mixed_separate, the block
    loss_history: tuple[tuple[int, float], ...]
    # mean residual-free loss of the m-row sketch over the train set, before SGD
    initial_loss: float
    final_loss: float  # same, for the returned sketch; never above initial_loss


def _check_train_set(train_set) -> int:
    if not train_set:
        raise ValueError("train set is empty")
    n = train_set[0].shape[0]
    for i, a in enumerate(train_set):
        if a.shape[0] != n:
            raise ValueError(f"matrix {i} has {a.shape[0]} rows, expected {n}")
    return n


def _mean_loss(train_set, sketch, k: int) -> float:
    """The mean squared loss of sketch over the train set: one `scw.sq_losses` pass."""
    return _mean(sq_losses(train_set, [sketch], k)[0])


def _mean(losses: np.ndarray) -> float:
    return sum(losses.tolist()) / len(losses)  # left to right, in train-set order


def _mean_losses(train_set, sketches: dict, cfgs) -> dict:
    """_mean_loss of each sketch, keyed as `sketches` is, with cfgs[key].k, bit-equal:
    one `scw.sq_losses` pass over the sketches that share k, or where that
    raises, _mean_loss per sketch; a sketch's error stands in its place."""
    by_k, out = {}, {}
    for i in sketches:
        by_k.setdefault(cfgs[i].k, []).append(i)
    for k, keys in by_k.items():
        table = _attempt(sq_losses, train_set, [sketches[i] for i in keys], k)
        for j, i in enumerate(keys):
            if isinstance(table, Exception):  # each sketch's own error, or its loss
                out[i] = _attempt(_mean_loss, train_set, sketches[i], k)
            else:
                out[i] = _mean(table[j])
    return out


class _Run:
    """One run's step: its sketch's pattern, index arrays and cfg, built once."""

    def __init__(self, sketch: SparseSketch, cfg: TrainConfig, widths):
        self.cfg, self.m, self.mask = cfg, sketch.m, sketch.trainable_mask
        self.flat = {d: scatter_index(sketch.row_of, d) for d in widths}  # per column count
        self.index = grad_index(sketch)
        self.losses = np.empty(cfg.batch_size)

    def step(self, mats, sq_norms, vals: np.ndarray, idx, step: int):
        """One SGD step over the batch idx: (new values, mean batch loss)."""
        cfg, losses = self.cfg, self.losses
        grad = np.zeros(vals.shape[0])
        for j, ii in enumerate(idx):
            a = mats[ii]
            sa = scatter_flat(vals, self.flat[a.shape[1]], self.m, a)
            loss, g = sa_loss_and_grad(a, sa, cfg.k, self.index, sq_norms[ii])
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at iteration {step} (matrix {ii}); lower lr")
            grad += g
            losses[j] = loss
        grad /= cfg.batch_size
        vals = np.where(self.mask, vals - cfg.lr * grad, vals)
        if not np.isfinite(vals).all():
            raise TrainingDivergedError(
                f"non-finite sketch values after iteration {step}; lower lr")
        return vals, float(losses.sum()) / cfg.batch_size  # bit-equal to np.mean


def _result(sketch, tail, trained, initial: float, final: float, history):
    """concat_sketches(trained, tail) and its report; the start if SGD ended above it."""
    if final > initial:  # SGD ended above its start: keep the start
        trained, final = sketch, initial
    return concat_sketches(trained, tail), TrainReport(tuple(history), initial, final)


def _sgd(train_set, sketch: SparseSketch, cfg: TrainConfig):
    """SGD over sketch's values: the trained values and the loss history.

    The matrices, their squared norms, the scatter index of each column
    count in the train set, the gradient index and the batches are built
    once per run.
    """
    mats = [as_matrix(a) for a in train_set]
    sq_norms = [frobenius_norm(a) ** 2 for a in mats]
    run = _Run(sketch, cfg, {a.shape[1] for a in mats})
    vals, history = sketch.value_of, []
    for step, idx in enumerate(_batches(cfg, len(mats)), 1):
        vals, loss = run.step(mats, sq_norms, vals, idx, step)
        history.append((step, loss))
    return vals, history


def _batches(cfg: TrainConfig, count: int) -> np.ndarray:
    """Each step's sorted batch of matrix indices in [0, count), row by row: one
    draw from the run's batch stream, the numbers a draw per step gives."""
    draws = rng_from(cfg.seed, _SEED_BATCH).integers(0, count,
                                                     size=(cfg.iterations, cfg.batch_size))
    return np.sort(draws, axis=1)


def _run_sgd(train_set, sketch: SparseSketch, tail: SparseSketch,
             cfg: TrainConfig) -> tuple[SparseSketch, TrainReport]:
    """Score, SGD over sketch's values, score: concat_sketches(trained, tail) and its losses."""
    initial = _mean_loss(train_set, concat_sketches(sketch, tail), cfg.k)
    vals, history = _sgd(train_set, sketch, cfg)
    trained = sketch.with_values(vals)
    final = _mean_loss(train_set, concat_sketches(trained, tail), cfg.k)
    return _result(sketch, tail, trained, initial, final, history)


def learned_rows(cfg: TrainConfig, m: int) -> int:
    """Trainable rows of an m-row sketch: m for learned, else cfg.learned_rows.

    That lies in [0, m] for mixed_joint and in [1, m] for mixed_separate,
    which trains its block alone; [0, m] is checked in every mode.
    """
    low = 1 if cfg.mode == "mixed_separate" else 0
    if not low <= cfg.learned_rows <= m:
        raise ValueError(f"learned_rows={cfg.learned_rows} outside [{low}, {m}] "
                         f"for mode {cfg.mode}")
    return m if cfg.mode == "learned" else cfg.learned_rows


def _start(n: int, m: int, cfg: TrainConfig) -> tuple[SparseSketch, SparseSketch]:
    """The (sketch, tail) that _run_sgd takes for cfg: what SGD moves and what it appends."""
    rows = learned_rows(cfg, m)
    sketch, tail = empty_sketch(n), empty_sketch(n)
    if rows > 0:
        sketch = sparse_random_sketch(rows, n, derived_seed(cfg.seed, _SEED_INIT))
    if m > rows:
        b = sparse_random_sketch(m - rows, n, derived_seed(cfg.seed, _SEED_FROZEN)).blocks[0]
        tail = SparseSketch(n, (replace(b, trainable_mask=np.zeros(n, dtype=bool)),))
    if cfg.mode == "mixed_separate":
        return sketch, tail
    return concat_sketches(sketch, tail), empty_sketch(n)


def train(train_set, m: int, cfg: TrainConfig) -> tuple[SparseSketch, TrainReport]:
    """Train an m-row sketch: a trainable block stacked on a frozen random block.

    learned has no frozen block. mixed_joint runs SGD over the stack
    with the frozen values masked, so they come out bit-identical to
    initialization; mixed_separate runs SGD over the trainable block
    alone and appends the frozen block after.
    """
    n = _check_train_set(train_set)
    return _run_sgd(train_set, *_start(n, m, cfg), cfg)


def train_many(train_set, m: int, cfgs) -> Iterator[tuple[SparseSketch, TrainReport]]:
    """train(train_set, m, cfg) for each cfg, in order, byte for byte.

    The initial losses of every run that shares k are scored in one
    pass (`scw.sq_losses`) before any run steps, and the final losses
    in one pass after the last. Over a train set of one shape, runs that
    share the trained rows, k, batch size and iteration count step in
    lockstep (`lockstep`); a run alone in its group, or whose trained
    sketch has a row no column hits, steps by itself.
    Every cfg is checked before any run steps. Every run trains when the
    iterator is first advanced, before it yields; results come in cfg
    order, and at a run that failed the iterator raises that run's own
    error.
    """
    cfgs = list(cfgs)
    if not cfgs:  # train is never called, so nothing is checked
        return iter(())
    n = _check_train_set(train_set)
    starts = [_start(n, m, cfg) for cfg in cfgs]
    return _in_order(train_set, starts, cfgs)


def _in_order(train_set, starts, cfgs):
    for result in _train_all(train_set, starts, cfgs):
        if isinstance(result, Exception):
            raise result
        yield result


def _train_all(train_set, starts, cfgs) -> list:
    """Each run's (sketch, report) or error: score all, step each group, score all."""
    out = _mean_losses(train_set, {i: concat_sketches(*start)
                                   for i, start in enumerate(starts)}, cfgs)
    initial = {i: x for i, x in out.items() if not isinstance(x, Exception)}
    one_shape = len({a.shape for a in train_set}) == 1
    groups = {}
    for i in initial:
        s = starts[i][0]
        key = (s.m, cfgs[i].k, cfgs[i].batch_size, cfgs[i].iterations)
        # a row no column hits leaves SA rank-deficient at every step, where
        # a lockstep group falls back to per-run steps: such a run steps alone
        lockable = one_shape and np.bincount(s.row_of, minlength=s.m).min() > 0
        groups.setdefault(key if lockable else i, []).append(i)
    stepped = {}
    for group in groups.values():
        if len(group) == 1:
            stepped[group[0]] = _attempt(_sgd, train_set, starts[group[0]][0], cfgs[group[0]])
        else:  # loaded here, so start-up does not compile it
            from .lockstep import run_lockstep
            stepped.update(zip(group, run_lockstep(
                train_set, [starts[i][0] for i in group], [cfgs[i] for i in group])))
    trained = {}
    for i, got in stepped.items():
        if isinstance(got, Exception):
            out[i] = got
        else:
            trained[i] = starts[i][0].with_values(got[0])
    finals = _mean_losses(train_set, {i: concat_sketches(t, starts[i][1])
                                      for i, t in trained.items()}, cfgs)
    for i, final in finals.items():
        out[i] = final if isinstance(final, Exception) else _result(
            *starts[i], trained[i], initial[i], final, stepped[i][1])
    return [out[i] for i in range(len(cfgs))]


def _attempt(fn, *args):
    """fn(*args), or the exception it raised, for the run's turn to re-raise."""
    try:
        return fn(*args)
    except Exception as exc:  # any error: train would raise it at this run's turn
        return exc


def report_to_csv(report: TrainReport, path) -> None:
    """Write the loss history as an iteration,loss CSV."""
    with atomic_open(path, "w", encoding="ascii") as fh:
        fh.write("iteration,loss\n")
        for it, loss in report.loss_history:
            fh.write(f"{it},{loss!r}\n")

"""SGD over sketch values.

Plain constant-rate SGD on the exact squared sketch-and-solve loss,
with its closed-form gradient (`scw.sa_loss_and_grad_stack`, the kernel
of `scw_loss_and_grad`): the hash pattern (which row each column hits)
is frozen, only the stored values move, and masked values never move.
So a run builds the index arrays the pattern fixes once, steps on the
value vector alone, and builds the trained sketch after its last step.
Every mode trains a block stacked on a frozen random block (`train`).

Every loss is the squared sketch-and-solve loss taken residual-free,
||A||^2 - sum_{i <= r} sigma_i(AV)^2, which matches scw_loss ** 2 (the
loss `eval` measures) to about eps * ||A||^2. The loss history holds each
step's batch mean from the step kernel; the initial and final losses are
means over the train set, of the m-row sketch returned, from one scoring
pass each (`scw.sq_losses`), with no approximation or residual built. A
run whose final loss is above its initial one returns its start.

`train` is `train_many` of one cfg. `train_many` scores the runs that
share k in one pass, and runs that share every shape step together
through one driver (`lockstep`), so each run gets the bytes it gets
alone.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .formats import atomic_open
from .linalg import PowerSvdConfig, as_matrix, frobenius_norm
from .scw import sq_losses
from .seeding import derived_seed, rng_from
from .sketch import SparseSketch, concat_sketches, empty_sketch, sparse_random_sketch

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


def _check_train_set(train_set) -> list:
    """The train set's matrices (`as_matrix`), or ValueError naming the first
    whose shape differs from the first's."""
    if not train_set:
        raise ValueError("train set is empty")
    mats = [as_matrix(a) for a in train_set]
    n, d = mats[0].shape
    for i, a in enumerate(mats):
        if a.shape[0] != n:
            raise ValueError(f"matrix {i} has {a.shape[0]} rows, expected {n}")
        if a.shape[1] != d:
            raise ValueError(f"matrix {i} has {a.shape[1]} columns, expected {d}")
    return mats


def _mean(losses: np.ndarray) -> float:
    return sum(losses.tolist()) / len(losses)  # left to right, in train-set order


def _mean_losses(mats, sq_norms, sketches: dict, cfgs) -> dict:
    """The mean squared loss over the train set of each sketch, keyed as
    `sketches` is, with cfgs[key].k: one `scw.sq_losses` pass over the sketches
    that share k, or where that raises, one per sketch; a sketch's error
    stands in its place."""
    by_k, out = {}, {}
    for i in sketches:
        by_k.setdefault(cfgs[i].k, []).append(i)
    for k, keys in by_k.items():
        table = _attempt(sq_losses, mats, [sketches[i] for i in keys], k, sq_norms)
        for j, i in enumerate(keys):
            if isinstance(table, Exception):  # each sketch's own error, or its loss
                table_i = _attempt(sq_losses, mats, [sketches[i]], k, sq_norms)
                out[i] = table_i if isinstance(table_i, Exception) else _mean(table_i[0])
            else:
                out[i] = _mean(table[j])
    return out


def _result(sketch, tail, trained, initial: float, final: float, history):
    """concat_sketches(trained, tail) and its report; the start if SGD ended above it."""
    if final > initial:  # SGD ended above its start: keep the start
        trained, final = sketch, initial
    return concat_sketches(trained, tail), TrainReport(tuple(history), initial, final)


def _batches(cfg: TrainConfig, count: int) -> np.ndarray:
    """Each step's sorted batch of matrix indices in [0, count), row by row: one
    draw from the run's batch stream, the numbers a draw per step gives."""
    draws = rng_from(cfg.seed, _SEED_BATCH).integers(0, count,
                                                     size=(cfg.iterations, cfg.batch_size))
    return np.sort(draws, axis=1)


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
    """The (sketch, tail) a run takes for cfg: what SGD moves and what it appends."""
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
    alone and appends the frozen block after. The train set's matrices
    must share one shape. This is the first result of train_many.
    """
    return next(train_many(train_set, m, [cfg]))


def train_many(train_set, m: int, cfgs) -> Iterator[tuple[SparseSketch, TrainReport]]:
    """train(train_set, m, cfg) for each cfg, in order, byte for byte.

    The train set's ||A||_F^2 are taken once. The initial losses of every
    run that shares k are scored in one pass (`scw.sq_losses`) before any
    run steps, and the final losses in one pass after the last. Runs that
    share the trained rows, k, batch size and iteration count step in
    lockstep (`lockstep`), a run's steps the same whatever its group.
    Every cfg is checked before any run steps. Every run trains when the
    iterator is first advanced, before it yields; results come in cfg
    order, and at a run that failed the iterator raises that run's own
    error.
    """
    cfgs = list(cfgs)
    if not cfgs:  # train is never called, so nothing is checked
        return iter(())
    mats = _check_train_set(train_set)
    starts = [_start(mats[0].shape[0], m, cfg) for cfg in cfgs]
    return _in_order(mats, starts, cfgs)


def _in_order(mats, starts, cfgs):
    for result in _train_all(mats, starts, cfgs):
        if isinstance(result, Exception):
            raise result
        yield result


def _train_all(mats, starts, cfgs) -> list:
    """Each run's (sketch, report) or error: score all, step each group, score all."""
    sq_norms = [frobenius_norm(a) ** 2 for a in mats]
    out = _mean_losses(mats, sq_norms, {i: concat_sketches(*start)
                                        for i, start in enumerate(starts)}, cfgs)
    initial = {i: x for i, x in out.items() if not isinstance(x, Exception)}
    groups = {}
    for i in initial:
        key = (starts[i][0].m, cfgs[i].k, cfgs[i].batch_size, cfgs[i].iterations)
        groups.setdefault(key, []).append(i)
    from .lockstep import run_lockstep  # loaded here, so start-up does not compile it
    stepped, stack = {}, np.stack(mats) if groups else None
    for group in groups.values():
        got = _attempt(run_lockstep, stack, np.array(sq_norms), [starts[i][0] for i in group],
                       [cfgs[i] for i in group])
        stepped.update(zip(group, [got] * len(group) if isinstance(got, Exception) else got))
    trained = {}
    for i, got in stepped.items():
        if isinstance(got, Exception):
            out[i] = got
        else:
            trained[i] = starts[i][0].with_values(got[0])
    finals = _mean_losses(mats, sq_norms, {i: concat_sketches(t, starts[i][1])
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

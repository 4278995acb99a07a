"""SGD over sketch values.

Plain constant-rate SGD on the squared sketch-to-loss forward pass: the
hash pattern (which row each column hits) is frozen, only the stored
values move, and masked values never move. Mixed sketches stack a
trainable block on top of a frozen random block, trained either jointly
(one SGD run over the stacked sketch) or separately (train the small
sketch alone, then append a fresh random block).

Losses are reported as the mean squared sketch-and-solve loss
(`scw_loss`) over the train set, the loss `eval` measures. A run whose
final loss is above its initial one returns its starting sketch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .diffsvd import PowerSvdConfig, backward, scw_forward_with_tape
from .scw import scw_loss
from .seeding import derived_seed, rng_from
from .sketch import SketchBlock, SparseSketch, concat_sketches, sparse_random_sketch

# seed derivation tags under TrainConfig.seed
_SEED_INIT = 0  # initial trainable sketch
_SEED_BATCH = 1  # batch sampling stream
_SEED_STEP = 2  # per-(step, slot) power-iteration inits
_SEED_FROZEN = 3  # frozen random block of mixed sketches


class TrainingDivergedError(RuntimeError):
    """Loss or parameters became non-finite; the learning rate is too hot."""


@dataclass(frozen=True)
class TrainConfig:
    k: int
    lr: float = 0.1
    batch_size: int = 1
    iterations: int = 3000
    seed: int = 0
    power_cfg: PowerSvdConfig = field(default_factory=PowerSvdConfig)
    mode: str = "learned"  # learned | mixed_joint | mixed_separate
    learned_rows: int = 0  # trainable rows for the mixed modes

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.mode not in ("learned", "mixed_joint", "mixed_separate"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class TrainReport:
    loss_history: tuple[tuple[int, float], ...]  # (iteration, mean taped batch loss)
    initial_loss: float  # mean scw_loss**2 over the train set, before SGD
    final_loss: float  # same, for the returned sketch; never above initial_loss
    wall_time: float


def _check_train_set(train_set) -> int:
    if not train_set:
        raise ValueError("train set is empty")
    n = train_set[0].shape[0]
    for i, a in enumerate(train_set):
        if a.shape[0] != n:
            raise ValueError(f"matrix {i} has {a.shape[0]} rows, expected {n}")
    return n


def _mean_loss(train_set, sketch, k: int) -> float:
    total = 0.0
    for a in train_set:
        total += scw_loss(a, sketch, k) ** 2
    return total / len(train_set)


def _run_sgd(train_set, sketch: SparseSketch,
             cfg: TrainConfig) -> tuple[SparseSketch, TrainReport]:
    t0 = time.perf_counter()
    start = sketch
    initial = _mean_loss(train_set, sketch, cfg.k)
    batch_rng = rng_from(cfg.seed, _SEED_BATCH)
    history = []
    for step in range(1, cfg.iterations + 1):
        idx = np.sort(batch_rng.integers(0, len(train_set), size=cfg.batch_size))
        grad = np.zeros(sketch.value_of.shape[0])
        batch_losses = []
        for slot, ii in enumerate(idx):
            pcfg = replace(cfg.power_cfg,
                           init_seed=derived_seed(cfg.seed, _SEED_STEP, step, slot))
            loss, tape = scw_forward_with_tape(train_set[ii], sketch, cfg.k, pcfg)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at iteration {step} (matrix {ii}); lower lr")
            grad += backward(tape)
            batch_losses.append(loss)
        grad /= len(idx)
        vals = sketch.value_of
        new_vals = np.where(sketch.trainable_mask, vals - cfg.lr * grad, vals)
        if not np.all(np.isfinite(new_vals)):
            raise TrainingDivergedError(
                f"non-finite sketch values after iteration {step}; lower lr")
        sketch = sketch.with_values(new_vals)
        history.append((step, float(np.mean(batch_losses))))
    final = _mean_loss(train_set, sketch, cfg.k)
    if final > initial:  # SGD ended above its start: keep the start
        sketch, final = start, initial
    report = TrainReport(tuple(history), initial, final, time.perf_counter() - t0)
    return sketch, report


def train_sketch(train_set, m: int, cfg: TrainConfig) -> tuple[SparseSketch, TrainReport]:
    """Optimize all values of a fresh random m x n sketch over the train set."""
    n = _check_train_set(train_set)
    sketch = sparse_random_sketch(m, n, derived_seed(cfg.seed, _SEED_INIT))
    return _run_sgd(train_set, sketch, cfg)


def _frozen_block(m: int, n: int, seed: int) -> SparseSketch:
    s = sparse_random_sketch(m, n, seed)
    b = s.blocks[0]
    frozen = SketchBlock(b.m, b.row_of, b.value_of, np.zeros(n, dtype=bool))
    return SparseSketch(n, (frozen,))


def train_mixed_joint(train_set, m: int, cfg: TrainConfig) -> tuple[SparseSketch, TrainReport]:
    """Stack a trainable block on a frozen random block, train them as one.

    Gradients for the frozen block are masked to zero, so its values
    come out bit-identical to initialization. learned_rows may be
    anything in [0, m]; learned_rows == m degenerates to train_sketch.
    """
    n = _check_train_set(train_set)
    if not 0 <= cfg.learned_rows <= m:
        raise ValueError(f"learned_rows={cfg.learned_rows} outside [0, {m}]")
    parts = []
    if cfg.learned_rows > 0:
        parts.append(sparse_random_sketch(cfg.learned_rows, n,
                                          derived_seed(cfg.seed, _SEED_INIT)))
    if m - cfg.learned_rows > 0:
        parts.append(_frozen_block(m - cfg.learned_rows, n,
                                   derived_seed(cfg.seed, _SEED_FROZEN)))
    sketch = parts[0]
    for extra in parts[1:]:
        sketch = concat_sketches(sketch, extra)
    return _run_sgd(train_set, sketch, cfg)


def train_mixed_separate(train_set, m: int, cfg: TrainConfig) -> tuple[SparseSketch, TrainReport]:
    """Train a learned_rows x n sketch alone, then append a frozen random block."""
    n = _check_train_set(train_set)
    if not 1 <= cfg.learned_rows <= m:
        raise ValueError(f"learned_rows={cfg.learned_rows} outside [1, {m}]")
    trained, report = train_sketch(train_set, cfg.learned_rows, cfg)
    if m - cfg.learned_rows > 0:
        trained = concat_sketches(
            trained,
            _frozen_block(m - cfg.learned_rows, n, derived_seed(cfg.seed, _SEED_FROZEN)))
    return trained, report


def train(train_set, m: int, cfg: TrainConfig) -> tuple[SparseSketch, TrainReport]:
    """Dispatch on cfg.mode."""
    if cfg.mode == "learned":
        return train_sketch(train_set, m, cfg)
    if cfg.mode == "mixed_joint":
        return train_mixed_joint(train_set, m, cfg)
    return train_mixed_separate(train_set, m, cfg)


def report_to_csv(report: TrainReport, path) -> None:
    """Write the loss history as an iteration,loss CSV."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iteration,loss\n")
        for it, loss in report.loss_history:
            fh.write(f"{it},{loss!r}\n")

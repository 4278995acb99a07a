"""Lockstep SGD: the one step driver, for runs that share every shape.

At the sizes here an SGD step costs numpy's per-call overhead, not
arithmetic. So `trainer.train_many` steps each group of runs that share
the trained rows, k, batch size and iteration count together, and a
lone run as a group of one: one gather copies the step's batch x runs
train matrices, one put of the values into the runs' dense patterns and
one P @ A take every SA, and one `scw.sa_loss_and_grad_stack` the losses
and gradients, whose `linalg.stack_svd` calls build no rank mask or
non-finite flag (both None) unless a slice needs one. A group is laid
out once: a run that fails is frozen at its start, not taken out. Each
run keeps its batch stream, mask, lr and history, and gets the values and
history it gets alone; `train_many` scores the runs and loads this module
on first use.
"""

from __future__ import annotations

import numpy as np

from .linalg import non_finite
from .scw import sa_loss_and_grad_stack
from .sketch import grad_index
from .trainer import TrainingDivergedError, _batches


class Stack:
    """Sketches of one row count m over n columns, their stored values laid
    end to end, set up to take SA of `groups` matrices per sketch in one
    P @ A, each slice bit-equal to `sketch.apply_sketch`'s. `index` (groups,
    values) gathers each value's gradient from the (groups * R, m, n) dense
    gradients, by `grad_index`, and its first row puts the values into
    `pattern`, the (R, m, n) stack of the sketches' dense matrices.
    """

    def __init__(self, sketches, groups: int):
        m, n, count = sketches[0].m, sketches[0].n, len(sketches)
        self.owner = np.repeat(np.arange(count), [s.value_of.shape[0] for s in sketches])
        slot = self.owner * m + np.arange(groups)[:, None] * (count * m)  # (groups, values)
        self.index = np.concatenate([grad_index(s) for s in sketches]) + slot * n
        self.pattern = np.zeros((count, m, n))

    def sa(self, vals: np.ndarray, a: np.ndarray) -> np.ndarray:
        """SA of every slice of the (groups * R, n, d) stack a: vals put into
        the patterns, then one P @ A broadcast over the groups."""
        self.pattern.put(self.index[0], vals)
        count, n, d = self.pattern.shape[0], *a.shape[1:]
        out = self.pattern @ a.reshape(-1, count, n, d)
        return out.reshape(-1, *out.shape[2:])


def run_lockstep(mats: np.ndarray, sq_norms: np.ndarray, sketches, cfgs) -> list:
    """SGD for each sketch with its cfg, stepped at once over the (T, n, d)
    stack of finite train matrices with their (T,) ||A||_F^2: each run's
    (values, history) or error.

    The runs share the trained rows, k, batch size and iteration count;
    each keeps its batch stream, drawn once (`trainer._batches`), mask, lr
    and history. The values, and each step's gather index and ||A||_F^2,
    are laid out once. A run fails at its first failure in batch order, a
    slice whose SA or B is non-finite (ValueError) or a non-finite loss, or
    after the step at a non-finite value (TrainingDivergedError). It is
    then frozen at its start: its values are put back, its mask cleared and
    its lr zeroed (an inf lr would meet zero gradients as inf * 0), so its
    slices compute what nothing reads, and it fails only once. Each
    slice is computed on its own, so the rest keep the bytes they get alone.
    Losses are reduced to batch means at the end.
    """
    k, batch, iterations = cfgs[0].k, cfgs[0].batch_size, cfgs[0].iterations
    out = [None] * len(sketches)
    stack = Stack(sketches, batch)
    vals = np.concatenate([s.value_of for s in sketches])
    mask = np.concatenate([s.trainable_mask for s in sketches])
    lr = np.array([cfg.lr for cfg in cfgs], dtype=np.float64)[stack.owner]
    batches = np.stack([_batches(cfg, len(mats)) for cfg in cfgs], axis=2)  # (step, batch, run)
    slices = batches.reshape(iterations, batch * len(sketches))
    norms = sq_norms[slices]
    losses = np.empty(batches.shape)
    for step in range(iterations):
        a = mats.take(slices[step], axis=0)
        got, grads, bad = sa_loss_and_grad_stack(a, stack.sa(vals, a), k, norms[step])
        losses[step] = got.reshape(batch, -1)
        grad = np.add.reduce(grads.take(stack.index), axis=0)  # from +0.0, in batch order
        grad /= batch
        np.subtract(vals, np.multiply(lr, grad, out=grad), out=vals, where=mask)
        finite = np.isfinite(vals)
        if bad is None and np.count_nonzero(np.isfinite(got)) == got.size and \
                np.count_nonzero(finite) == finite.size:
            continue
        which, failed = batches[step], {}
        bad = np.zeros(which.shape, dtype=bool) if bad is None else bad.reshape(which.shape)
        fail = bad | ~np.isfinite(got).reshape(which.shape)
        for p in np.flatnonzero(fail.any(axis=0)):  # each run's first failure in batch order
            j = int(fail[:, p].argmax())
            failed[p] = non_finite("SVD input") if bad[j, p] else TrainingDivergedError(
                f"non-finite loss at iteration {step + 1} (matrix {which[j, p]}); lower lr")
        for p in np.flatnonzero(np.bincount(stack.owner[~finite], minlength=len(sketches))):
            failed.setdefault(p, TrainingDivergedError(
                f"non-finite sketch values after iteration {step + 1}; lower lr"))
        for p, exc in failed.items():
            if out[p] is None:
                out[p], frozen = exc, stack.owner == p
                vals[frozen], mask[frozen], lr[frozen] = sketches[p].value_of, False, 0.0
    bounds = np.cumsum([s.value_of.shape[0] for s in sketches])[:-1]
    for r, v in enumerate(np.split(vals, bounds)):
        if out[r] is None:
            means = np.ascontiguousarray(losses[:, :, r]).sum(axis=1) / batch  # as np.mean sums
            out[r] = v, list(zip(range(1, iterations + 1), means.tolist()))
    return out

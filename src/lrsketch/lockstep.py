"""Lockstep SGD: the one step driver, for runs that share every shape.

At the sizes here an SGD step costs numpy's per-call overhead, not
arithmetic. So `trainer.train_many` steps each group of runs that share
the trained rows, k, batch size and iteration count together, and a
lone run as a group of one: one np.bincount takes every run's SA and one
`scw.sa_loss_and_grad_stack` their losses and gradients. Each run keeps
its batch stream, mask, lr and history, and gets the values and history
it gets alone; `train_many` scores the runs itself. A step copies batch
x runs of the train matrices. `train_many` loads this module on first
use, so start-up does not compile it.
"""

from __future__ import annotations

import numpy as np

from .linalg import non_finite
from .scw import sa_loss_and_grad_stack
from .sketch import grad_index, scatter_index
from .trainer import TrainingDivergedError, _batches


class Stack:
    """Sketches of one row count m over n columns, their stored values laid
    end to end, set up to take SA of `groups` matrices per sketch in one
    np.bincount: slice g * R + r of the (groups * R, m, d) stack is sketch r
    times matrix which[g, r], and `blocks` the sketch of each block, whose
    matrix is which[g, blocks]. Each bin gets sketch r's additions in
    scatter_flat's order, so each slice is bit-equal to scatter_flat's.
    `index` gathers each value's gradient from the (groups * R, m, n) stack
    of dense gradients, group by group.
    """

    def __init__(self, sketches, d: int, groups: int):
        m, n, count = sketches[0].m, sketches[0].n, len(sketches)
        sizes = [s.value_of.shape[0] for s in sketches]
        self.owner = np.repeat(np.arange(count), sizes)  # sketch of each stored value
        self.blocks = np.repeat(np.arange(count), [len(s.blocks) for s in sketches])
        slot = self.owner * m  # first row of each value's sketch in a slice group
        shift = np.arange(groups)[:, None] * (count * m)
        rows = np.concatenate([s.row_of for s in sketches]) + slot
        self.flat = (scatter_index(rows, d) + shift * d).ravel()
        grads = np.concatenate([grad_index(s) for s in sketches]) + slot * n
        self.index = (grads + shift * n).ravel()
        self.shape, self.size = (groups * count, m, d), groups * count * m * d

    def sa(self, vals: np.ndarray, mats: np.ndarray, block_which: np.ndarray) -> np.ndarray:
        """SA of every slice, given block_which = which[:, blocks]: each block's
        matrix, gathered and scaled in place (value j of a block scales row j)."""
        weights = mats.take(block_which, axis=0)
        np.multiply(vals.reshape(len(self.blocks), mats.shape[1], 1), weights, out=weights)
        out = np.bincount(self.flat, weights.ravel(), minlength=self.size)
        return out.reshape(self.shape).astype(np.float64, copy=False)  # int64 with no values


def run_lockstep(mats: np.ndarray, sq_norms: np.ndarray, sketches, cfgs) -> list:
    """SGD for each sketch with its cfg, stepped at once over the (T, n, d)
    stack of train matrices with their (T,) ||A||_F^2: each run's (values,
    history) or error.

    The runs share the trained rows, k, batch size and iteration count;
    each keeps its batch stream, drawn once (`trainer._batches`), mask, lr
    and history. All runs' values stay in one array, laid out again only
    when a run drops out, and each step's losses go into one array, reduced
    to batch means after the last step. A run drops out at its first
    failure in batch order: a slice whose SA or B is non-finite
    (ValueError), or a non-finite loss; or after the step, a non-finite
    value (TrainingDivergedError).
    """
    k, batch, iterations = cfgs[0].k, cfgs[0].batch_size, cfgs[0].iterations
    out = [None] * len(sketches)
    draws = [_batches(cfg, len(mats)) for cfg in cfgs]
    losses = np.empty((iterations, len(sketches), batch))
    live, stack = list(range(len(sketches))), None
    vals = np.concatenate([s.value_of for s in sketches])
    for step in range(1, iterations + 1):
        if stack is None:  # laid out again when a run drops out
            if not live:
                break
            stack = Stack([sketches[r] for r in live], mats.shape[2], batch)
            mask = np.concatenate([sketches[r].trainable_mask for r in live])
            lr = np.array([cfgs[r].lr for r in live], dtype=np.float64)[stack.owner]
            batches = np.stack([draws[r] for r in live], axis=2)  # (step, batch, run)
            block_batches = batches[:, :, stack.blocks]
            cols = np.array(live) if len(live) < len(sketches) else slice(None)
        which = batches[step - 1]  # (batch, runs): each slice's matrix
        slices = which.ravel()
        got, grads, bad = sa_loss_and_grad_stack(mats.take(slices, axis=0), stack.sa(
            vals, mats, block_batches[step - 1]), k, sq_norms.take(slices))
        got, bad = got.reshape(batch, -1), bad.reshape(batch, -1)
        losses[step - 1][cols] = got.T
        grad = np.zeros(vals.shape[0])
        for row in grads.take(stack.index).reshape(batch, -1):  # in batch order
            grad += row
        grad /= batch
        vals = np.where(mask, vals - lr * grad, vals)
        failed, finite = {}, np.isfinite(vals)
        if np.count_nonzero(bad) or np.count_nonzero(np.isfinite(got)) < got.size:
            fail = bad | ~np.isfinite(got)
            for p in np.flatnonzero(fail.any(axis=0)):  # each run's first failure in batch order
                j = int(fail[:, p].argmax())
                failed[p] = non_finite("SVD input") if bad[j, p] else TrainingDivergedError(
                    f"non-finite loss at iteration {step} (matrix {which[j, p]}); lower lr")
        if np.count_nonzero(finite) < finite.size:
            for p in np.flatnonzero(np.bincount(stack.owner[~finite], minlength=len(live))):
                failed.setdefault(p, TrainingDivergedError(
                    f"non-finite sketch values after iteration {step}; lower lr"))
        if failed:  # the failed runs drop out, their values with them
            for p, exc in failed.items():
                out[live[p]] = exc
            vals = vals[~np.isin(stack.owner, list(failed))]
            live, stack = [r for p, r in enumerate(live) if p not in failed], None
    bounds = np.cumsum([sketches[r].value_of.shape[0] for r in live])[:-1]
    for r, v in zip(live, np.split(vals, bounds)):
        means = np.ascontiguousarray(losses[:, r]).sum(axis=1) / batch  # as np.mean sums
        out[r] = v, list(zip(range(1, iterations + 1), means.tolist()))
    return out

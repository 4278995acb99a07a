"""Lockstep SGD: runs that share every shape step through one stacked kernel.

At the sizes here an SGD step costs numpy's per-call overhead, not
arithmetic. So `trainer.train_many` steps a group of runs that share the
train set's shape, the trained rows, k, batch size and iteration count
together: one np.bincount takes every run's SA and one
`scw.sa_loss_and_grad_stack` their losses and gradients. Each run keeps
its batch stream, mask, lr and history, and gets the values and history
`trainer._sgd` gives it alone; `train_many` scores the runs itself. A
group holds one copy of the train set, and a step batch x runs copies
of its matrices. `train_many` loads this module on first use, so
start-up does not compile it.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import as_matrix, frobenius_norm
from .scw import sa_loss_and_grad_stack
from .sketch import grad_index, scatter_index
from .trainer import _attempt, _batches, _Run


class Stack:
    """Sketches of one row count m over n columns, their stored values laid
    end to end, set up to take SA of `groups` matrices per sketch in one
    np.bincount: slice g * R + r of the (groups * R, m, d) stack is sketch r
    times matrix which[g, r]. Each bin gets sketch r's additions in
    scatter_flat's order, so each slice is bit-equal to scatter_flat's.
    `index` gathers each value's gradient from the (groups * R, m, n) stack
    of dense gradients, group by group.
    """

    def __init__(self, sketches, d: int, groups: int):
        m, n, count = sketches[0].m, sketches[0].n, len(sketches)
        sizes = [s.value_of.shape[0] for s in sketches]
        self.owner = np.repeat(np.arange(count), sizes)  # sketch of each stored value
        self.col = np.arange(self.owner.shape[0]) % n  # its column: sizes are multiples of n
        self.bounds = np.cumsum(sizes)[:-1]
        slot = self.owner * m  # first row of each value's sketch in a slice group
        shift = np.arange(groups)[:, None] * (count * m)
        rows = np.concatenate([s.row_of for s in sketches]) + slot
        self.flat = (scatter_index(rows, d) + shift * d).ravel()
        grads = np.concatenate([grad_index(s) for s in sketches]) + slot * n
        self.index = (grads + shift * n).ravel()
        self.shape = (groups * count, m, d)

    def sa(self, vals: np.ndarray, mats: np.ndarray, which: np.ndarray) -> np.ndarray:
        weights = mats[which[:, self.owner], self.col]  # a gathered copy, scaled in place
        np.multiply(vals[:, None], weights, out=weights)
        out = np.bincount(self.flat, weights.ravel(), minlength=math.prod(self.shape))
        return out.reshape(self.shape).astype(np.float64, copy=False)  # int64 with no values


def _step(stack: Stack, mats, sq_norms, vals, mask, lr, which, k: int):
    """_Run.step of every run in stack at once, run r on the batch which[:, r],
    bit-equal: the new values laid end to end and each run's batch loss;
    None where a run's step would raise or truncate a rank."""
    batch, slices = len(which), which.ravel()
    got = sa_loss_and_grad_stack(mats[slices], stack.sa(vals, mats, which), k,
                                 sq_norms[slices])
    if got is None or not np.isfinite(got[0]).all():
        return None
    grad = np.zeros(vals.shape[0])
    for row in got[1].take(stack.index).reshape(batch, -1):  # in _Run.step's order
        grad += row
    grad /= batch
    vals = np.where(mask, vals - lr * grad, vals)
    if not np.isfinite(vals).all():
        return None
    return vals, np.ascontiguousarray(got[0].reshape(batch, -1).T).sum(axis=1) / batch


def run_lockstep(train_set, sketches, cfgs) -> list:
    """trainer._sgd for each sketch with its cfg, stepped at once over a train
    set of one shape: each run's (values, history) or error, bit-equal.

    The runs share the trained rows, k, batch size and iteration count;
    each keeps its batch stream, drawn once (`trainer._batches`), mask, lr
    and history. A step is one `_step`; where that returns None or raises,
    each run takes its own `_Run.step` on its batch, its `_Run` built the
    first time, and a run that fails drops out.
    """
    k, batch = cfgs[0].k, cfgs[0].batch_size
    mats = np.stack([as_matrix(a) for a in train_set])
    sq_norms = np.array([frobenius_norm(a) ** 2 for a in mats])
    out = [None] * len(sketches)
    parts = {r: s.value_of for r, s in enumerate(sketches)}  # each live run's values
    draws = {r: _batches(cfgs[r], len(mats)) for r in parts}
    runs = {}  # each run's _Run, built when it first steps alone
    history = {r: [] for r in parts}
    stack = None
    for step in range(1, cfgs[0].iterations + 1):
        if not parts:
            break
        if stack is None:  # laid out again when a run drops out
            stack = Stack([sketches[r] for r in parts], mats.shape[2], batch)
            mask = np.concatenate([sketches[r].trainable_mask for r in parts])
            lr = np.array([cfgs[r].lr for r in parts], dtype=np.float64)[stack.owner]
            batches = np.stack([draws[r] for r in parts], axis=2)  # (step, batch, run)
        which = batches[step - 1]  # (batch, runs): each slice's matrix
        got = _attempt(_step, stack, mats, sq_norms,
                       np.concatenate(list(parts.values())), mask, lr, which, k)
        if isinstance(got, tuple):
            steps = zip(np.split(got[0], stack.bounds), map(float, got[1]))
        else:
            steps = []
            for p, (r, v) in enumerate(parts.items()):
                if r not in runs:  # a healthy group builds no _Run
                    runs[r] = _Run(sketches[r], cfgs[r], (mats.shape[2],))
                steps.append(_attempt(runs[r].step, mats, sq_norms, v, which[:, p], step))
        for r, done in zip(list(parts), steps):
            if isinstance(done, Exception):
                out[r], stack = done, None
                del parts[r]
            else:
                parts[r], loss = done
                history[r].append((step, loss))
    for r, vals in parts.items():
        out[r] = vals, history[r]
    return out

"""Reverse-mode autodiff over a recorded list of primitive operations.

The Tape is a Wengert list: every primitive appends one node holding
its forward value and a closure that maps the node's output gradient to
gradient contributions for its parents. Nodes only ever reference
earlier nodes, so a single reverse sweep visits each node exactly once.
A computation that only needs values runs on a Tape too and reads them
with `value()`.
"""

from __future__ import annotations

import numpy as np

from .sketch import scatter_rows

# Divisors are clamped here; below the clamp the divisor is treated as
# constant (max-subgradient), so no gradient flows through it.
CLAMP = 1e-12


def _safe(x: float) -> float:
    return x if x > CLAMP else CLAMP


class Tape:
    """Recorded forward computation, replayable backward.

    Handles returned by the op methods are integer node ids. After the
    forward pass set `output` to the scalar loss node, then call
    `backward_values()` for d(loss)/d(leaf values).
    """

    def __init__(self):
        self._values: list = []
        self._vjps: list = []  # None for constants and the leaf
        self.leaf: int | None = None
        self.output: int | None = None

    def __len__(self) -> int:
        return len(self._values)

    def value(self, ix: int):
        return self._values[ix]

    def _push(self, value, vjp=None) -> int:
        self._values.append(value)
        self._vjps.append(vjp)
        return len(self._values) - 1

    # -- ops ----------------------------------------------------------------

    def const(self, x) -> int:
        return self._push(x)

    def leaf_values(self, values) -> int:
        ix = self._push(np.array(values, dtype=np.float64))
        self.leaf = ix
        return ix

    def sketch_apply(self, vals_ix, rows, m, a) -> int:
        """S @ a for the values at vals_ix, laid out as in scatter_rows."""
        out = scatter_rows(self._values[vals_ix], rows, m, a)
        n, d = a.shape

        def vjp(g):
            return [(vals_ix, np.sum(g[rows].reshape(-1, n, d) * a, axis=2).ravel())]

        return self._push(out, vjp)

    def matvec(self, a_ix, v_ix) -> int:
        a, v = self._values[a_ix], self._values[v_ix]
        out = a @ v

        def vjp(g):
            return [(a_ix, np.multiply.outer(g, v)), (v_ix, a.T @ g)]

        return self._push(out, vjp)

    def rmatvec(self, a_ix, w_ix) -> int:
        a, w = self._values[a_ix], self._values[w_ix]
        out = a.T @ w

        def vjp(g):
            return [(a_ix, np.multiply.outer(w, g)), (w_ix, a @ g)]

        return self._push(out, vjp)

    def normalize(self, z_ix) -> int:
        z = self._values[z_ix]
        nrm = float(np.linalg.norm(z))
        out = z / _safe(nrm)

        def vjp(g):
            if nrm > CLAMP:
                gz = g / nrm - z * (float(z @ g) / nrm**3)
            else:
                gz = g / CLAMP
            return [(z_ix, gz)]

        return self._push(out, vjp)

    def vec_norm(self, w_ix) -> int:
        w = self._values[w_ix]
        sig = float(np.linalg.norm(w))

        def vjp(g):
            return [(w_ix, (g / _safe(sig)) * w)]

        return self._push(sig, vjp)

    def scale_div(self, w_ix, sig_ix) -> int:
        w, sig = self._values[w_ix], self._values[sig_ix]
        safe = _safe(sig)
        out = w / safe

        def vjp(g):
            contrib = [(w_ix, g / safe)]
            if sig > CLAMP:
                contrib.append((sig_ix, -float(w @ g) / (safe * safe)))
            return contrib

        return self._push(out, vjp)

    def add_scaled_outer(self, m_ix, sig_ix, u_ix, v_ix, sign) -> int:
        m, sig = self._values[m_ix], self._values[sig_ix]
        u, v = self._values[u_ix], self._values[v_ix]
        out = m + (sign * sig) * np.multiply.outer(u, v)

        def vjp(g):
            gv_vec = g @ v
            return [(m_ix, g), (sig_ix, sign * float(u @ gv_vec)),
                    (u_ix, (sign * sig) * gv_vec), (v_ix, (sign * sig) * (g.T @ u))]

        return self._push(out, vjp)

    def stack_columns(self, col_ixs) -> int:
        cols = [self._values[ix] for ix in col_ixs]
        out = np.column_stack(cols)

        def vjp(g):
            return [(ix, g[:, j]) for j, ix in enumerate(col_ixs)]

        return self._push(out, vjp)

    def matmul_nt(self, r_ix, v_ix) -> int:
        r, v = self._values[r_ix], self._values[v_ix]
        out = r @ v.T

        def vjp(g):
            return [(r_ix, g @ v), (v_ix, g.T @ r)]

        return self._push(out, vjp)

    def residual_sumsq(self, a_ix, x_ix) -> int:
        a, x = self._values[a_ix], self._values[x_ix]
        diff = a - x
        out = float(np.sum(diff * diff))

        def vjp(g):
            return [(x_ix, (2.0 * g) * (x - a))]

        return self._push(out, vjp)

    # -- reverse sweep ------------------------------------------------------

    def backward_values(self) -> np.ndarray:
        """Single reverse pass; gradient w.r.t. every leaf value."""
        if self.output is None or self.leaf is None:
            raise RuntimeError("forward pass incomplete: output or leaf missing")
        grads: list = [None] * len(self._values)
        grads[self.output] = 1.0
        for ix in range(len(self._values) - 1, -1, -1):
            g = grads[ix]
            if g is None:
                continue
            vjp = self._vjps[ix]
            if vjp is None:
                continue
            for p_ix, pg in vjp(g):
                grads[p_ix] = pg if grads[p_ix] is None else grads[p_ix] + pg
            grads[ix] = None  # release; each node is consumed exactly once
        leaf_grad = grads[self.leaf]
        if leaf_grad is None:
            return np.zeros_like(self._values[self.leaf])
        return leaf_grad

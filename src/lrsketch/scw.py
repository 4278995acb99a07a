"""Sketch-then-SVD rank-k approximation (the SCW algorithm).

Given a sketch S and input A: take the right singular basis V of SA,
project A onto it, truncate to rank k, and report [AV]_k V^T. When two
sketches are stacked, the richer row space can only help; see
check_concat_dominance.

Each quantity has one kernel over stacks of slices, and a 2-D call is a
stack of one. Each slice has its own rank: `_sa_svd` and `_top` cut it
by masks, so a slice at full rank keeps the bytes it has alone. Neither
SVD takes the sign rule: each factor only meets its partner in products
where a column's sign cancels exactly (flipping (u_i, v_i) of SA negates
column i of B = AV, whose SVD then flips only B's right factor), so no
loss, gradient or approximation moves. `scw_approximate` applies the
sign rule to the V it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, frobenius_norm, non_finite, signed, stack_svd
from .sketch import (DenseSketch, SparseSketch, apply_sketch, apply_sketches, concat_sketches,
                     grad_index, require_fits)


@dataclass(frozen=True)
class ScwOutput:
    approx: np.ndarray  # rank <= k approximation of the input
    v_basis: np.ndarray  # orthonormal columns spanning the approx row space
    loss: float  # Frobenius distance to the input


def _t(x: np.ndarray) -> np.ndarray:
    """Each slice's .T of a stack: a view, as x.T is."""
    return x.swapaxes(-1, -2)


def _sa_svd(sa: np.ndarray):
    """`linalg.stack_svd` of an (R, m, d) stack of SA, each slice cut to its rank
    by masks: ((u, sigma, v), keep, bad) with V's columns past the rank zeroed
    and sigma there set to inf, so that dividing by it reads 0. A stack whose
    slices are all of full rank is left as LAPACK gave it."""
    (u, sigma, v), keep, bad = stack_svd(sa)
    if np.count_nonzero(keep) < keep.size:
        np.multiply(v, keep[:, None, :], out=v)
        sigma[~keep] = np.inf
    return (u, sigma, v), keep, bad


def _top(b: np.ndarray, k: int, compute_uv: bool = True):
    """`linalg.stack_svd` of an (R, n, r) stack of B = AV kept to each slice's
    top min(k, rank B) triples: (u, sigma, v) cut to min(k, r) columns, u and
    sigma zeroed past the slice's rank (sigma alone without compute_uv), and
    the (R,) flags of the non-finite slices."""
    got, keep, bad = stack_svd(b, compute_uv)
    top = keep[:, :k]
    u, sigma, v = ((got[0][..., :k], got[1][:, :k], got[2][..., :k]) if compute_uv
                   else (None, got[:, :k], None))
    if np.count_nonzero(top) < top.size:
        sigma *= top
        if compute_uv:
            u *= top[:, None, :]
    return ((u, sigma, v) if compute_uv else sigma), bad


def _finite(x: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """x with its non-finite entries zeroed if a slice is flagged in bad: a
    flagged slice's factors are zero, so no inf * 0 reaches a product."""
    return np.where(np.isfinite(x), x, 0.0) if np.count_nonzero(bad) else x


def _solve(a: np.ndarray, sa: np.ndarray, k: int):
    """The pipeline's two SVDs over (R, n, d) and (R, m, d) stacks of A and SA:
    (A, SA's factors and keep mask from `_sa_svd`, B = AV, B's top factors from
    `_top`, and the (R,) flags of the slices whose SA or B was non-finite, with
    `_finite` applied to A and B)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    f, keep, bad = _sa_svd(sa)
    a = _finite(a, bad)
    b = a @ f[2]
    fb, bad_b = _top(b, k)
    return a, f, keep, _finite(b, bad_b), fb, bad | bad_b


def _sq(sq_norms: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """max(||A||_F^2 - the sum of B's kept sigma^2, 0) of each slice."""
    return np.maximum(sq_norms - (sigma[:, None, :] @ sigma[:, :, None]).ravel(), 0.0)


def _approx(v: np.ndarray, fb) -> np.ndarray:
    """[AV]_k V^T of each slice from SA's V and B's top (u, sigma, v)."""
    ub, sb, vb = fb
    return ((ub * sb[..., None, :]) @ _t(vb)) @ _t(v)


def _grad_s(a: np.ndarray, f, b: np.ndarray, uk: np.ndarray) -> np.ndarray:
    """The dense dL/dS (R, m, n) from A, SA's (u, sigma, v), B and U_k."""
    u, sigma, v = f
    ua = _t(uk) @ a
    g_sa = (u / sigma[..., None, :]) @ (_t(b) @ uk) @ (ua - (ua @ v) @ _t(v))
    return -2.0 * (g_sa @ _t(a))


def scw_approximate(a, s: SparseSketch | DenseSketch, k: int) -> ScwOutput:
    """Run the sketch-and-solve pipeline: SA -> SVD -> [AV]_k V^T.

    v_basis is SA's V cut to its rank, with `linalg.svd`'s sign rule.
    """
    a = as_matrix(a)
    _, (u, sigma, v), keep, _, fb, bad = _solve(a[None], apply_sketch(s, a)[None], k)
    if bad[0]:
        raise non_finite("SVD input")
    approx = _approx(v, fb)[0]
    r = int(np.count_nonzero(keep))
    return ScwOutput(approx, signed(u[0, :, :r], sigma[0, :r], v[0, :, :r]).v,
                     frobenius_norm(a - approx))


def scw_loss(a, s: SparseSketch | DenseSketch, k: int) -> float:
    return scw_approximate(a, s, k).loss


def sa_loss_and_grad_stack(a: np.ndarray, sa: np.ndarray, k: int, sq_norms: np.ndarray):
    """The SGD step kernel over (R, n, d) and (R, m, d) float64 stacks of A and
    SA and the (R,) ||A||_F^2: (R,) squared losses, (R, m, n) dense gradients
    dL/dS and the (R,) flags of the slices whose SA or B was non-finite, whose
    loss and gradient mean nothing. It builds no approximation and no residual.
    Each slice has its own rank; a slice at full rank gives the bytes it gives
    alone in a stack of one.
    """
    a, f, _, b, (uk, sk, _), bad = _solve(a, sa, k)
    return _sq(sq_norms, sk), _grad_s(a, f, b, uk), bad


def _pass(mats, sketches, k: int, compute_uv: bool = True):
    """A scoring pass over matrices of one shape: of every slice t * R + i
    (sketch i on matrix t), SA's factors from one apply_sketches and one
    `_sa_svd`, B's top factors (sigma alone without compute_uv) from one
    `_top` of every B = AV, built per matrix with each A read in place, and
    the (T * R,) flags of the slices whose SA or B was non-finite."""
    f, _, bad = _sa_svd(apply_sketches(sketches, mats))
    count = len(sketches)
    v = f[2].reshape(len(mats), count, *f[2].shape[1:])
    b = np.concatenate([_finite(a, bad) @ v_t for a, v_t in zip(mats, v)])
    fb, bad_b = _top(b, k, compute_uv)
    return f, fb, bad | bad_b


def _scw_loss_pass(mats, sketches, k: int):
    """scw_losses of a `_pass`: each matrix's (R, n, d) residuals built and
    squared in place, and freed before the next matrix's are built."""
    f, fb, bad = _pass(mats, sketches, k)
    count = len(sketches)
    losses = np.empty(len(mats) * count)
    for t, a in enumerate(mats):
        at = slice(t * count, (t + 1) * count)
        res = _approx(f[2][at], [x[at] for x in fb])
        np.subtract(a, res, out=res)
        losses[at] = np.sqrt(np.sum(np.multiply(res, res, out=res), axis=(1, 2)))
        del res  # freed before the next matrix's is built
    return losses, bad


def _sq_loss_pass(mats, sketches, k: int, sq_norms: np.ndarray):
    """sq_losses of a `_pass` with one sigma-only SVD of every B."""
    _, sigma, bad = _pass(mats, sketches, k, compute_uv=False)
    return _sq(np.repeat(sq_norms, len(sketches)), sigma), bad


def _scores(mats, sketches, k: int, score) -> np.ndarray:
    """A (sketches, matrices) array from one score(matrix indices, sketches)
    pass per matrix shape over the sketches that fit it, which gives the scores
    and flags of its slices t * R + i. It raises what a loop over the slices,
    sketch by sketch, raises first: a sketch that does not fit the matrix,
    k < 1, or a non-finite SA or B."""
    out = np.empty((len(sketches), len(mats)))
    fail = np.not_equal.outer([s.n for s in sketches], [a.shape[0] for a in mats]) | (k < 1)
    shapes = {}
    for t, a in enumerate(mats):
        shapes.setdefault(a.shape, []).append(t)
    for ts in shapes.values() if k >= 1 else ():
        ids = np.flatnonzero(~fail[:, ts[0]])  # the sketches that fit these matrices
        if ids.size:
            got = score(ts, [sketches[i] for i in ids])
            out[ids[:, None], ts], fail[ids[:, None], ts] = (
                x.reshape(len(ts), ids.size).T for x in got)
    if np.count_nonzero(fail):
        i, t = divmod(int(fail.argmax()), len(mats))
        require_fits(sketches[i], mats[t])
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        raise non_finite("SVD input")
    return out


def scw_losses(mats, sketches, k: int) -> np.ndarray:
    """(sketches, matrices) array of scw_loss(a, s, k) for sketches of one row
    count, a slice at full rank bit-equal. The matrices of one shape take one
    `_pass` over the sketches that fit them, then each matrix's residuals;
    every slice, of any rank, is scored there.
    It raises what the loop of scw_loss calls, sketch by sketch, raises first."""
    mats = [as_matrix(a) for a in mats]
    return _scores(mats, sketches, k,
                   lambda ts, found: _scw_loss_pass([mats[t] for t in ts], found, k))


def sq_losses(mats, sketches, k: int, sq_norms) -> np.ndarray:
    """(sketches, matrices) array of max(||A||_F^2 - sum_{i <= min(k, rank B)}
    sigma_i(B)^2, 0), given each matrix's ||A||_F^2 in sq_norms, for sketches of
    one row count: scw_loss(a, s, k) ** 2 to about eps * ||A||_F^2, with no
    approximation or residual built. Passes and errors as in scw_losses, but
    each pass takes one sigma-only SVD of every B."""
    mats = [as_matrix(a) for a in mats]
    return _scores(mats, sketches, k, lambda ts, found: _sq_loss_pass(
        [mats[t] for t in ts], found, k, np.array([sq_norms[t] for t in ts])))


def scw_loss_and_grad(a, s: SparseSketch, k: int) -> tuple[float, np.ndarray]:
    """The squared loss and its gradient w.r.t. s's stored values.

    With SA = U Sigma V^T and U_k the top-k left basis of B = AV, the
    loss is ||A||^2 - ||U_k^T A V||^2 = ||A||^2 - sum_{i <= min(k, rank B)}
    sigma_i(B)^2, clamped at 0: scw_loss(a, s, k) ** 2 to about
    eps * ||A||^2. The projector derivative (Golub & Pereyra 1973) gives
    dL/d(SA) = -2 U Sigma^-1 (B^T U_k) U_k^T A (I - V V^T); value j of a
    block scales A[j] into its row. At rank 0 the gradient is zero.
    """
    a = as_matrix(a)
    losses, grads, bad = sa_loss_and_grad_stack(
        a[None], apply_sketch(s, a)[None], k, np.array([frobenius_norm(a) ** 2]))
    if bad[0]:
        raise non_finite("SVD input")
    return float(losses[0]), grads[0].take(grad_index(s))


def check_concat_dominance(a, s1: SparseSketch, s2: SparseSketch,
                           k: int) -> tuple[float, float]:
    """Losses with the stacked sketch [s1; s2] and with s1 alone.

    Stacking rows can only enlarge the row space of SA, so the first
    loss never exceeds the second (up to numerical slack); a violation
    is a bug.
    """
    loss_star = scw_loss(a, concat_sketches(s1, s2), k)
    loss_1 = scw_loss(a, s1, k)
    return loss_star, loss_1

"""Sketch-then-SVD rank-k approximation (the SCW algorithm).

Given a sketch S and input A: take the right singular basis V of SA,
project A onto it, truncate to rank k, and report [AV]_k V^T. When two
sketches are stacked, the richer row space can only help; see
check_concat_dominance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (as_matrix, frobenius_norm, full_rank, rank, singular_values, svd,
                     svd_stack, unsigned_svd, unsigned_svd_slices, unsigned_svd_stack)
from .sketch import (DenseSketch, SparseSketch, apply_sketch, apply_sketches, concat_sketches,
                     grad_index)


@dataclass(frozen=True)
class ScwOutput:
    approx: np.ndarray  # rank <= k approximation of the input
    v_basis: np.ndarray  # orthonormal columns spanning the approx row space
    loss: float  # Frobenius distance to the input


def _solve(a: np.ndarray, sa: np.ndarray, k: int, sa_svd=svd):
    """The two SVDs of the pipeline, given A and SA: (SA's factors, B = AV,
    B's factors, r = min(k, rank B)), with None for the last three when SA
    has rank 0. SA's SVD is sa_svd: `svd`, whose sign rule fixes the V that
    scw_approximate returns, or `unsigned_svd` in training, which returns
    no factor. B's takes no sign rule (`unsigned_svd`). Each factor of
    either SVD only meets its partner in products where a column's sign
    cancels exactly: flipping (u_i, v_i) of SA negates column i of B, whose
    SVD then flips only B's right factor, so no loss or gradient moves."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    f = sa_svd(sa)
    if f.rank == 0:
        return f, None, None, None
    b = a @ f.v  # n x r
    fb = unsigned_svd(b)
    return f, b, fb, min(k, fb.rank)


def _solve_stack(a: np.ndarray, sa: np.ndarray, k: int, sa_svd=svd_stack):
    """_solve over stacks of A and SA, with sa_svd `svd_stack` or
    `unsigned_svd_stack`; None unless each SA and B is finite and full-rank."""
    f = sa_svd(sa)
    b = None if f is None else a @ f.v
    fb = None if b is None else unsigned_svd_stack(b)
    return None if fb is None else (f, b, fb, min(k, fb.sigma.shape[1]))


def _t(x: np.ndarray) -> np.ndarray:
    """x.T for a matrix, each slice's .T for a stack: a view, as x.T is."""
    return x.swapaxes(-1, -2)


def _approx(f, fb, r: int) -> np.ndarray:
    """[AV]_r V^T from the factors of SA and of B = AV; 2-D or stacked."""
    return ((fb.u[..., :r] * fb.sigma[..., None, :r]) @ _t(fb.v[..., :r])) @ _t(f.v)


def _grad_s(a: np.ndarray, f, b: np.ndarray, uk: np.ndarray) -> np.ndarray:
    """The dense dL/dS (m x n) from A, SA's factors, B and U_k; 2-D or stacked."""
    ua = _t(uk) @ a
    g_sa = (f.u / f.sigma[..., None, :]) @ (_t(b) @ uk) @ (ua - (ua @ f.v) @ _t(f.v))
    return -2.0 * (g_sa @ _t(a))


def scw_approximate(a, s: SparseSketch | DenseSketch, k: int) -> ScwOutput:
    """Run the sketch-and-solve pipeline: SA -> SVD -> [AV]_k V^T."""
    a = as_matrix(a)
    f, _, fb, r = _solve(a, apply_sketch(s, a), k)
    if fb is None:
        zero = np.zeros_like(a)
        return ScwOutput(zero, np.zeros((a.shape[1], 0)), frobenius_norm(a))
    approx = _approx(f, fb, r)
    return ScwOutput(approx, f.v, frobenius_norm(a - approx))


def scw_loss(a, s: SparseSketch | DenseSketch, k: int) -> float:
    return scw_approximate(a, s, k).loss


def sa_loss_and_grad(a: np.ndarray, sa: np.ndarray, k: int, index: np.ndarray,
                     sq_norm: float) -> tuple[float, np.ndarray]:
    """scw_loss_and_grad's kernel, given a 2-D float64 A, SA, grad_index(S)
    and ||A||_F^2, which a run builds once; one SGD step runs it per
    sampled matrix. It builds no approximation and no residual.
    """
    f, b, fb, r = _solve(a, sa, k, unsigned_svd)
    if fb is None:
        return sq_norm, np.zeros(index.shape[0])
    sk = fb.sigma[:r]
    return max(sq_norm - float(sk @ sk), 0.0), _grad_s(a, f, b, fb.u[:, :r]).take(index)


def sa_loss_and_grad_stack(a: np.ndarray, sa: np.ndarray, k: int, sq_norms: np.ndarray):
    """sa_loss_and_grad over (R, n, d) and (R, m, d) stacks of A and SA and
    (R,) ||A||_F^2: (R,) losses and (R, m, n) dense gradients, each slice
    bit-equal to its own call; None unless every SA and B is finite and
    full-rank, where each slice must take sa_loss_and_grad's own path."""
    solved = _solve_stack(a, sa, k, unsigned_svd_stack)
    if solved is None:
        return None
    f, b, fb, r = solved
    sk = fb.sigma[:, None, :r]
    return np.maximum(sq_norms - (sk @ _t(sk)).ravel(), 0.0), _grad_s(a, f, b, fb.u[..., :r])


def scw_loss_stack(a: np.ndarray, sa: np.ndarray, k: int) -> np.ndarray | None:
    """scw_loss of each slice of stacks of A and SA, bit-equal; None as above.
    The residual is built and squared in place: one (R, n, d) array."""
    solved = _solve_stack(a, sa, k)
    if solved is None:
        return None
    f, _, fb, r = solved
    res = _approx(f, fb, r)
    np.subtract(a, res, out=res)
    return np.sqrt(np.sum(np.multiply(res, res, out=res), axis=(1, 2)))


def scw_losses(mats, sketches, k: int) -> np.ndarray:
    """(sketches, matrices) array of scw_loss(a, s, k), bit-equal, for sketches
    of one row count. Each matrix takes one scw_loss_stack over every sketch's
    SA and a broadcast view of itself; where that is None, or a sketch's n or k
    would make scw_loss raise, the matrix is scored sketch by sketch. The error
    raised is the one a loop over sketches, then matrices, raises first."""
    out = np.empty((len(sketches), len(mats)))
    alone = []
    for t, a in enumerate(mats):
        a = as_matrix(a)
        got = None
        if sketches and k >= 1 and all(s.n == a.shape[0] for s in sketches):
            sa = apply_sketches(sketches, a)
            got = scw_loss_stack(np.broadcast_to(a, sa.shape[:1] + a.shape), sa, k)
        if got is None:
            alone.append(t)
        else:
            out[:, t] = got
    for i, s in enumerate(sketches):  # matrices that succeed stacked raise for no sketch
        for t in alone:
            out[i, t] = scw_loss(mats[t], s, k)
    return out


def sa_sq_loss(a: np.ndarray, sa: np.ndarray, k: int, sq_norm: float) -> float:
    """The squared loss of sa_loss_and_grad from B = AV's singular values alone:
    max(||A||_F^2 - sum_{i <= min(k, rank B)} sigma_i(B)^2, 0), or ||A||_F^2
    when SA has rank 0, given a 2-D float64 A, SA and ||A||_F^2. SA's SVD takes
    no sign rule and B's no vectors; sq_losses's path for one slice."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    f = unsigned_svd(sa)
    if f.rank == 0:
        return sq_norm
    sigma = singular_values(a @ f.v)
    sk = sigma[:min(k, rank(sigma))]
    return max(sq_norm - float(sk @ sk), 0.0)


def sq_losses(mats, sketches, k: int) -> np.ndarray:
    """(sketches, matrices) array of sa_sq_loss(a, apply_sketch(s, a), k,
    ||A||_F^2), bit-equal, for sketches of one row count: scw_loss(a, s, k) ** 2
    to about eps * ||A||_F^2, with no approximation or residual built. The
    matrices of one shape take one pass: every sketch's SA of each
    (apply_sketches) in one unsigned_svd_slices, B = AV built per matrix, and
    one sigma-only SVD of every B. A slice non-finite or below full rank, in SA
    or in B, takes sa_sq_loss alone, as does every slice of a matrix whose
    rows some sketch's n does not fit, or of any matrix when k < 1; they run
    sketch by sketch, so the error raised is the one that loop raises first."""
    mats = [as_matrix(a) for a in mats]
    sq_norms = [frobenius_norm(a) ** 2 for a in mats]
    out = np.empty((len(sketches), len(mats)))
    alone = np.ones(out.shape, dtype=bool)
    shapes = {}
    for t, a in enumerate(mats):
        if sketches and k >= 1 and all(s.n == a.shape[0] for s in sketches):
            shapes.setdefault(a.shape, []).append(t)
    for ts in shapes.values():
        got = _sq_loss_pass([mats[t] for t in ts], sketches, k, [sq_norms[t] for t in ts])
        if got is not None:
            out[:, ts], alone[:, ts] = got
    for i, t in zip(*np.nonzero(alone)):  # sketch-major
        out[i, t] = sa_sq_loss(mats[t], apply_sketch(sketches[i], mats[t]), k, sq_norms[t])
    return out


def _sq_loss_pass(mats, sketches, k: int, sq_norms):
    """sq_losses over matrices of one shape that every sketch fits: (losses,
    alone), each (sketches, matrices), alone marking the slices to take again
    by sa_sq_loss; None when a slice of SA or B is non-finite. Slice
    t * R + i of each stack is sketch i on matrix t."""
    count = len(sketches)
    got = unsigned_svd_slices(np.concatenate([apply_sketches(sketches, a) for a in mats]))
    if got is None:
        return None
    f, full = got
    v = f.v.reshape(len(mats), count, *f.v.shape[1:])
    b = np.concatenate([a @ v_t for a, v_t in zip(mats, v)])  # reads each A in place
    if not (b.size and np.isfinite(b).all()):  # LAPACK may hang on a non-finite B
        return None
    sigma = np.linalg.svd(b, compute_uv=False)
    sk = sigma[:, None, :min(k, sigma.shape[1])]
    losses = np.maximum(np.repeat(sq_norms, count) - (sk @ _t(sk)).ravel(), 0.0)
    kept = full & full_rank(sigma)  # where r is min(k, cols), as sa_sq_loss takes it
    return losses.reshape(-1, count).T, ~kept.reshape(-1, count).T


def scw_loss_and_grad(a, s: SparseSketch, k: int) -> tuple[float, np.ndarray]:
    """The squared loss and its gradient w.r.t. s's stored values.

    With SA = U Sigma V^T and U_k the top-k left basis of B = AV, the
    loss is ||A||^2 - ||U_k^T A V||^2 = ||A||^2 - sum_{i <= min(k, rank B)}
    sigma_i(B)^2, clamped at 0: scw_loss(a, s, k) ** 2 to about
    eps * ||A||^2. The projector derivative (Golub & Pereyra 1973) gives
    dL/d(SA) = -2 U Sigma^-1 (B^T U_k) U_k^T A (I - V V^T); value j of a
    block scales A[j] into its row. At rank 0 the gradient is taken as zero.
    """
    a = as_matrix(a)
    return sa_loss_and_grad(a, apply_sketch(s, a), k, grad_index(s), frobenius_norm(a) ** 2)


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

"""Sketch-then-SVD rank-k approximation (the SCW algorithm).

Given a sketch S and input A: take the right singular basis V of SA,
project A onto it, truncate to rank k, and report [AV]_k V^T. When two
sketches are stacked, the richer row space can only help; see
check_concat_dominance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (SvdFactors, as_matrix, frobenius_norm, full_rank, rank, singular_values,
                     svd, svd_stack, unsigned_svd, unsigned_svd_slices, unsigned_svd_stack)
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


def _approx(v: np.ndarray, fb, r: int) -> np.ndarray:
    """[AV]_r V^T from SA's right factor V and the factors of B = AV; 2-D or stacked."""
    return ((fb.u[..., :r] * fb.sigma[..., None, :r]) @ _t(fb.v[..., :r])) @ _t(v)


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
    approx = _approx(f.v, fb, r)
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


def _residual_norms(a: np.ndarray, v: np.ndarray, fb, r: int) -> np.ndarray:
    """||A - [AV]_r V^T||_F of each slice, from stacked V and B's factors: A - the
    approximation built and squared in place, one (R, n, d) array, freed on return."""
    res = _approx(v, fb, r)
    np.subtract(a, res, out=res)
    return np.sqrt(np.sum(np.multiply(res, res, out=res), axis=(1, 2)))


def scw_loss_stack(a: np.ndarray, sa: np.ndarray, k: int) -> np.ndarray | None:
    """scw_loss of each slice of stacks of A and SA, bit-equal; None as
    sa_loss_and_grad_stack returns it."""
    solved = _solve_stack(a, sa, k)
    if solved is None:
        return None
    f, _, fb, r = solved
    return _residual_norms(a, f.v, fb, r)


def _groups(mats, sketches, k: int):
    """The indices of the finite matrices of each shape whose rows every sketch
    fits, one pass each; none when k < 1. Every other slice is scored alone."""
    groups = {}
    if sketches and k >= 1:
        for t, a in enumerate(mats):
            if all(s.n == a.shape[0] for s in sketches) and np.isfinite(a).all():
                groups.setdefault(a.shape, []).append(t)
    return groups.values()


def _finite_slices(x: np.ndarray) -> np.ndarray:
    """x with each slice that holds a NaN or an infinity set to zero: LAPACK may
    hang on such a slice, and as zero it is below full rank, so it is scored alone."""
    finite = np.isfinite(x).all(axis=(1, 2))
    return x if finite.all() else np.where(finite[:, None, None], x, 0.0)


def _unsigned_slices(x: np.ndarray):
    """unsigned_svd_slices of _finite_slices(x), which checks x for a
    non-finite slice only when unsigned_svd_slices has found one."""
    got = unsigned_svd_slices(x)
    return got if got is not None or x.size == 0 else unsigned_svd_slices(_finite_slices(x))


def _sa_pass(mats, sketches):
    """The part of a scoring pass over matrices of one shape that both scorers
    share: SA's unsigned factors of every slice t * R + i (sketch i on matrix
    t) from one apply_sketches and one unsigned_svd_slices, B = AV of each
    slice built per matrix (each A read in place) and the (T * R,) mask of the
    slices finite and of full rank in SA; None when SA or B is empty. SA's SVD
    takes no sign rule: each of its factors meets its partner only in products
    where a column's sign cancels exactly, [AV]_k V^T among them."""
    got = _unsigned_slices(apply_sketches(sketches, mats))
    if got is None:
        return None
    f, full = got
    v = f.v.reshape(len(mats), len(sketches), *f.v.shape[1:])
    b = np.concatenate([a @ v_t for a, v_t in zip(mats, v)])
    return None if b.size == 0 else (f, b, full)


def _by_sketch(x: np.ndarray, count: int) -> np.ndarray:
    """A (T * R,) array over slices t * R + i as (sketches, matrices)."""
    return x.reshape(-1, count).T


def scw_losses(mats, sketches, k: int) -> np.ndarray:
    """(sketches, matrices) array of scw_loss(a, s, k), bit-equal, for sketches
    of one row count. The finite matrices of one shape that every sketch fits
    take one pass (_sa_pass, then one unsigned_svd_slices of every B and each
    matrix's residuals, freed before the next matrix's are built). A slice
    non-finite or below full rank, in SA or in B, takes scw_loss alone, as does
    every slice of any other matrix, or of any matrix when k < 1; they run
    sketch by sketch, so the error raised is the one that loop raises first."""
    mats = [as_matrix(a) for a in mats]
    out = np.empty((len(sketches), len(mats)))
    alone = np.ones(out.shape, dtype=bool)
    for ts in _groups(mats, sketches, k):
        got = _scw_loss_pass([mats[t] for t in ts], sketches, k)
        if got is not None:
            out[:, ts], alone[:, ts] = got
    for i, t in zip(*np.nonzero(alone)):  # sketch-major
        out[i, t] = scw_loss(mats[t], sketches[i], k)
    return out


def _scw_loss_pass(mats, sketches, k: int):
    """scw_losses over matrices of one shape that every sketch fits: (losses,
    alone), each (sketches, matrices), alone marking the slices to take again
    by scw_loss; None when SA or B is empty."""
    got = _sa_pass(mats, sketches)
    if got is None:
        return None
    f, b, full = got
    fb, full_b = _unsigned_slices(b)
    r, count = min(k, fb.sigma.shape[1]), len(sketches)
    losses = np.empty((len(mats), count))
    for t, a in enumerate(mats):
        at = slice(t * count, (t + 1) * count)
        losses[t] = _residual_norms(a, f.v[at], SvdFactors(fb.u[at], fb.sigma[at], fb.v[at]), r)
    return losses.T, _by_sketch(~(full & full_b), count)


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
    to about eps * ||A||_F^2, with no approximation or residual built. Passes
    and lone slices as in scw_losses, but each pass takes one sigma-only SVD
    of every B, and a lone slice takes sa_sq_loss."""
    mats = [as_matrix(a) for a in mats]
    sq_norms = [frobenius_norm(a) ** 2 for a in mats]
    out = np.empty((len(sketches), len(mats)))
    alone = np.ones(out.shape, dtype=bool)
    for ts in _groups(mats, sketches, k):
        got = _sq_loss_pass([mats[t] for t in ts], sketches, k, [sq_norms[t] for t in ts])
        if got is not None:
            out[:, ts], alone[:, ts] = got
    for i, t in zip(*np.nonzero(alone)):  # sketch-major
        out[i, t] = sa_sq_loss(mats[t], apply_sketch(sketches[i], mats[t]), k, sq_norms[t])
    return out


def _sq_loss_pass(mats, sketches, k: int, sq_norms):
    """sq_losses over matrices of one shape that every sketch fits, as
    _scw_loss_pass is to scw_losses."""
    got = _sa_pass(mats, sketches)
    if got is None:
        return None
    _, b, full = got
    count = len(sketches)
    sigma = np.linalg.svd(_finite_slices(b), compute_uv=False)
    sk = sigma[:, None, :min(k, sigma.shape[1])]
    losses = np.maximum(np.repeat(sq_norms, count) - (sk @ _t(sk)).ravel(), 0.0)
    return _by_sketch(losses, count), _by_sketch(~(full & full_rank(sigma)), count)


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

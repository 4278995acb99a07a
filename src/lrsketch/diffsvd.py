"""Differentiable SVD by deflated power iteration, and the taped
sketch-to-loss forward pass.

Each singular triple comes from T rounds of v <- A^T A v / ||A^T A v||
followed by sigma = ||Av||, u = Av/sigma and deflation A <- A - sigma
u v^T. Running that chain on a Tape with the sketch's stored values as
the differentiable leaf yields the gradient of the squared
approximation loss with respect to those values.

The chain never truncates: its node count depends only on shapes, so
finite differencing and repeated forwards see the same computation.
The standalone `power_svd` runs the same chain on a Tape, reads its
values, and then drops trailing near-zero factors like a compact SVD
would. Training takes the closed-form gradient of the exact loss
(`scw.scw_loss_and_grad`); the taped chain is its oracle, and
`scw_power_loss` and `power_svd` are the oracles of the
finite-difference and Jacobi checks.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tape
from .linalg import PowerSvdConfig, SvdFactors, as_matrix
from .seeding import rng_from
from .sketch import SparseSketch

# Relative threshold below which power_svd drops trailing factors.
DEFLATION_TOL = 1e-12


def _init_vector(dim: int, seed: int, stream: int, index: int) -> np.ndarray:
    """Uniform-on-sphere start vector for factor `index` of SVD `stream`."""
    z = rng_from(seed, stream, index).standard_normal(dim)
    nrm = float(np.linalg.norm(z))
    if nrm == 0.0:
        z = np.zeros(dim)
        z[0] = 1.0
        return z
    return z / nrm


def _power_factors(tape: Tape, a_h, dim_cols: int, n_factors: int, cfg: PowerSvdConfig,
                   stream: int):
    """Extract n_factors (sigma, u, v) handle triples from matrix handle a_h."""
    triples = []
    a_cur = a_h
    for i in range(n_factors):
        v = tape.const(_init_vector(dim_cols, cfg.init_seed, stream, i))
        for _ in range(cfg.t_iters):
            w = tape.matvec(a_cur, v)
            z = tape.rmatvec(a_cur, w)
            v = tape.normalize(z)
        w = tape.matvec(a_cur, v)
        sig = tape.vec_norm(w)
        u = tape.scale_div(w, sig)
        a_cur = tape.add_scaled_outer(a_cur, sig, u, v, -1.0)
        triples.append((sig, u, v))
    return triples


def power_svd(a, cfg: PowerSvdConfig) -> SvdFactors:
    """SVD factors via deflated power iteration.

    Keeps the leading factors while sigma > 0 and, after the first,
    sigma >= DEFLATION_TOL * sigma_0. Each factor depends only on the
    ones before it, so the kept prefix is what an early stop would give.
    """
    a = as_matrix(a)
    n, d = a.shape
    tape = Tape()
    triples = []
    for t in _power_factors(tape, tape.const(a), d, min(n, d), cfg, stream=0):
        sig, u, v = (tape.value(h) for h in t)
        if sig <= 0.0 or (triples and sig < DEFLATION_TOL * triples[0][0]):
            break
        triples.append((sig, u, v))
    if not triples:
        return SvdFactors(np.zeros((n, 0)), np.zeros(0), np.zeros((d, 0)))
    u = np.column_stack([t[1] for t in triples])
    sigma = np.array([t[0] for t in triples], dtype=np.float64)
    v = np.column_stack([t[2] for t in triples])
    return SvdFactors(u=u, sigma=sigma, v=v)


def _scw_power_chain(tape: Tape, a: np.ndarray, s: SparseSketch, k: int,
                     cfg: PowerSvdConfig):
    """Record sketch -> SVD -> [AV]_k V^T -> squared loss on the tape."""
    n, d = a.shape
    vals = tape.leaf_values(s.value_of)
    sa = tape.sketch_apply(vals, s.row_of, s.m, a)
    r1 = min(s.m, d)
    tri1 = _power_factors(tape, sa, d, r1, cfg, stream=0)
    v_cols = [t[2] for t in tri1]
    v_mat = tape.stack_columns(v_cols)
    a_const = tape.const(a)
    av_cols = [tape.matvec(a_const, vc) for vc in v_cols]
    av = tape.stack_columns(av_cols)
    tri2 = _power_factors(tape, av, r1, min(k, r1, n), cfg, stream=1)
    rec = tape.const(np.zeros((n, r1)))
    for sig, u, v in tri2:
        rec = tape.add_scaled_outer(rec, sig, u, v, 1.0)
    approx = tape.matmul_nt(rec, v_mat)
    return tape.residual_sumsq(a_const, approx)


def scw_forward_with_tape(a, s: SparseSketch, k: int,
                          cfg: PowerSvdConfig) -> tuple[float, Tape]:
    """Taped forward pass; returns (squared loss, tape)."""
    a = as_matrix(a)
    if s.n != a.shape[0]:
        raise ValueError(f"sketch has n={s.n} but matrix has {a.shape[0]} rows")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    tape = Tape()
    tape.output = _scw_power_chain(tape, a, s, k, cfg)
    return float(tape.value(tape.output)), tape


def scw_power_loss(a, s: SparseSketch, k: int, cfg: PowerSvdConfig) -> float:
    """The squared loss of the taped forward pass, without its tape."""
    return scw_forward_with_tape(a, s, k, cfg)[0]


def backward(tape: Tape) -> np.ndarray:
    """Gradient of the taped loss w.r.t. the sketch's stored values."""
    return tape.backward_values()

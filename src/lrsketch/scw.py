"""Sketch-then-SVD rank-k approximation (the SCW algorithm).

Given a sketch S and input A: take the right singular basis V of SA,
project A onto it, truncate to rank k, and report [AV]_k V^T. When two
sketches are stacked, the richer row space can only help; see
check_concat_dominance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, best_rank_k, frobenius_norm, svd
from .sketch import DenseSketch, SparseSketch, apply_sketch, concat_sketches


@dataclass(frozen=True)
class ScwOutput:
    approx: np.ndarray  # rank <= k approximation of the input
    v_basis: np.ndarray  # orthonormal columns spanning the approx row space
    loss: float  # Frobenius distance to the input


def scw_approximate(a, s: SparseSketch | DenseSketch, k: int) -> ScwOutput:
    """Run the sketch-and-solve pipeline: SA -> SVD -> [AV]_k V^T."""
    a = as_matrix(a)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sa = apply_sketch(s, a)
    f = svd(sa)
    if f.rank == 0:
        zero = np.zeros_like(a)
        return ScwOutput(zero, np.zeros((a.shape[1], 0)), frobenius_norm(a))
    v = f.v  # d x r
    approx = best_rank_k(a @ v, k) @ v.T
    return ScwOutput(approx, v, frobenius_norm(a - approx))


def scw_loss(a, s: SparseSketch | DenseSketch, k: int) -> float:
    return scw_approximate(a, s, k).loss


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

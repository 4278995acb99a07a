"""Sparse and dense sketching matrices.

A SparseSketch is a stack of CountSketch-style blocks: each block maps
every column to exactly one row with a signed value, so a fresh random
sketch is a single block and concatenation of sketches just appends
blocks. The per-column trainable mask decides which values gradient
updates may touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import as_matrix, require_finite
from .seeding import rng_from


@dataclass(frozen=True, eq=False)
class SketchBlock:
    """One CountSketch block: column i hits row row_of[i] with value_of[i]."""

    m: int
    row_of: np.ndarray  # (n,) int64 in [0, m)
    value_of: np.ndarray  # (n,) float64
    trainable_mask: np.ndarray  # (n,) bool

    def __post_init__(self):
        n = self.row_of.shape[0]
        if self.value_of.shape[0] != n or self.trainable_mask.shape[0] != n:
            raise ValueError("block arrays must share length")
        if n and (self.row_of.min() < 0 or self.row_of.max() >= self.m):
            raise ValueError(f"row indices out of range [0, {self.m})")
        require_finite(self.value_of, "sketch values")


def _shared(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SparseSketch:
    """Vertical stack of one-nonzero-per-column blocks over n input rows.

    Stored values run block by block, and value j of each block sits in
    column j. The stacked arrays are built once per sketch, shared and
    read-only; with_values hands row_of and trainable_mask on to the
    sketch it returns.
    """

    n: int
    blocks: tuple[SketchBlock, ...]

    def __post_init__(self):
        for b in self.blocks:
            if b.row_of.shape[0] != self.n:
                raise ValueError(f"block has {b.row_of.shape[0]} columns, expected {self.n}")

    @property
    def m(self) -> int:
        return sum(b.m for b in self.blocks)

    @cached_property
    def row_of(self) -> np.ndarray:
        """Row index per stored value, in the stacked (offset) matrix."""
        parts, off = [], 0
        for b in self.blocks:
            parts.append(b.row_of + off)
            off += b.m
        return _shared(np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64))

    @cached_property
    def value_of(self) -> np.ndarray:
        parts = [b.value_of for b in self.blocks]
        return _shared(np.concatenate(parts) if parts else np.zeros(0))

    @cached_property
    def trainable_mask(self) -> np.ndarray:
        parts = [b.trainable_mask for b in self.blocks]
        return _shared(np.concatenate(parts) if parts else np.zeros(0, dtype=bool))

    def with_values(self, new_values: np.ndarray) -> "SparseSketch":
        """Same pattern and masks, stored values replaced (stacked order)."""
        vals = _shared(np.array(new_values, dtype=np.float64))
        if vals.shape[0] != self.n * len(self.blocks):
            raise ValueError("value vector length does not match sketch")
        out = SparseSketch(self.n, tuple(
            SketchBlock(b.m, b.row_of, vals[i * self.n:(i + 1) * self.n], b.trainable_mask)
            for i, b in enumerate(self.blocks)))
        vars(out).update(row_of=self.row_of, trainable_mask=self.trainable_mask,
                         value_of=vals)
        return out


@dataclass(frozen=True, eq=False)
class DenseSketch:
    """Dense Gaussian sketching matrix (for comparison baselines)."""

    matrix: np.ndarray

    def __post_init__(self):
        require_finite(self.matrix, "dense sketch")

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


def sparse_random_sketch(m: int, n: int, seed: int) -> SparseSketch:
    """CountSketch: uniform row per column, value +-1, all trainable."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    rng = rng_from(seed)
    row_of = rng.integers(0, m, size=n)
    value_of = rng.integers(0, 2, size=n) * 2.0 - 1.0
    mask = np.ones(n, dtype=bool)
    return SparseSketch(n, (SketchBlock(m, row_of, value_of, mask),))


def dense_random_sketch(m: int, n: int, seed: int) -> DenseSketch:
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    return DenseSketch(rng_from(seed).standard_normal((m, n)))


def identity_pattern_sketch(n: int) -> SparseSketch:
    """n x n sketch with row_of[i] = i and unit values (S = I)."""
    rows = np.arange(n, dtype=np.int64)
    return SparseSketch(n, (SketchBlock(n, rows, np.ones(n), np.ones(n, dtype=bool)),))


def empty_sketch(n: int) -> SparseSketch:
    """Sketch with zero rows; concatenating it is a no-op."""
    return SparseSketch(n, ())


def grad_index(s: SparseSketch) -> np.ndarray:
    """Flat index row_of[j] * n + j % n of each stored value in the m x n dL/dS,
    or in the m x n dense pattern `densify` puts the values into."""
    return (s.row_of.reshape(len(s.blocks), s.n) * s.n + np.arange(s.n)).ravel()


def scatter_rows(values: np.ndarray, rows: np.ndarray, m: int, a: np.ndarray) -> np.ndarray:
    """Accumulate values[j] * a[j % n] into output row rows[j], n = len(a).

    values and rows run block by block, n per block, and two values may hit
    one entry (the taped oracle's SA). One np.bincount over the flat output
    indices rows[j] * d + c: it adds the updates in ascending j from +0.0,
    so each output row accumulates in ascending column order, matching the
    per-value loop and the fixed-order `linalg.matmul` bit for bit.
    """
    n, d = a.shape
    weights = values.reshape(len(values) // max(n, 1), n, 1) * a  # n may be 0
    flat = (rows[:, None] * d + np.arange(d)).ravel()
    out = np.bincount(flat, weights=weights.ravel(), minlength=m * d)
    return out.reshape(m, d).astype(np.float64, copy=False)  # int64 when there are no values


def require_fits(s: SparseSketch | DenseSketch, a: np.ndarray) -> None:
    """ValueError unless s has a column for each row of the matrix a."""
    if s.n != a.shape[0]:
        raise ValueError(f"sketch has n={s.n} but matrix has {a.shape[0]} rows")


def densify(s: SparseSketch) -> np.ndarray:
    """The m x n matrix of a sparse sketch: value_of put at grad_index(s)."""
    out = np.zeros((s.m, s.n))
    out.put(grad_index(s), s.value_of)
    return out


def apply_sketch(s: SparseSketch | DenseSketch, a) -> np.ndarray:
    """S @ a: `apply_sketches` of the one sketch on the one matrix."""
    return apply_sketches([s], [as_matrix(a)])[0]


def apply_sketches(sketches, mats) -> np.ndarray:
    """S_i @ A_t of one or more sketches of one row count m on one or more
    matrices of one shape, 2-D float64 in C order as `as_matrix` returns them,
    as a (T * R, m, d) stack whose slice t * R + i is sketch i on matrix t.
    The (R, m, n) stack of the sketches' dense matrices (`densify`) is built
    once; each matrix then takes one BLAS P @ A, which BLAS takes slice by
    slice, so a slice has the bytes of its stack of one. A matrix holding a
    NaN or an infinity, which would meet P's zeros as 0 * inf, gets NaN."""
    (n, d), m = mats[0].shape, sketches[0].m
    if any(a.shape != (n, d) for a in mats):
        raise ValueError(f"matrices differ in shape: {sorted({a.shape for a in mats})}")
    p = np.zeros((len(sketches), m, n))
    for i, s in enumerate(sketches):
        if s.m != m:
            raise ValueError(f"sketch {i} has {s.m} rows, expected {m}")
        require_fits(s, mats[0])
        p[i] = s.matrix if isinstance(s, DenseSketch) else densify(s)
    out = np.empty((len(mats), len(sketches), m, d))
    for t, a in enumerate(mats):
        if np.count_nonzero(np.isfinite(a)) == a.size:  # the cheapest test at small sizes
            np.matmul(p, a, out=out[t])
        else:
            out[t] = np.nan
    return out.reshape(len(mats) * len(sketches), m, d)


def concat_sketches(s1: SparseSketch, s2: SparseSketch) -> SparseSketch:
    """Stack s2's rows below s1's; blocks are kept separate."""
    if s1.n != s2.n:
        raise ValueError(f"column counts differ: {s1.n} vs {s2.n}")
    return SparseSketch(s1.n, s1.blocks + s2.blocks)


def sketches_equal(a: SparseSketch, b: SparseSketch) -> bool:
    if a.n != b.n or len(a.blocks) != len(b.blocks):
        return False
    for x, y in zip(a.blocks, b.blocks):
        if x.m != y.m:
            return False
        if not (np.array_equal(x.row_of, y.row_of)
                and np.array_equal(x.value_of, y.value_of)
                and np.array_equal(x.trainable_mask, y.trainable_mask)):
            return False
    return True

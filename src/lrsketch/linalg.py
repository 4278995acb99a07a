"""Dense matrix arithmetic, the LAPACK `svd` and reference oracles.

Matrices are plain 2-D float64 numpy arrays in row-major order. Hot
paths use `svd`, `singular_values` (when no vectors are needed),
`stack_svd` (a stack of slices, each with its own rank) and `@`. The
reference SVD is a one-sided Jacobi iteration, independent of
LAPACK and of the power-method SVD, so they can cross-check each other.
`matmul` accumulates over the inner index in ascending order, which
makes it bit-reproducible against a naive triple loop. The power-method
SVD's `PowerSvdConfig` lives here, so a module that only passes one on
(the trainer) does not load the taped SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative threshold below which a singular value counts as zero.
RANK_TOL = 1e-10

_JACOBI_EPS = 1e-15
_JACOBI_MAX_SWEEPS = 60


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float64 C-order array."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={out.ndim}")
    return out


def require_finite(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """a, or ValueError if it holds a NaN or an infinity. Every LAPACK call here
    checks its input first, even where the caller has checked what it came from:
    LAPACK may not return at all on a non-finite matrix (numpy 2.4.6's
    np.linalg.svd of an 8x48 matrix holding one inf ran for over 120 s), so the
    check keeps a diverging run loud instead of hung."""
    if not np.isfinite(a).all():
        raise non_finite(what)
    return a


def non_finite(what: str) -> ValueError:
    """The error `require_finite` raises on what."""
    return ValueError(f"{what} contains non-finite entries")


@dataclass(frozen=True)
class SvdFactors:
    """Compact SVD: u (rows x r), sigma (r, nonincreasing > 0), v (cols x r)."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.sigma.shape[0])

    def reconstruct(self) -> np.ndarray:
        return matmul(self.u * self.sigma, self.v.T)


@dataclass(frozen=True)
class PowerSvdConfig:
    """Knobs of the power-iteration SVD (`diffsvd`, which re-exports this).

    t_iters: power iterations per singular triple.
    init_seed: seed for the start vectors (one fresh vector per factor).
    """

    t_iters: int = 100
    init_seed: int = 0

    def __post_init__(self):
        if self.t_iters < 1:
            raise ValueError("t_iters must be >= 1")


def matmul(a, b) -> np.ndarray:
    """Matrix product with fixed (ascending inner index) summation order."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += np.multiply.outer(a[:, k], b[k, :])
    return out


def orthonormal_basis(g: np.ndarray) -> np.ndarray:
    """Q of g's reduced QR, columns flipped so diag(R) is non-negative."""
    q, r = np.linalg.qr(g)
    sgn = np.sign(np.diag(r))
    sgn[sgn == 0] = 1.0
    return q * sgn


def frobenius_norm(a) -> float:
    a = as_matrix(a)
    return float(np.sqrt(np.sum(a * a)))


def _jacobi_tall(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi on a matrix with rows >= cols.

    Rotates column pairs of a working copy until all pairs are mutually
    orthogonal; accumulates the rotations into v. Returns (w, sigma, v)
    with w's columns orthogonal and sigma their norms (unsorted).
    """
    n, d = a.shape
    w = a.copy()
    v = np.eye(d)
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(d - 1):
            for q in range(p + 1, d):
                app = float(w[:, p] @ w[:, p])
                aqq = float(w[:, q] @ w[:, q])
                apq = float(w[:, p] @ w[:, q])
                if abs(apq) <= _JACOBI_EPS * np.sqrt(app * aqq):
                    continue
                rotated = True
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                if tau == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                wp = w[:, p].copy()
                w[:, p] = c * wp - s * w[:, q]
                w[:, q] = s * wp + c * w[:, q]
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
        if not rotated:
            break
    sigma = np.sqrt(np.sum(w * w, axis=0))
    return w, sigma, v


def _canonical(u, sigma, v) -> SvdFactors:
    """Truncate and sign-fix an SVD; the rules every SVD here shares.

    sigma must be non-increasing, as LAPACK returns it (reference_svd
    sorts first). Rank is the count of singular values above
    RANK_TOL * sigma[0]. Column signs are fixed so the largest-magnitude
    entry of each u column is positive; u and v come out Fortran-ordered.
    """
    return signed(*_ranked(u, sigma, v))


def rank(sigma: np.ndarray) -> int:
    """The rank rule: the count of the non-increasing singular values sigma
    above RANK_TOL * sigma[0]. At full rank, the common case, one comparison
    decides it."""
    if sigma.size and sigma[-1] > RANK_TOL * sigma[0]:
        return sigma.size
    smax = sigma[0] if sigma.size else 0.0
    return int(np.count_nonzero(sigma > RANK_TOL * smax)) if smax > 0.0 else 0


def _ranked(u, sigma, v):
    """(u, sigma, v) cut to rank(sigma); at full rank they come back uncut."""
    r = rank(sigma)
    return (u, sigma, v) if r == sigma.size else (u[:, :r], sigma[:r], v[:, :r])


def signed(u, sigma, v) -> SvdFactors:
    """The sign rule on ranked 2-D factors: Fortran-ordered u and v, each column
    pair flipped so the largest-magnitude entry (the first of equal ones) of
    the u column is positive."""
    if sigma.size:
        flip = np.copysign(1.0, u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])])
        u, v = np.multiply(u, flip, order="F"), np.multiply(v, flip, order="F")
    return SvdFactors(u=u, sigma=sigma, v=v)


def svd(a) -> SvdFactors:
    """Compact SVD by LAPACK, with reference_svd's rank and sign rules."""
    a = as_matrix(a)
    require_finite(a, "SVD input")
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    return _canonical(u, sigma, vt.T)


def stack_svd(x: np.ndarray, compute_uv: bool = True):
    """The SVD of each slice of an (R, rows, cols) float64 stack in one LAPACK
    call, uncut and without the sign rule: ((u, sigma, v), keep, bad), u (R,
    rows, r), sigma (R, r) and v (R, cols, r), r = min(rows, cols), each slice
    of u and v Fortran-ordered as `svd` lays them out; without compute_uv,
    (sigma, keep, bad). keep marks the singular values the rank rule keeps, a
    prefix of each row. bad marks the slices holding a NaN or an infinity: they
    are zeroed before LAPACK sees them (see `require_finite`), so come back of
    rank 0, for the caller to raise `non_finite("SVD input")` on."""
    finite, bad = np.isfinite(x), np.zeros(len(x), dtype=bool)
    if np.count_nonzero(finite) < x.size:  # count_nonzero: the cheapest test at small sizes
        bad = ~finite.all(axis=(1, 2))
        x = np.where(bad[:, None, None], 0.0, x)
    if not compute_uv:
        sigma = np.linalg.svd(x, compute_uv=False)
        return sigma, sigma > RANK_TOL * sigma[:, :1], bad
    u, sigma, vt = np.linalg.svd(x, full_matrices=False)
    u = u.swapaxes(1, 2).copy().swapaxes(1, 2)  # Fortran slices; vt's transpose is already
    return (u, sigma, vt.swapaxes(1, 2)), sigma > RANK_TOL * sigma[:, :1], bad


def singular_values(a) -> np.ndarray:
    """All singular values by LAPACK, non-increasing, without vectors or rank rule."""
    return np.linalg.svd(require_finite(as_matrix(a), "SVD input"), compute_uv=False)


def reference_svd(a) -> SvdFactors:
    """Compact SVD by one-sided Jacobi iteration: the oracle for `svd`."""
    a = as_matrix(a)
    require_finite(a, "SVD input")
    transposed = a.shape[1] > a.shape[0]
    w, sigma, v = _jacobi_tall(a.T.copy() if transposed else a)
    u = w / np.where(sigma > 0.0, sigma, 1.0)
    if transposed:
        u, v = v, u
    order = np.argsort(-sigma, kind="stable")
    return _canonical(u[:, order], sigma[order], v[:, order])


def best_rank_k(a, k: int) -> np.ndarray:
    """Truncated-SVD reconstruction from the top min(k, rank) triples.

    The oracle for Eckart-Young scoring: no hot path builds it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    a = as_matrix(a)
    f = svd(a)
    r = min(k, f.rank)
    if r == 0:
        return np.zeros_like(a)
    return (f.u[:, :r] * f.sigma[:r]) @ f.v[:, :r].T

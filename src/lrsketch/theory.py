"""Single-row sketches in spectral coordinates.

With one sketch row, the whole pipeline reduces to picking a unit
vector s: the quality of the pick depends only on the alignments
<s, U_i> against each matrix's left singular vectors and the singular
values. This module scores candidate vectors (full and top-component
objectives), estimates how well a uniformly random vector does compared
to the stable rank, flags directions whose objective denominator is
fragile, and searches a discretized sphere for the best robust
direction.

Profiles carry (singular values, left basis) directly instead of full
matrices; everything here depends only on those. A family of profiles
of one shape is one stacked SpectralProfile, and every objective comes
from one kernel, `_objective_values`, that broadcasts over the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, frobenius_norm, orthonormal_basis, singular_values
from .seeding import derived_seed, rng_from

# Denominators below this are treated as degenerate.
DEGENERATE_DENOM = 1e-15

_MC_CHUNK = 20000
_GRID_BUDGET = 10**7
# A uniformly random direction achieves expected objective on the order of
# 1 / stable rank, so (mean objective x stable rank) should stay above this.
LEMMA_BOUND = 1.0 / 20.0
# The planted 2-D family (see planted_profile_family).
PLANTED_ANGLE = 0.4
PLANTED_JITTER = 0.5
PLANTED_LAM2 = (0.3, 0.7)


class DegenerateDirectionError(ValueError):
    """Objective denominator vanished for this direction."""


@dataclass(frozen=True, eq=False)
class SpectralProfile:
    """Spectrum and left singular basis of one matrix, or of a stack of them.

    sigma: (..., r) positive, nonincreasing along r. u_basis: (..., dim, r)
    orthonormal columns. Leading axes, if any, index the profiles of a
    family; without them the profile is a family of one. Distribution
    generators normalize so sigma[..., 0] == 1; hand built profiles (e.g.
    fragility counterexamples) may deviate.
    """

    sigma: np.ndarray
    u_basis: np.ndarray

    def __post_init__(self):
        if self.sigma.ndim < 1 or self.u_basis.ndim != self.sigma.ndim + 1 \
                or self.u_basis.shape[:-2] + self.u_basis.shape[-1:] != self.sigma.shape:
            raise ValueError("u_basis must be (..., dim, r) for sigma (..., r)")
        if not (np.isfinite(self.sigma).all() and np.isfinite(self.u_basis).all()):
            raise ValueError("sigma and u_basis must be finite")
        if self.sigma.size and (not np.all(self.sigma > 0)
                                or np.any(np.diff(self.sigma, axis=-1) > 1e-12)):
            raise ValueError("sigma must be positive and nonincreasing")

    @property
    def dim(self) -> int:
        return self.u_basis.shape[-2]

    @property
    def count(self) -> int:
        """Number of profiles: the product of the leading axes."""
        return math.prod(self.sigma.shape[:-1])

    def __iter__(self):
        """The single profiles, leading axes flattened in row-major order."""
        r = self.sigma.shape[-1]
        return map(SpectralProfile, self.sigma.reshape(-1, r),
                   self.u_basis.reshape(-1, self.dim, r))

    def stable_rank(self):
        """Per-profile stable rank: a float, or an array over the leading axes."""
        return (np.sum(self.sigma**2, axis=-1) / self.sigma[..., 0] ** 2)[()]


def require_normalized(p: SpectralProfile) -> SpectralProfile:
    """Check sigma[..., 0] == 1 (1e-9) and orthonormal columns (1e-8)."""
    top = p.sigma[..., 0]
    off = top[np.abs(top - 1.0) > 1e-9]
    if off.size:
        raise ValueError(f"profile top singular value is {off[0]}, expected 1")
    gram = np.swapaxes(p.u_basis, -1, -2) @ p.u_basis
    if np.any(np.abs(gram - np.eye(p.sigma.shape[-1])) > 1e-8):
        raise ValueError("u_basis columns are not orthonormal")
    return p


def stable_rank(a) -> float:
    """Squared Frobenius-to-operator norm ratio of a matrix."""
    a = as_matrix(a)
    sigma = singular_values(a)
    if not sigma.size or sigma[0] <= 0.0:
        raise ValueError("stable rank of a zero matrix is undefined")
    return (frobenius_norm(a) / sigma[0]) ** 2


def _objective_values(grid: np.ndarray, p: SpectralProfile):
    """Full objectives, simplified objectives and denominators, (..., G).

    Row g of `grid` (G, dim) scored on every profile of the stack `p`.
    Degenerate denominators yield objective value 0.
    """
    c2 = (grid @ p.u_basis) ** 2
    lam2 = (p.sigma**2)[..., None]
    den = (c2 @ lam2)[..., 0]
    num_full = (c2 @ (lam2 * lam2))[..., 0]
    ok = den >= DEGENERATE_DENOM
    safe_den = np.where(ok, den, 1.0)
    full = np.where(ok, num_full / safe_den, 0.0)
    simp = np.where(ok, c2[..., 0] / safe_den, 0.0)
    return full, simp, den


def _at_direction(s, profiles: SpectralProfile):
    """_objective_values of one unit direction s, one value per profile."""
    s = np.asarray(s, dtype=np.float64)
    if abs(float(np.linalg.norm(s)) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    if profiles.count == 0:
        raise ValueError("empty profile set")
    return tuple(v[..., 0] for v in _objective_values(s[None, :], profiles))


def _nondegenerate(values: np.ndarray, den: np.ndarray):
    """values, a float for a single profile; raises on a degenerate denominator."""
    if np.any(den < DEGENERATE_DENOM):
        raise DegenerateDirectionError(f"denominator {den.min()} below {DEGENERATE_DENOM}")
    return values[()]


def full_objective(s, profile: SpectralProfile):
    """Weighted alignment ratio sum(l^4 c^2) / sum(l^2 c^2) per profile; 1 at s = U_1."""
    full, _, den = _at_direction(s, profile)
    return _nondegenerate(full, den)


def simplified_objective(s, profile: SpectralProfile):
    """Top-component share c_1^2 / sum(l^2 c^2), per profile."""
    _, simp, den = _at_direction(s, profile)
    return _nondegenerate(simp, den)


def random_unit_vector(d: int, seed: int) -> np.ndarray:
    """Uniform on the (d-1)-sphere: normalized standard normal draw."""
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = rng_from(seed)
    while True:
        z = rng.standard_normal(d)
        nrm = float(np.linalg.norm(z))
        if nrm > 0:
            return z / nrm


def objective_means(profile: SpectralProfile, samples: int, seed: int) -> tuple:
    """Monte Carlo means (full, simplified) over uniform sphere directions.

    Per profile, every profile of a stack scored on the same directions.
    Draws happen in fixed-size chunks with per-chunk seeds, so the
    estimate is reproducible and chunks could run in parallel.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    total_full = 0.0
    total_simp = 0.0
    done = 0
    chunk_ix = 0
    while done < samples:
        count = min(_MC_CHUNK, samples - done)
        z = rng_from(seed, chunk_ix).standard_normal((count, profile.dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        full, simp, _ = _objective_values(z, profile)
        total_full = total_full + np.sum(full, axis=-1)
        total_simp = total_simp + np.sum(simp, axis=-1)
        done += count
        chunk_ix += 1
    return total_full / samples, total_simp / samples


def lemma_means(profiles, samples: int, seed: int) -> list[tuple[float, float, float]]:
    """(stable rank, full mean, simplified mean) per normalized profile."""
    out = []
    for j, p in enumerate(profiles):
        require_normalized(p)
        out.append((p.stable_rank(), *objective_means(p, samples, derived_seed(seed, j))))
    return out


def worst_lemma_product(means) -> float:
    """Smallest (mean objective x stable rank) over lemma_means output."""
    return min((min(simp * rp, full * rp) for rp, full, simp in means), default=math.inf)


def verify_stable_rank_lemma(profiles, samples: int, seed: int) -> tuple[float, float]:
    """(worst mean objective x stable rank over the profiles, LEMMA_BOUND)."""
    return worst_lemma_product(lemma_means(profiles, samples, seed)), LEMMA_BOUND


def discretize_sphere(d: int, eps: float) -> np.ndarray:
    """Cube-grid directions: spacing eps/sqrt(d), projected and deduplicated.

    Every point of the unit sphere lies within eps of some returned
    direction. Rows come back unit-norm and lexicographically sorted.
    """
    if d < 1 or not (math.isfinite(eps) and eps > 0):
        raise ValueError("need d >= 1 and finite eps > 0")
    h = eps / np.sqrt(d)
    half = int(np.ceil(1.0 / h))
    per_axis = 2 * half + 1
    if per_axis**d > _GRID_BUDGET:
        raise ValueError(f"grid of {per_axis}^{d} points exceeds budget {_GRID_BUDGET}")
    axis = np.arange(-half, half + 1) * h
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    norms = np.linalg.norm(pts, axis=1)
    pts = pts[norms > 0]
    dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    _, first = np.unique(np.round(dirs, 12), axis=0, return_index=True)
    dirs = dirs[np.sort(first)]
    # lexicographic row order (first coordinate is the primary key)
    return dirs[np.lexsort(np.round(dirs, 12).T[::-1])]


def robustness_fraction(s, profiles: SpectralProfile, delta: float) -> float:
    """Fraction of profiles whose objective denominator falls below delta."""
    _, _, den = _at_direction(s, profiles)
    return int(np.count_nonzero(den < delta)) / den.size


def empirical_losses(s, train: SpectralProfile,
                     holdout: SpectralProfile) -> tuple[float, float, float]:
    """Negative mean full objective on each set, and holdout - train gap.

    Degenerate denominators contribute objective 0 (the worst case for
    this sign convention) rather than raising.
    """
    tr, ho = (-float(np.mean(_at_direction(s, p)[0])) for p in (train, holdout))
    return tr, ho, ho - tr


@dataclass(frozen=True)
class RobustnessParams:
    rho: float
    delta: float
    eps_grid: float = 0.05

    def __post_init__(self):
        # written so that NaN fails each range check
        if not 0 <= self.rho <= 1:
            raise ValueError("rho must be in [0, 1]")
        if not self.delta > 0:
            raise ValueError("delta must be positive")
        if not (math.isfinite(self.eps_grid) and self.eps_grid > 0):
            raise ValueError("eps_grid must be finite and positive")


@dataclass(frozen=True)
class RobustSearchResult:
    s: np.ndarray | None  # None when no grid point is robust
    train_loss: float | None
    feasible_count: int

    @property
    def feasible(self) -> bool:
        return self.s is not None


def grid_search_robust_minimizer(train: SpectralProfile,
                                 params: RobustnessParams) -> RobustSearchResult:
    """Best robust direction on the discretized sphere.

    Feasible points have denominator < delta on at most a rho fraction
    of the train profiles; among them the empirical loss minimizer
    wins, ties going to the lexicographically smallest vector. Profiles
    are scored in slices of at most _MC_CHUNK (direction, profile) pairs,
    or one profile, and summed one at a time in order.
    """
    if train.count == 0:
        raise ValueError("empty train set")
    grid = discretize_sphere(train.dim, params.eps_grid)
    r = train.sigma.shape[-1]
    sigma, u_basis = train.sigma.reshape(-1, r), train.u_basis.reshape(-1, train.dim, r)
    step = max(1, _MC_CHUNK // grid.shape[0])
    obj_sum = np.zeros(grid.shape[0])
    bad = np.zeros(grid.shape[0], dtype=np.int64)
    for lo in range(0, train.count, step):
        part = SpectralProfile(sigma[lo:lo + step], u_basis[lo:lo + step])
        full, _, den = _objective_values(grid, part)
        for row in full:
            obj_sum += row
        bad += np.sum(den < params.delta, axis=0)
    feasible = bad / train.count <= params.rho
    if not np.any(feasible):
        return RobustSearchResult(None, None, 0)
    losses = -obj_sum / train.count
    masked = np.where(feasible, losses, np.inf)
    best = int(np.argmin(masked))  # grid is lexicographically sorted; first min wins
    return RobustSearchResult(grid[best].copy(), float(losses[best]),
                              int(np.sum(feasible)))


# ---------------------------------------------------------------------------
# profile families
# ---------------------------------------------------------------------------

def random_profile(dim: int, seed: int) -> SpectralProfile:
    """Square normalized profile with geometric spectrum, random basis."""
    rng = rng_from(seed)
    decay = rng.uniform(0.1, 1.0)
    return SpectralProfile(decay ** np.arange(dim),
                           orthonormal_basis(rng.standard_normal((dim, dim))))


def flat_profile(dim: int, seed: int) -> SpectralProfile:
    """All singular values equal to 1; stable rank == dim."""
    rng = rng_from(seed)
    return SpectralProfile(np.ones(dim),
                           orthonormal_basis(rng.standard_normal((dim, dim))))


def planted_profile_family(count: int, seed: int) -> SpectralProfile:
    """Stack of `count` 2-D profiles: basis rotated by the angle
    PLANTED_ANGLE + PLANTED_JITTER * N(0, 1), spectrum (1, lam2) with lam2
    uniform on PLANTED_LAM2."""
    rng = rng_from(seed)
    theta, lam2 = np.empty(count), np.empty(count)
    for i in range(count):
        theta[i] = PLANTED_ANGLE + PLANTED_JITTER * rng.standard_normal()
        lam2[i] = rng.uniform(*PLANTED_LAM2)
    cos, sin = np.cos(theta), np.sin(theta)
    u = np.stack([cos, -sin, sin, cos], axis=-1).reshape(count, 2, 2)
    return SpectralProfile(np.stack([np.ones(count), lam2], axis=-1), u)


def fragile_counterexample(eps: float = 0.01):
    """2-D direction that aces rank-1 training data but has a fragile denominator.

    Returns (s, train_profiles, adversarial_profile): on the rank-1
    train profiles (a stack of one) s scores a perfect objective yet its
    denominator is eps^2, and the adversarial profile drives its
    objective near zero. The adversarial spectrum (sqrt(1 - 100 eps^2),
    10 eps) is real and nonincreasing only for eps in (0, 1/sqrt(200)].
    """
    if not 0 < eps <= 1.0 / np.sqrt(200.0):
        raise ValueError(f"eps must be in (0, 1/sqrt(200)], got {eps}")
    s = np.array([eps, np.sqrt(1.0 - eps * eps)])
    train = SpectralProfile(np.ones((1, 1)), np.array([[[1.0], [0.0]]]))
    adv_sig = np.array([np.sqrt(1.0 - 100.0 * eps * eps), 10.0 * eps])
    return s, train, SpectralProfile(adv_sig, np.eye(2))


def generalization_gap_sweep(n_values, splits: int, holdout_count: int,
                             params: RobustnessParams, seed: int):
    """Mean |holdout - train| loss gap of the robust minimizer vs train size.

    For each N, draws `splits` fresh train/holdout pairs from the same
    2-D planted family, grid-searches the robust minimizer on train and
    records the absolute loss gap. Returns [(N, mean gap), ...].
    """
    out = []
    for n_ix, n_train in enumerate(n_values):
        gaps = []
        for split in range(splits):
            tr = planted_profile_family(n_train, derived_seed(seed, n_ix, split, 0))
            ho = planted_profile_family(holdout_count, derived_seed(seed, n_ix, split, 1))
            res = grid_search_robust_minimizer(tr, params)
            if not res.feasible:
                raise RuntimeError(f"no robust direction for N={n_train}, split={split}")
            _, _, gap = empirical_losses(res.s, tr, ho)
            gaps.append(abs(gap))
        out.append((n_train, float(np.mean(gaps))))
    return out

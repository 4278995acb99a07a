"""Synthetic datasets, evaluation metrics, and experiment sweeps.

Every matrix is scaled so its top singular value is 1 before anything
else happens. A sketch's quality on a test set is its mean
approximation loss minus the unavoidable optimum ("excess error"): zero
means the sketch costs nothing over exact truncated SVD.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .linalg import as_matrix, orthonormal_basis, singular_values
from .formats import atomic_open, load_matrix
from .scw import scw_loss, scw_losses
from .seeding import derived_seed, rng_from
from .sketch import dense_random_sketch, sparse_random_sketch
from .trainer import TrainConfig, train_many

SKETCH_TYPES = ("sparse_random", "dense_random", "learned", "mixed_j", "mixed_s")
# trainer mode behind each trainable sketch type
TRAIN_MODES = {"learned": "learned", "mixed_j": "mixed_joint", "mixed_s": "mixed_separate"}

# seed tag for per-trial randomness inside run_experiment
_SEED_TRIAL = 5

# |sigma_1 - 1| up to which a matrix counts as normalized. After a / sigma_1,
# LAPACK put sigma_1 at most 5 eps from 1 on 3,180 generated matrices (all
# three synthetic kinds, 12x10 to 512x256); this leaves 6x headroom.
UNIT_SIGMA_TOL = 32 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class DatasetSpec:
    """Declarative description of one matrix distribution.

    kinds:
      spiked                 shared low-rank subspaces, jittered per sample
      lowrank_plus_noise     fresh independent subspaces per sample
      rotated_shared_subspace  shared left basis rotated by a per-sample angle
      files                  load from a manifest of DMAT1/CSV files
    """

    name: str
    kind: str
    n: int = 0
    d: int = 0
    count_train: int = 1
    count_test: int = 1
    spikes: int = 4
    decay: float = 0.8
    noise: float = 0.1
    drift: float = 0.1
    seed: int = 0
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("spiked", "lowrank_plus_noise",
                             "rotated_shared_subspace", "files"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.kind != "files":
            if self.n < 1 or self.d < 1:
                raise ValueError("dimensions must be >= 1")
            if self.count_train < 1 or self.count_test < 1:
                raise ValueError("matrix counts must be >= 1")
            if not all(map(math.isfinite, (self.decay, self.noise, self.drift))):
                raise ValueError("decay, noise and drift must be finite")
            if self.spikes < 1 or self.noise < 0 or self.decay <= 0:
                raise ValueError("invalid spike/noise/decay parameters")
            if self.spikes > min(self.n, self.d):
                raise ValueError(f"spikes={self.spikes} exceeds min(n, d)={min(self.n, self.d)}")
            if self.kind == "rotated_shared_subspace" and self.n < 2 * self.spikes:
                raise ValueError("rotated_shared_subspace needs n >= 2 * spikes")


@dataclass(frozen=True)
class ResultRecord:
    dataset: str
    k: int
    m: int
    sketch_type: str
    err: float
    std_err: float
    trials: int


def normalize_top_singular(a) -> np.ndarray:
    """Scale so the top singular value is 1, to within UNIT_SIGMA_TOL.

    A matrix already that close is returned unchanged, so normalizing
    twice gives the same bits as once.
    """
    a = as_matrix(a)
    smax = singular_values(a).max(initial=0.0)  # 0.0 when a is empty
    if smax <= 0.0:
        raise ValueError("cannot normalize a zero matrix")
    return a if abs(smax - 1.0) <= UNIT_SIGMA_TOL else a / smax


def _noise_term(rng, n, d, noise):
    if noise == 0:
        return 0.0
    return (noise / (np.sqrt(n) + np.sqrt(d))) * rng.standard_normal((n, d))


def _generate_synthetic(spec: DatasetSpec):
    rng = rng_from(spec.seed)
    n, d, r = spec.n, spec.d, spec.spikes
    sig = spec.decay ** np.arange(r)
    u0 = orthonormal_basis(rng.standard_normal((n, r)))
    v0 = orthonormal_basis(rng.standard_normal((d, r)))
    if spec.kind == "rotated_shared_subspace":
        # orthonormal block orthogonal to u0, the rotation target
        w0 = orthonormal_basis(np.concatenate([u0, rng.standard_normal((n, r))], axis=1))[:, r:]

    def sample():
        if spec.kind == "spiked":
            u = orthonormal_basis(u0 + spec.drift * rng.standard_normal((n, r)))
            v = orthonormal_basis(v0 + spec.drift * rng.standard_normal((d, r)))
        elif spec.kind == "lowrank_plus_noise":
            u = orthonormal_basis(rng.standard_normal((n, r)))
            v = orthonormal_basis(rng.standard_normal((d, r)))
        else:  # rotated_shared_subspace
            theta = rng.uniform(-spec.drift, spec.drift)
            u = u0 * np.cos(theta) + w0 * np.sin(theta)
            v = v0
        a = (u * sig) @ v.T + _noise_term(rng, n, d, spec.noise)
        return normalize_top_singular(a)

    train = [sample() for _ in range(spec.count_train)]
    test = [sample() for _ in range(spec.count_test)]
    return train, test


def manifest_files(path) -> dict:
    """{"train": [...], "test": [...]}: the file paths a dataset manifest lists,
    each joined to the manifest's directory."""
    with open(path, "r", encoding="ascii") as fh:
        manifest = json.load(fh)
    if not (isinstance(manifest, dict)
            and all(isinstance(manifest.get(role), list) and manifest[role]
                    and all(isinstance(rel, str) for rel in manifest[role])
                    for role in ("train", "test"))):
        raise ValueError(f"{path}: manifest needs non-empty 'train' and 'test' "
                         f"lists of file names")
    base = os.path.dirname(os.path.abspath(path))
    return {role: [os.path.join(base, rel) for rel in manifest[role]]
            for role in ("train", "test")}


def _load_files(spec: DatasetSpec):
    if spec.path is None:
        raise ValueError("files dataset needs a manifest path")
    files = manifest_files(spec.path)
    return tuple([normalize_top_singular(load_matrix(p)) for p in files[role]]
                 for role in ("train", "test"))


def generate_dataset(spec: DatasetSpec):
    """Build (train, test) matrix lists; deterministic in spec.seed."""
    if spec.kind == "files":
        return _load_files(spec)
    return _generate_synthetic(spec)


def _tail_mean(sigmas, k: int) -> float:
    """Mean over matrices of sqrt(sum_{i>k} sigma_i^2), from their singular values."""
    if not sigmas:
        raise ValueError("empty test set")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return float(np.mean([np.sqrt(np.sum(s[k:] ** 2)) for s in sigmas]))


def optimal_loss(test, k: int) -> float:
    """Mean Frobenius distance from each matrix to its best rank-k approximation.

    By Eckart-Young that distance is sqrt(sum_{i>k} sigma_i^2), so only
    singular values are computed.
    """
    return _tail_mean([singular_values(a) for a in test], k)


def mean_scw_loss(test, s, k: int) -> float:
    """Mean sketch-and-solve approximation loss over a test set."""
    if not test:
        raise ValueError("empty test set")
    return float(np.mean([scw_loss(a, s, k) for a in test]))


def err_metric(test, s, k: int) -> float:
    """Mean sketch-and-solve loss minus the optimal loss (excess error)."""
    return mean_scw_loss(test, s, k) - optimal_loss(test, k)


def random_sketch(sketch_type: str, m: int, n: int, seed: int):
    """A fresh sparse or dense random sketch with m rows over n inputs."""
    if sketch_type == "sparse_random":
        return sparse_random_sketch(m, n, seed)
    if sketch_type == "dense_random":
        return dense_random_sketch(m, n, seed)
    raise ValueError(f"unknown sketch type {sketch_type!r}")


def evaluate_cell(dataset: str, k: int, m: int, sketch_type: str, sigmas,
                  losses) -> ResultRecord:
    """Mean and std-err of each trial's excess error on a test set, from
    `losses`, a trial per row of `scw.scw_losses` over the test matrices, and
    the optimum taken from `sigmas`, their singular values."""
    if not len(losses):
        raise ValueError("trials must be >= 1")
    errs = np.asarray(losses).mean(axis=1) - _tail_mean(sigmas, k)  # each trial's excess error
    std_err = 0.0
    if len(errs) > 1:
        std_err = float(np.std(errs, ddof=1) / np.sqrt(len(errs)))
    return ResultRecord(dataset, k, m, sketch_type, float(np.mean(errs)), std_err, len(errs))


def _run_trials(name: str, train_set, test, sigmas, k: int, m: int,
                sketch_type: str, trials: int, train_cfg: TrainConfig) -> ResultRecord:
    seeds = [derived_seed(train_cfg.seed, _SEED_TRIAL, t) for t in range(trials)]
    if sketch_type in TRAIN_MODES:
        cfg = replace(train_cfg, k=k, mode=TRAIN_MODES[sketch_type])
        cfgs = [replace(cfg, seed=seed) for seed in seeds]
        sketches = [sketch for sketch, _ in train_many(train_set, m, cfgs)]
    else:
        n = test[0].shape[0]
        sketches = [random_sketch(sketch_type, m, n, seed) for seed in seeds]
    return evaluate_cell(name, k, m, sketch_type, sigmas, scw_losses(test, sketches, k))


@functools.lru_cache(maxsize=1)
def _sweep_inputs(spec: DatasetSpec):
    """(train, test, singular values of each test matrix), as read-only arrays
    because every caller shares them.

    Memoized for the last synthetic spec, so consecutive cells of a sweep
    generate their dataset once; a `files` spec bypasses it through
    __wrapped__, because the files can change between calls.
    """
    train_set, test = generate_dataset(spec)
    sigmas = [singular_values(a) for a in test]
    for a in train_set + test + sigmas:
        a.flags.writeable = False
    return tuple(train_set), tuple(test), tuple(sigmas)


def _experiment_inputs(spec: DatasetSpec):
    """_sweep_inputs(spec), computed afresh for a `files` spec."""
    return (_sweep_inputs.__wrapped__ if spec.kind == "files" else _sweep_inputs)(spec)


def run_experiment(spec: DatasetSpec, k: int, m: int, sketch_type: str,
                   trials: int, train_cfg: TrainConfig) -> ResultRecord:
    """Evaluate one (dataset, k, m, sketch type) cell over several trials.

    The dataset is fixed by spec.seed; trials differ in the sketch /
    training randomness, seeded from train_cfg.seed. The last synthetic
    dataset and its test spectra stay memoized, so a sweep over sketch
    types and (k, m) on one spec generates them once; what stays held
    after a sweep is that one dataset, which its peak memory already
    includes. `files` datasets are read afresh on every call.
    """
    train_set, test, sigmas = _experiment_inputs(spec)
    return _run_trials(spec.name, train_set, test, sigmas, k, m, sketch_type, trials,
                       train_cfg)


def mixed_training_set_experiment(specs, eval_spec: DatasetSpec, k: int, m: int,
                                  train_cfg: TrainConfig, trials: int = 1) -> ResultRecord:
    """Train one sketch on the union of several datasets, evaluate on one."""
    train_set = []
    for sp in specs:
        train_set.extend(generate_dataset(sp)[0])
    _, test, sigmas = _experiment_inputs(eval_spec)
    return _run_trials(eval_spec.name, train_set, test, sigmas, k, m, "learned", trials,
                       train_cfg)


def results_to_csv(records, path) -> None:
    """Write records sorted by (dataset, k, m, sketch) with a fixed header."""
    rows = sorted(records, key=lambda r: (r.dataset, r.k, r.m, r.sketch_type))
    with atomic_open(path, "w", encoding="ascii") as fh:
        fh.write("dataset,k,m,sketch,err,std_err,trials\n")
        for r in rows:
            fh.write(f"{r.dataset},{r.k},{r.m},{r.sketch_type},"
                     f"{r.err!r},{r.std_err!r},{r.trials}\n")


def write_xy_csv(path, rows) -> None:
    """Plot-data CSV: one (series, x, y) triple per row."""
    with atomic_open(path, "w", encoding="ascii") as fh:
        fh.write("series,x,y\n")
        for series, x, y in rows:
            fh.write(f"{series},{x!r},{y!r}\n")

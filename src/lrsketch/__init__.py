"""Sketch-based rank-k matrix approximation with trainable sparse sketches.

The theory suite and the taped power-iteration SVD are not on the
gen-data/train/eval path, so their names below load their module on
first access (PEP 562) rather than with the package.
"""

import importlib

from .linalg import (PowerSvdConfig, SvdFactors, best_rank_k, frobenius_norm, matmul,
                     reference_svd, singular_values, svd)
from .sketch import (DenseSketch, SketchBlock, SparseSketch, apply_sketch,
                     concat_sketches, dense_random_sketch, densify, empty_sketch,
                     identity_pattern_sketch, sparse_random_sketch, sketches_equal)
from .scw import (ScwOutput, check_concat_dominance, scw_approximate, scw_loss,
                  scw_loss_and_grad)
from .trainer import TrainConfig, TrainReport, TrainingDivergedError, train
from .evalbench import (DatasetSpec, ResultRecord, err_metric, generate_dataset,
                        mean_scw_loss, mixed_training_set_experiment,
                        normalize_top_singular, optimal_loss, results_to_csv,
                        run_experiment)
from .formats import (load_dmat, load_matrix, load_matrix_csv, load_sketch,
                      save_dmat, save_matrix_csv, save_sketch)

__version__ = "0.1.0"

# exported name -> the submodule that is or defines it, imported on first access
_LAZY = {name: module for module, names in (
    ("autodiff", ("autodiff",)),
    ("diffsvd", ("diffsvd", "backward", "power_svd", "scw_forward_with_tape",
                 "scw_power_loss")),
    ("theory", ("theory", "RobustnessParams", "RobustSearchResult", "SpectralProfile",
                "discretize_sphere", "empirical_losses", "fragile_counterexample",
                "full_objective", "grid_search_robust_minimizer", "random_unit_vector",
                "robustness_fraction", "simplified_objective", "stable_rank",
                "verify_stable_rank_lemma")),
) for name in names}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

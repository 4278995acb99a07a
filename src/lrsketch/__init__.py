"""Sketch-based rank-k matrix approximation with trainable sparse sketches."""

from .linalg import (SvdFactors, best_rank_k, frobenius_norm, matmul, reference_svd,
                     singular_values, svd)
from .sketch import (DenseSketch, SketchBlock, SparseSketch, apply_sketch,
                     concat_sketches, dense_random_sketch, densify, empty_sketch,
                     identity_pattern_sketch, sparse_random_sketch, sketches_equal)
from .scw import (ScwOutput, check_concat_dominance, scw_approximate, scw_loss,
                  scw_loss_and_grad)
from .diffsvd import (PowerSvdConfig, backward, power_svd, scw_forward_with_tape,
                      scw_power_loss)
from .trainer import TrainConfig, TrainReport, TrainingDivergedError, train
from .evalbench import (DatasetSpec, ResultRecord, err_metric, generate_dataset,
                        mean_scw_loss, mixed_training_set_experiment,
                        normalize_top_singular, optimal_loss, results_to_csv,
                        run_experiment)
from .theory import (RobustnessParams, RobustSearchResult, SpectralProfile,
                     discretize_sphere, empirical_losses, fragile_counterexample,
                     full_objective, grid_search_robust_minimizer,
                     random_unit_vector, robustness_fraction, simplified_objective,
                     stable_rank, verify_stable_rank_lemma)
from .formats import (load_dmat, load_matrix, load_matrix_csv, load_sketch,
                      save_dmat, save_matrix_csv, save_sketch)

__version__ = "0.1.0"

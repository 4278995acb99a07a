"""The import graph: gen-data, train and eval load only the modules they run.

Each check runs in a fresh interpreter, since this test session has
already imported every lrsketch module.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# modules that gen-data, train and eval never call
OFF_PATH = ("lrsketch.theory", "lrsketch.verify", "lrsketch.diffsvd", "lrsketch.autodiff")

# every name the package root exported before its theory and taped-SVD names
# turned lazy, by the submodule it came from
ROOT_NAMES = {
    "linalg": ["SvdFactors", "best_rank_k", "frobenius_norm", "matmul", "reference_svd",
               "singular_values", "svd"],
    "sketch": ["DenseSketch", "SketchBlock", "SparseSketch", "apply_sketch",
               "concat_sketches", "dense_random_sketch", "densify", "empty_sketch",
               "identity_pattern_sketch", "sparse_random_sketch", "sketches_equal"],
    "scw": ["ScwOutput", "check_concat_dominance", "scw_approximate", "scw_loss",
            "scw_loss_and_grad"],
    "diffsvd": ["PowerSvdConfig", "backward", "power_svd", "scw_forward_with_tape",
                "scw_power_loss"],
    "trainer": ["TrainConfig", "TrainReport", "TrainingDivergedError", "train"],
    "evalbench": ["DatasetSpec", "ResultRecord", "err_metric", "generate_dataset",
                  "mean_scw_loss", "mixed_training_set_experiment",
                  "normalize_top_singular", "optimal_loss", "results_to_csv",
                  "run_experiment"],
    "theory": ["RobustnessParams", "RobustSearchResult", "SpectralProfile",
               "discretize_sphere", "empirical_losses", "fragile_counterexample",
               "full_objective", "grid_search_robust_minimizer", "random_unit_vector",
               "robustness_fraction", "simplified_objective", "stable_rank",
               "verify_stable_rank_lemma"],
    "formats": ["load_dmat", "load_matrix", "load_matrix_csv", "load_sketch", "save_dmat",
                "save_matrix_csv", "save_sketch"],
}
SUBMODULES = ["autodiff", "diffsvd", "evalbench", "formats", "linalg", "scw", "seeding",
              "sketch", "theory", "trainer"]

TINY_CONFIG = {
    "version": 1, "seed": 3,
    "datasets": [{"name": "tiny", "kind": "spiked", "n": 10, "d": 8, "count_train": 2,
                  "count_test": 1, "spikes": 2, "decay": 0.8, "noise": 0.1,
                  "drift": 0.05, "seed": 4}],
    "pairs": [[2, 4]],
    "sketch_types": ["sparse_random", "learned", "mixed_j", "mixed_s"],
    "train": {"lr": 0.5, "iterations": 3},
}


def run_fresh(code: str, *args: str, cwd=None) -> str:
    """stdout of `code` run in a fresh interpreter that imports lrsketch from src/."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "[m for m in sys.modules if m.startswith('lrsketch')]"


def test_cli_pipeline_loads_no_off_path_module(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(TINY_CONFIG))
    out = run_fresh(
        "import json, sys\n"
        "import lrsketch, lrsketch.cli\n"
        f"print(json.dumps({LOADED}))\n"
        "for cmd in ('gen-data', 'train', 'eval'):\n"
        "    assert lrsketch.cli.main([cmd, '--config', 'cfg.json', '--out', 'run']) == 0\n"
        f"print(json.dumps({LOADED}))\n",
        cwd=tmp_path)
    lines = out.splitlines()  # the loaded modules, the commands' reports, the modules
    after_import, after_run = json.loads(lines[0]), json.loads(lines[-1])
    for loaded in (after_import, after_run):
        assert "lrsketch.cli" in loaded and "lrsketch.trainer" in loaded
        assert not set(OFF_PATH) & set(loaded), loaded
    # train's learned and mixed_j runs step in lockstep, which loads on first use
    assert "lrsketch.lockstep" not in after_import and "lrsketch.lockstep" in after_run
    assert (tmp_path / "run" / "results.csv").is_file()


def test_root_names_resolve_to_their_submodule_objects():
    out = run_fresh(
        "import importlib, json, sys\n"
        "import lrsketch\n"
        "names, submodules = json.loads(sys.argv[1]), json.loads(sys.argv[2])\n"
        "values = {(m, n): getattr(lrsketch, n) for m, ns in names.items() for n in ns}\n"
        "mods = {m: getattr(lrsketch, m) for m in submodules}\n"
        "bad = [n for (m, n), v in values.items()\n"
        "       if v is not getattr(importlib.import_module('lrsketch.' + m), n)]\n"
        "bad += [m for m, v in mods.items()\n"
        "        if v is not importlib.import_module('lrsketch.' + m)]\n"
        "missing = sorted(set(n for ns in names.values() for n in ns) - set(dir(lrsketch)))\n"
        "print(json.dumps([bad, missing]))\n",
        json.dumps(ROOT_NAMES), json.dumps(SUBMODULES))
    assert json.loads(out) == [[], []]


def test_power_svd_config_is_one_class():
    from lrsketch import diffsvd, linalg, trainer
    import lrsketch
    assert (diffsvd.PowerSvdConfig is linalg.PowerSvdConfig is trainer.PowerSvdConfig
            is lrsketch.PowerSvdConfig)


def test_unknown_root_name_raises_attribute_error():
    import lrsketch
    with pytest.raises(AttributeError, match="no_such_name"):
        lrsketch.no_such_name  # noqa: B018
    out = run_fresh("import lrsketch\n"
                    "print(hasattr(lrsketch, 'no_such_name'), hasattr(lrsketch, 'verify'))\n")
    assert out.split() == ["False", "False"]


@pytest.mark.parametrize("command", ["verify", "theory"])
def test_verify_and_theory_run_from_a_fresh_cli(tmp_path, command):
    out = run_fresh("import sys\n"
                    "import lrsketch.cli\n"
                    "sys.exit(lrsketch.cli.main(sys.argv[1:]))\n",
                    command, *(["--out", str(tmp_path)] if command == "theory" else []))
    assert "[FAIL]" not in out
    assert out.splitlines()[-1].startswith(f"{command}: ")

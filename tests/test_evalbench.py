import json

import numpy as np
import pytest

from lrsketch.diffsvd import PowerSvdConfig
from lrsketch.evalbench import (SKETCH_TYPES, DatasetSpec, ResultRecord, _sweep_inputs,
                                err_metric, evaluate_cell, generate_dataset,
                                mixed_training_set_experiment,
                                normalize_top_singular, optimal_loss,
                                results_to_csv, run_experiment)
from lrsketch import evalbench, linalg, trainer
from lrsketch.formats import save_dmat, save_matrix_csv
from lrsketch.linalg import best_rank_k, frobenius_norm, reference_svd, singular_values
from lrsketch.scw import scw_loss, scw_losses
from lrsketch.seeding import rng_from
from lrsketch.sketch import (concat_sketches, dense_random_sketch,
                             identity_pattern_sketch, sparse_random_sketch)
from lrsketch.theory import stable_rank
from lrsketch.trainer import TrainConfig


def tiny_spec(**kw):
    base = dict(name="tiny", kind="spiked", n=20, d=14, count_train=6, count_test=4,
                spikes=3, decay=0.6, noise=0.05, drift=0.05, seed=7)
    base.update(kw)
    return DatasetSpec(**base)


def tiny_train_cfg(**kw):
    base = dict(k=3, lr=0.5, iterations=60, seed=31,
                power_cfg=PowerSvdConfig(t_iters=20), learned_rows=2)
    base.update(kw)
    return TrainConfig(**base)


class TestGenerateDataset:
    def test_noise_free_rank_equals_spikes(self):
        train, test = generate_dataset(tiny_spec(noise=0.0, count_train=5))
        for a in train + test:
            assert reference_svd(a).rank == 3

    def test_seed_bitwise_determinism(self):
        t1, e1 = generate_dataset(tiny_spec())
        t2, e2 = generate_dataset(tiny_spec())
        for a, b in zip(t1 + e1, t2 + e2):
            assert a.tobytes() == b.tobytes()

    def test_decay_controls_sigma_ratio(self):
        train, _ = generate_dataset(tiny_spec(decay=0.5, count_train=8))
        for a in train:
            sig = reference_svd(a).sigma
            assert abs(sig[1] / sig[0] - 0.5) < 0.1

    def test_all_kinds_produce_normalized_matrices(self):
        for kind in ("spiked", "lowrank_plus_noise", "rotated_shared_subspace"):
            train, test = generate_dataset(tiny_spec(kind=kind, count_train=3))
            for a in train + test:
                assert reference_svd(a).sigma[0] == pytest.approx(1.0, abs=1e-9)

    def test_files_kind_roundtrip(self, tmp_path):
        train, test = generate_dataset(tiny_spec(count_train=3, count_test=2))
        manifest = {"train": [], "test": []}
        for role, mats in (("train", train), ("test", test)):
            for i, a in enumerate(mats):
                if i % 2 == 0:
                    fname = f"{role}_{i}.dmat"
                    save_dmat(tmp_path / fname, a)
                else:
                    fname = f"{role}_{i}.csv"
                    save_matrix_csv(tmp_path / fname, a)
                manifest[role].append(fname)
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        ltrain, ltest = generate_dataset(DatasetSpec(name="f", kind="files",
                                                     path=str(mpath)))
        assert len(ltrain) == 3 and len(ltest) == 2
        for a, b in zip(train, ltrain):
            assert np.allclose(a, b, atol=1e-12)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            DatasetSpec(name="x", kind="nonsense", n=4, d=4)

    @pytest.mark.parametrize("field", ["decay", "noise", "drift"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            tiny_spec(**{field: value})


class TestNormalizeTopSingular:
    def test_diagonal(self):
        out = normalize_top_singular(np.diag([2.0, 1.0]))
        assert np.allclose(out, np.diag([1.0, 0.5]), atol=1e-12)

    def test_idempotent(self):
        rng = rng_from(3)
        a = normalize_top_singular(rng.standard_normal((5, 4)))
        again = normalize_top_singular(a)
        assert np.abs(again - a).max() < 1e-12

    @pytest.mark.parametrize("kind", ["spiked", "lowrank_plus_noise",
                                      "rotated_shared_subspace"])
    def test_generated_matrices_are_fixed_points(self, kind):
        spec = DatasetSpec(name="x", kind=kind, n=32, d=24, count_train=6,
                           count_test=4, spikes=3, seed=7)
        train, test = generate_dataset(spec)
        for b in train + test:
            assert normalize_top_singular(b).tobytes() == b.tobytes()

    def test_output_sigma_one(self):
        rng = rng_from(4)
        out = normalize_top_singular(rng.standard_normal((7, 5)))
        assert reference_svd(out).sigma[0] == pytest.approx(1.0, abs=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            normalize_top_singular(np.zeros((3, 3)))

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
    def test_empty_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="zero"):
            normalize_top_singular(np.zeros(shape))


class TestOptimalLoss:
    def test_low_rank_set_is_zero(self):
        rng = rng_from(5)
        mats = [rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
                for _ in range(3)]
        assert optimal_loss(mats, 2) < 1e-9

    def test_diagonal_residual(self):
        assert optimal_loss([np.diag([3.0, 2.0, 1.0])], 2) == pytest.approx(1.0)

    def test_matches_sigma_tail(self):
        rng = rng_from(6)
        mats = [rng.standard_normal((7, 5)) for _ in range(4)]
        tails = [np.sqrt(np.sum(reference_svd(a).sigma[2:] ** 2)) for a in mats]
        assert optimal_loss(mats, 2) == pytest.approx(np.mean(tails), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            optimal_loss([], 2)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be"):
            optimal_loss([np.eye(3)], 0)

    @pytest.mark.parametrize("scale_exp", [-6, 0, 6])
    @pytest.mark.parametrize("kind", ["tall", "wide", "square"])
    def test_matches_truncation_oracle(self, kind, scale_exp):
        """Eckart-Young from sigma alone equals the residual of best_rank_k.

        Draws cover rank below and above k and k >= min(n, d).
        """
        scale = 10.0 ** scale_exp
        for t in range(25):
            rng = rng_from(61, ["tall", "wide", "square"].index(kind), scale_exp + 6, t)
            short, long_ = int(rng.integers(1, 9)), int(rng.integers(9, 16))
            n, d = {"tall": (long_, short), "wide": (short, long_),
                    "square": (long_, long_)}[kind]
            rank = int(rng.integers(1, min(n, d) + 1))
            a = scale * (rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d)))
            k = int(rng.integers(1, min(n, d) + 3))
            oracle = frobenius_norm(a - best_rank_k(a, k))
            assert abs(optimal_loss([a], k) - oracle) <= 1e-12 * frobenius_norm(a)

    @pytest.mark.parametrize("shape", [(4, 3), (0, 5), (5, 0), (0, 0)])
    def test_zero_and_empty_matrices_score_zero(self, shape):
        assert optimal_loss([np.zeros(shape)], 2) == 0.0


class TestErrMetric:
    def test_identity_sketch_err_zero(self):
        rng = rng_from(7)
        test = [rng.standard_normal((6, 5)) for _ in range(3)]
        assert abs(err_metric(test, identity_pattern_sketch(6), 2)) < 1e-8

    def test_low_rank_preserved_err_zero(self):
        rng = rng_from(8)
        test = [rng.standard_normal((8, 2)) @ rng.standard_normal((2, 6))
                for _ in range(3)]
        assert abs(err_metric(test, sparse_random_sketch(4, 8, 9), 2)) < 1e-8

    def test_matches_hand_pipeline(self):
        rng = rng_from(10)
        test = [rng.standard_normal((6, 4)) for _ in range(2)]
        s = sparse_random_sketch(3, 6, 11)
        hand = np.mean([scw_loss(a, s, 2) for a in test]) - optimal_loss(test, 2)
        assert err_metric(test, s, 2) == pytest.approx(hand, abs=1e-12)

    def test_nonnegative(self):
        for seed in range(8):
            rng = rng_from(20, seed)
            test = [rng.standard_normal((7, 5)) for _ in range(3)]
            s = sparse_random_sketch(3, 7, seed)
            assert err_metric(test, s, 2) >= -1e-9

    def test_monotone_under_concat(self):
        rng = rng_from(30)
        test = [rng.standard_normal((8, 6)) for _ in range(4)]
        s = sparse_random_sketch(2, 8, 31)
        extra = sparse_random_sketch(3, 8, 32)
        assert (err_metric(test, concat_sketches(s, extra), 2)
                <= err_metric(test, s, 2) + 1e-9)

    def test_scaling_preserves_ranking(self):
        rng = rng_from(33)
        test = [rng.standard_normal((8, 6)) for _ in range(4)]
        sketches = [sparse_random_sketch(3, 8, s) for s in (1, 2, 3)]
        errs = [err_metric(test, s, 2) for s in sketches]
        scaled = [7.5 * a for a in test]
        errs_scaled = [err_metric(scaled, s, 2) for s in sketches]
        assert np.argmin(errs) == np.argmin(errs_scaled)


class TestEvaluateCell:
    @staticmethod
    def cell(sketches):
        rng = rng_from(34)
        test = [rng.standard_normal((8, 6)) for _ in range(3)]
        sigmas = [singular_values(a) for a in test]
        return test, evaluate_cell("demo", 2, 3, "sparse_random", sigmas,
                                   scw_losses(test, sketches, 2))

    def test_one_sketch_is_its_err_metric(self):
        s = sparse_random_sketch(3, 8, 35)
        test, rec = self.cell([s])
        assert rec == ResultRecord("demo", 2, 3, "sparse_random", rec.err, 0.0, 1)
        assert np.float64(rec.err).tobytes() == np.float64(err_metric(test, s, 2)).tobytes()

    def test_two_sketches_std_err(self):
        sketches = [sparse_random_sketch(3, 8, seed) for seed in (36, 37)]
        test, rec = self.cell(sketches)
        errs = [err_metric(test, s, 2) for s in sketches]
        assert rec.trials == 2
        assert rec.err == np.mean(errs)
        assert rec.std_err == np.std(errs, ddof=1) / np.sqrt(2)
        assert rec.std_err > 0

    def test_no_sketches_raises(self):
        with pytest.raises(ValueError, match="trials"):
            self.cell([])

    @pytest.mark.parametrize("shape", [(1, 3), (3, 2), (3, 7), (5, 9), (4, 33), (2, 130)])
    def test_trial_means_equal_a_mean_per_row(self, shape):
        losses = rng_from(38, *shape).uniform(0.5, 2.0, shape)
        sigmas = [singular_values(rng_from(39, t).standard_normal((8, 6))) for t in range(3)]
        rec = evaluate_cell("demo", 2, 3, "sparse_random", sigmas, losses)
        app = evalbench._tail_mean(sigmas, 2)
        errs = [float(np.mean(row)) - app for row in losses]  # one np.mean per trial
        std_err = float(np.std(errs, ddof=1) / np.sqrt(len(errs))) if len(errs) > 1 else 0.0
        assert (np.float64(rec.err).tobytes(), np.float64(rec.std_err).tobytes()) == \
            (np.float64(np.mean(errs)).tobytes(), np.float64(std_err).tobytes())


class TestRunExperiment:
    def test_single_trial_zero_std_err(self):
        rec = run_experiment(tiny_spec(), 3, 4, "sparse_random", 1, tiny_train_cfg())
        assert rec.std_err == 0.0
        assert rec.trials == 1
        assert np.isfinite(rec.err)

    def test_sparse_vs_dense_same_ballpark(self):
        cfg = tiny_train_cfg()
        sp = run_experiment(tiny_spec(), 3, 4, "sparse_random", 3, cfg)
        de = run_experiment(tiny_spec(), 3, 4, "dense_random", 3, cfg)
        assert np.isfinite(sp.err) and np.isfinite(de.err)
        hi, lo = max(sp.err, de.err), min(sp.err, de.err)
        assert hi <= 3 * lo

    def test_learned_type_runs(self):
        rec = run_experiment(tiny_spec(), 3, 4, "learned", 1, tiny_train_cfg())
        assert rec.sketch_type == "learned"
        assert np.isfinite(rec.err)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="sketch type"):
            run_experiment(tiny_spec(), 3, 4, "magic", 1, tiny_train_cfg())

    def test_same_seed_repeat_is_identical(self):
        first = run_experiment(tiny_spec(), 3, 4, "sparse_random", 4, tiny_train_cfg())
        again = run_experiment(tiny_spec(), 3, 4, "sparse_random", 4, tiny_train_cfg())
        assert first == again


    @pytest.mark.parametrize("sketch_type", ["learned", "mixed_j", "mixed_s"])
    def test_trials_in_lockstep_equal_a_loop_of_train(self, sketch_type, monkeypatch):
        cfg = tiny_train_cfg(iterations=30)
        lockstep = run_experiment(tiny_spec(), 3, 4, sketch_type, 3, cfg)
        monkeypatch.setattr(evalbench, "train_many", lambda train_set, m, cfgs: (
            trainer.train(train_set, m, c) for c in cfgs))
        assert run_experiment(tiny_spec(), 3, 4, sketch_type, 3, cfg) == lockstep


class TestSweepMemo:
    """Consecutive cells on one synthetic spec share its dataset and test spectra."""

    def test_warm_equals_cold(self):
        spec, cfg = tiny_spec(seed=17), tiny_train_cfg(iterations=20)
        for k in (2, 3):
            for st in SKETCH_TYPES:
                _sweep_inputs.cache_clear()
                cold = run_experiment(spec, k, 4, st, 2, cfg)
                warm = run_experiment(spec, k, 4, st, 2, cfg)
                assert _sweep_inputs.cache_info().hits >= 1
                assert warm == cold

    def test_memo_read_only_and_generation_fresh(self):
        spec = tiny_spec(seed=18)
        run_experiment(spec, 3, 4, "sparse_random", 1, tiny_train_cfg())
        train_set, test, sigmas = _sweep_inputs(spec)
        for a in train_set + test + sigmas:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        fresh_train, fresh_test = generate_dataset(spec)
        for memo, fresh in zip(train_set + test, fresh_train + fresh_test):
            assert fresh.flags.writeable and fresh is not memo
            assert fresh.tobytes() == memo.tobytes()

    def test_files_spec_reads_rewritten_file(self, tmp_path):
        train, test = generate_dataset(tiny_spec(count_train=2, count_test=2))
        other = generate_dataset(tiny_spec(seed=99, count_train=2, count_test=2))[1]

        def write(directory, test_mats):
            directory.mkdir(exist_ok=True)
            manifest = {"train": [], "test": []}
            for role, mats in (("train", train), ("test", test_mats)):
                for i, a in enumerate(mats):
                    save_dmat(directory / f"{role}_{i}.dmat", a)
                    manifest[role].append(f"{role}_{i}.dmat")
            (directory / "manifest.json").write_text(json.dumps(manifest))
            return DatasetSpec(name="f", kind="files", path=str(directory / "manifest.json"))

        cfg = tiny_train_cfg()
        spec = write(tmp_path / "a", test)
        first = run_experiment(spec, 3, 4, "sparse_random", 2, cfg)
        assert write(tmp_path / "a", other) == spec
        second = run_experiment(spec, 3, 4, "sparse_random", 2, cfg)
        expected = run_experiment(write(tmp_path / "b", other), 3, 4, "sparse_random", 2, cfg)
        assert second != first
        assert second == expected

    @pytest.mark.parametrize("k, sketch_type, trials, match", [
        (0, "sparse_random", 1, "k must be"),
        (3, "magic", 1, "sketch type"),
        (3, "sparse_random", 0, "trials"),
        (3, "learned", 0, "trials"),
    ], ids=["k_zero", "unknown_type", "no_random_trials", "no_trained_trials"])
    def test_bad_cell_raises_and_memo_stays_usable(self, k, sketch_type, trials, match):
        spec, cfg = tiny_spec(seed=19), tiny_train_cfg()
        _sweep_inputs.cache_clear()
        before = run_experiment(spec, 3, 4, "sparse_random", 2, cfg)
        with pytest.raises(ValueError, match=match):
            run_experiment(spec, k, 4, sketch_type, trials, cfg)
        assert run_experiment(spec, 3, 4, "sparse_random", 2, cfg) == before
        _sweep_inputs.cache_clear()
        assert run_experiment(spec, 3, 4, "sparse_random", 2, cfg) == before

    def test_holds_at_most_one_dataset(self):
        cfg = tiny_train_cfg()
        for seed in (20, 21, 20):
            run_experiment(tiny_spec(seed=seed), 3, 4, "sparse_random", 1, cfg)
            assert _sweep_inputs.cache_info().currsize <= 1
        mixed_training_set_experiment([tiny_spec(seed=21)], tiny_spec(seed=22), 3, 4, cfg)
        assert _sweep_inputs.cache_info().currsize <= 1


class TestMixedTrainingSets:
    def test_union_of_self_matches_run_experiment(self):
        spec = tiny_spec()
        cfg = tiny_train_cfg()
        direct = run_experiment(spec, 3, 4, "learned", 1, cfg)
        union = mixed_training_set_experiment([spec], spec, 3, 4, cfg, trials=1)
        assert union == direct

    def test_related_union_sits_between_matched_and_random(self):
        # three spiked families sharing a seed-anchored subspace; evaluate on
        # the first; training on the union should cost something relative to
        # matched training but stay far below random
        specs = [tiny_spec(seed=7, name="a"),
                 tiny_spec(seed=7, drift=0.15, noise=0.08, name="b"),
                 tiny_spec(seed=7, drift=0.25, noise=0.12, name="c")]
        cfg = tiny_train_cfg(iterations=120)
        matched = run_experiment(specs[0], 3, 4, "learned", 1, cfg)
        union = mixed_training_set_experiment(specs, specs[0], 3, 4, cfg, trials=1)
        random_rec = run_experiment(specs[0], 3, 4, "sparse_random", 1, cfg)
        assert matched.err <= union.err + 0.02
        assert union.err <= random_rec.err

    def test_disjoint_union_no_better_than_matched(self):
        spec_a = tiny_spec(seed=7, name="a")
        spec_b = tiny_spec(seed=99, name="b")  # unrelated subspaces
        cfg = tiny_train_cfg(iterations=120)
        matched = run_experiment(spec_a, 3, 4, "learned", 1, cfg)
        union = mixed_training_set_experiment([spec_a, spec_b], spec_a, 3, 4,
                                              cfg, trials=1)
        assert union.err >= matched.err - 0.02

    def test_row_mismatch_raises(self):
        taller = tiny_spec(seed=8, n=22, name="taller")
        with pytest.raises(ValueError, match="rows, expected"):
            mixed_training_set_experiment([tiny_spec(), taller], tiny_spec(), 3, 4,
                                          tiny_train_cfg())


class TestResultsCsv:
    def test_sorted_rows_and_header(self, tmp_path):
        records = [ResultRecord("b", 2, 4, "learned", 0.5, 0.0, 1),
                   ResultRecord("a", 2, 4, "sparse_random", 1.5, 0.1, 2),
                   ResultRecord("a", 2, 2, "learned", 0.25, 0.0, 1)]
        p = tmp_path / "results.csv"
        results_to_csv(records, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "dataset,k,m,sketch,err,std_err,trials"
        assert lines[1].startswith("a,2,2,learned")
        assert lines[2].startswith("a,2,4,sparse_random")
        assert lines[3].startswith("b,2,4,learned")

    def test_empty_records_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        results_to_csv([], p)
        assert p.read_text() == "dataset,k,m,sketch,err,std_err,trials\n"


class TestHotPathsSkipJacobi:
    """The Jacobi SVD is a test oracle: no evaluation path may reach it."""

    @pytest.fixture(autouse=True)
    def no_jacobi(self, monkeypatch):
        def refuse(a):
            raise AssertionError("hot path reached the Jacobi reference SVD")
        monkeypatch.setattr(linalg, "_jacobi_tall", refuse)
        _sweep_inputs.cache_clear()  # so run_experiment generates under the patch

    def test_dataset_losses_and_stable_rank(self):
        train_set, test = generate_dataset(tiny_spec())
        assert optimal_loss(test, 3) > 0
        for s in (sparse_random_sketch(4, 20, seed=1), dense_random_sketch(4, 20, seed=1)):
            assert np.isfinite(scw_loss(test[0], s, 3))
        assert stable_rank(train_set[0]) >= 1.0

    @pytest.mark.parametrize("sketch_type", ["sparse_random", "learned"])
    def test_run_experiment(self, sketch_type):
        cfg = tiny_train_cfg(iterations=2)
        assert np.isfinite(run_experiment(tiny_spec(), 3, 4, sketch_type, 1, cfg).err)


class TestSigmaOnlyPathsSkipVectors:
    """Readers that need only singular values never ask LAPACK for vectors."""

    @pytest.fixture(autouse=True)
    def no_vectors(self, monkeypatch):
        real = np.linalg.svd

        def sigma_only(a, full_matrices=True, compute_uv=True, hermitian=False):
            if compute_uv:
                raise AssertionError("sigma-only path computed singular vectors")
            return real(a, full_matrices=full_matrices, compute_uv=False,
                        hermitian=hermitian)
        monkeypatch.setattr(np.linalg, "svd", sigma_only)

    def test_generation_normalization_optimum_and_stable_rank(self):
        train_set, test = generate_dataset(tiny_spec())
        assert optimal_loss(test, 3) > 0
        assert stable_rank(train_set[0]) >= 1.0
        assert normalize_top_singular(2.0 * test[0]).shape == test[0].shape

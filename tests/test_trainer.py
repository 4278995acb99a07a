import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lrsketch import autodiff, linalg, lockstep, scw, trainer
from lrsketch.diffsvd import PowerSvdConfig
from lrsketch.evalbench import DatasetSpec, generate_dataset
from lrsketch.linalg import frobenius_norm
from lrsketch.scw import scw_loss, scw_loss_and_grad, sq_losses
from lrsketch.seeding import derived_seed, rng_from
from lrsketch.sketch import (SparseSketch, apply_sketch, apply_sketches, concat_sketches,
                             sketches_equal, sparse_random_sketch)
from lrsketch.trainer import TrainConfig, TrainingDivergedError, report_to_csv, train
from test_scw import reference_sa_loss_and_grad, residual_free_loss


@pytest.fixture(scope="module")
def small_train_set():
    # shared rank-2 structure plus noise, so a few SGD steps help
    rng = rng_from(1000)
    u0 = np.linalg.qr(rng.standard_normal((12, 2)))[0]
    v0 = np.linalg.qr(rng.standard_normal((9, 2)))[0]
    out = []
    for _ in range(6):
        u = np.linalg.qr(u0 + 0.05 * rng.standard_normal((12, 2)))[0]
        a = (u * np.array([1.0, 0.7])) @ v0.T
        a = a + 0.02 * rng.standard_normal((12, 9))
        out.append(a)
    return out


def quick_cfg(**kw):
    base = dict(k=2, lr=0.3, iterations=30, seed=5,
                power_cfg=PowerSvdConfig(t_iters=20))
    base.update(kw)
    return TrainConfig(**base)


def reference_train(train_set, m, cfg):
    """train as the per-step loop it replaced: the bit-for-bit oracle.

    Every step rebuilds the sketch with with_values and takes the loss
    and gradient through scw_loss_and_grad; a train set must share one
    shape, and the error names the first matrix that does not.
    """
    n, d = train_set[0].shape
    for i, a in enumerate(train_set):
        if a.shape[0] != n:
            raise ValueError(f"matrix {i} has {a.shape[0]} rows, expected {n}")
        if a.shape != (n, d):
            raise ValueError(f"matrix {i} has {a.shape[1]} columns, expected {d}")
    sketch, tail = trainer._start(n, m, cfg)
    sq_norms = [frobenius_norm(a) ** 2 for a in train_set]

    def mean_loss(s):
        return trainer._mean(sq_losses(train_set, [concat_sketches(s, tail)], cfg.k, sq_norms)[0])

    start = sketch
    initial = mean_loss(sketch)
    batch_rng = rng_from(cfg.seed, trainer._SEED_BATCH)
    mask, vals = sketch.trainable_mask, sketch.value_of
    losses = np.empty(cfg.batch_size)
    history = []
    for step in range(1, cfg.iterations + 1):
        idx = np.sort(batch_rng.integers(0, len(train_set), size=cfg.batch_size))
        grad = np.zeros(vals.shape[0])
        for j, ii in enumerate(idx):
            loss, g = scw_loss_and_grad(train_set[ii], sketch, cfg.k)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at iteration {step} (matrix {ii}); lower lr")
            grad += g
            losses[j] = loss
        grad /= cfg.batch_size
        vals = np.where(mask, vals - cfg.lr * grad, vals)
        if not np.isfinite(vals).all():
            raise TrainingDivergedError(
                f"non-finite sketch values after iteration {step}; lower lr")
        sketch = sketch.with_values(vals)
        history.append((step, float(losses.sum()) / cfg.batch_size))
    final = mean_loss(sketch)
    if final > initial:
        sketch, final = start, initial
    report = trainer.TrainReport(tuple(history), initial, final)
    return concat_sketches(sketch, tail), report


def assert_trains_like_reference(train_set, m, cfg):
    """train(...) matches reference_train(...), byte for byte, or raises its error."""
    got, want = train_alone(train_set, m, cfg), attempt(reference_train, train_set, m, cfg)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return want
    assert_same_run(got, want)
    return got[1]


def reference_kernel_stack(a, sa, k, sq_norms):
    """sa_loss_and_grad_stack slice by slice through reference_sa_loss_and_grad,
    which builds the residual: losses, dense gradients and no flags."""
    got = [reference_sa_loss_and_grad(x, y, k, np.arange(y.shape[0] * x.shape[0]))
           for x, y in zip(a, sa)]
    return (np.array([loss for loss, _ in got]),
            np.stack([g.reshape(sa.shape[1], a.shape[1]) for _, g in got]),
            np.zeros(len(got), dtype=bool))


MODES = ("learned", "mixed_joint", "mixed_separate")


class TestBitIdenticalToReferenceLoop:
    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_modes_batches_seeds(self, small_train_set, mode, batch_size, seed):
        cfg = quick_cfg(mode=mode, learned_rows=2, batch_size=batch_size, seed=seed)
        rep = assert_trains_like_reference(small_train_set, 4, cfg)
        assert len(rep.loss_history) == cfg.iterations

    def test_keep_start(self):
        # TestKeepStart's case: the 6-row sketch ends above its start
        train_set, _ = generate_dataset(TestKeepStart.SPEC)
        rep = assert_trains_like_reference(train_set, 6, replace(TestKeepStart.CFG, seed=46))
        assert rep.final_loss == rep.initial_loss
        assert len(rep.loss_history) == 10

    @pytest.mark.parametrize("mode", MODES)
    def test_sketch_with_empty_row(self, small_train_set, mode):
        # at seed 3 the trained block has a row no column hits, so SA
        # (8 x 9 for learned) is rank-deficient
        cfg = quick_cfg(mode=mode, learned_rows=4, batch_size=2, seed=3)
        init, _ = train(small_train_set, 8, replace(cfg, iterations=0))
        block = init.blocks[0]
        assert np.bincount(block.row_of, minlength=block.m).min() == 0
        assert_trains_like_reference(small_train_set, 8, cfg)

    def test_non_contiguous_matrices(self, small_train_set):
        train_set = [np.asfortranarray(a) for a in small_train_set]
        assert_trains_like_reference(train_set, 4, quick_cfg(batch_size=3))

    # the shape the SGD step's speed is measured at: 64x48, k=4, m=8
    BENCH_SPEC = DatasetSpec(name="sgd", kind="spiked", n=64, d=48, count_train=4, count_test=2,
                             spikes=4, decay=0.8, noise=0.1, drift=0.05, seed=0)

    @pytest.mark.parametrize("mode", MODES)
    def test_benchmark_shape(self, mode):
        train_set, _ = generate_dataset(self.BENCH_SPEC)
        cfg = TrainConfig(k=4, lr=1.0, batch_size=1, iterations=40, seed=11, mode=mode,
                          learned_rows=4)
        rep = assert_trains_like_reference(train_set, 8, cfg)
        assert len(rep.loss_history) == 40 and rep.final_loss < rep.initial_loss


class TestMixedColumnCounts:
    # a train set shares one shape: a union of 32x24 and 32x20 matrices is
    # refused, naming the first 32x20 one, by train as by the reference loop
    SPECS = [DatasetSpec(name=f"d{d}", kind="spiked", n=32, d=d, count_train=2,
                         count_test=1, spikes=3, decay=0.8, noise=0.1, drift=0.05,
                         seed=40 + d) for d in (24, 20)]

    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_trains_like_reference(self, mode, batch_size):
        train_set = [a for sp in self.SPECS for a in generate_dataset(sp)[0]]
        assert sorted({a.shape[1] for a in train_set}) == [20, 24]
        cfg = quick_cfg(k=3, lr=1.0, mode=mode, learned_rows=3, batch_size=batch_size,
                        iterations=20)
        got = assert_trains_like_reference(train_set, 6, cfg)
        assert type(got) is ValueError and str(got) == "matrix 2 has 20 columns, expected 24"
        with pytest.raises(ValueError, match="matrix 2 has 20 columns"):
            trainer.train_many(train_set, 6, [cfg])


class TestTrainSketch:
    def test_lr_zero_returns_initialization(self, small_train_set):
        sk, _ = train(small_train_set, 4, quick_cfg(lr=0.0, iterations=5))
        init = sparse_random_sketch(4, 12, derived_seed(5, 0))
        assert sketches_equal(sk, init)

    def test_zero_iterations_initial_equals_final(self, small_train_set):
        _, rep = train(small_train_set, 4, quick_cfg(iterations=0))
        assert rep.initial_loss == rep.final_loss
        assert rep.loss_history == ()

    def test_training_reduces_loss(self, small_train_set):
        _, rep = train(small_train_set, 4, quick_cfg(iterations=60))
        assert rep.final_loss < rep.initial_loss

    def test_pattern_preserved(self, small_train_set):
        cfg = quick_cfg()
        sk, _ = train(small_train_set, 4, cfg)
        init = sparse_random_sketch(4, 12, derived_seed(cfg.seed, 0))
        assert np.array_equal(sk.row_of, init.row_of)

    def test_seed_reproducibility(self, small_train_set):
        sk1, rep1 = train(small_train_set, 4, quick_cfg())
        sk2, rep2 = train(small_train_set, 4, quick_cfg())
        assert sketches_equal(sk1, sk2)
        assert rep1.loss_history == rep2.loss_history

    @pytest.mark.parametrize("mode", MODES)
    def test_same_seed_reports_are_equal(self, small_train_set, mode):
        cfg = quick_cfg(mode=mode, learned_rows=2)
        assert train(small_train_set, 4, cfg)[1] == train(small_train_set, 4, cfg)[1]

    def test_values_finite(self, small_train_set):
        sk, _ = train(small_train_set, 4, quick_cfg())
        assert np.all(np.isfinite(sk.value_of))

    def test_history_length_matches_iterations(self, small_train_set):
        _, rep = train(small_train_set, 4, quick_cfg(iterations=17))
        assert len(rep.loss_history) == 17
        assert [it for it, _ in rep.loss_history] == list(range(1, 18))

    def test_divergence_aborts(self, small_train_set):
        # the exact loss is invariant to the sketch's scale, so no finite
        # lr diverges here; an infinite one makes the values non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError):
                train(small_train_set, 4,
                             quick_cfg(lr=float("inf"), iterations=6))

    def test_inconsistent_rows_rejected(self):
        bad = [np.zeros((4, 3)), np.zeros((5, 3))]
        with pytest.raises(ValueError, match="rows"):
            train(bad, 2, quick_cfg())

    def test_batch_size_determinism(self, small_train_set):
        sk1, _ = train(small_train_set, 4, quick_cfg(batch_size=3))
        sk2, _ = train(small_train_set, 4, quick_cfg(batch_size=3))
        assert sketches_equal(sk1, sk2)


class TestReportedLoss:
    @pytest.mark.parametrize("mode", ["learned", "mixed_joint", "mixed_separate"])
    def test_losses_are_mean_squared_scw_loss(self, small_train_set, mode):
        # two power rounds leave the taped loss far from scw_loss; the
        # report must not depend on them, and it covers all m rows
        cfg = quick_cfg(power_cfg=PowerSvdConfig(t_iters=2), mode=mode, learned_rows=2)
        sk, rep = train(small_train_set, 4, cfg)
        init, _ = train(small_train_set, 4, replace(cfg, iterations=0))
        assert sk.m == init.m == 4

        def mean_sq(s):
            return float(np.mean([scw_loss(a, s, cfg.k) ** 2 for a in small_train_set]))

        assert rep.initial_loss == pytest.approx(mean_sq(init), rel=1e-12)
        assert rep.final_loss == pytest.approx(mean_sq(sk), rel=1e-12)

    CASES = {
        "plain": (None, 4, dict(learned_rows=2)),
        # at seed 3 the trained block has a row no column hits, so SA is rank-deficient
        "empty_row": (None, 8, dict(learned_rows=4, batch_size=2, seed=3)),
        "two_column_counts": ("widths", 6, dict(k=3, lr=1.0, learned_rows=3, iterations=20)),
        "zero_matrix": ("zero", 4, dict(learned_rows=2, batch_size=2)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("mode", MODES)
    def test_losses_within_eps_of_scw_loss(self, small_train_set, case, mode):
        # the losses come from singular values alone; the residual's agree to
        # within rounding, 1e-13 of the mean ||A||_F^2
        kind, m, kw = self.CASES[case]
        train_set = TestTrainMany.train_set(kind, small_train_set)
        cfg = quick_cfg(mode=mode, **kw)
        if case == "two_column_counts":  # refused: a train set shares one shape
            with pytest.raises(ValueError, match="matrix 2 has 20 columns, expected 24"):
                train(train_set, m, cfg)
            return
        sk, rep = train(train_set, m, cfg)
        init, _ = train(train_set, m, replace(cfg, iterations=0))
        if case == "empty_row":
            assert np.bincount(init.blocks[0].row_of, minlength=init.blocks[0].m).min() == 0
        scale = 1e-13 * float(np.mean([frobenius_norm(a) ** 2 for a in train_set]))
        for loss, s in ((rep.initial_loss, init), (rep.final_loss, sk)):
            want = float(np.mean([scw_loss(a, s, cfg.k) ** 2 for a in train_set]))
            assert abs(loss - want) <= scale


class TestKeepStart:
    # the inputs of the perfbench cli_pipeline run at seed 104, mixed_s
    # trial 0: ten SGD steps at lr 1.0 on 3 of 6 rows
    SPEC = DatasetSpec(name="spiked", kind="spiked", n=32, d=24, count_train=4,
                       count_test=3, spikes=3, decay=0.8, noise=0.1, drift=0.05,
                       seed=18244713078665304669)
    CFG = TrainConfig(k=3, lr=1.0, batch_size=1, iterations=10,
                      seed=6286127545950942845, power_cfg=PowerSvdConfig(t_iters=30),
                      mode="mixed_separate", learned_rows=3)

    def test_worse_sketch_is_not_returned(self):
        # at trainer seed 46 the 6-row sketch ends above its start
        train_set, _ = generate_dataset(self.SPEC)
        cfg = replace(self.CFG, seed=46)
        sk, rep = train(train_set, 6, cfg)
        start, _ = train(train_set, 6, replace(cfg, iterations=0))
        assert rep.final_loss == rep.initial_loss
        assert sketches_equal(sk, start)
        assert len(rep.loss_history) == 10

    def test_rule_judges_the_returned_sketch_not_the_block(self):
        # the 3-row block alone ends above its start (0.3245 -> 0.3272),
        # but the 6-row sketch returned improves (0.0708 -> 0.0663), so
        # the trained block is kept
        train_set, _ = generate_dataset(self.SPEC)
        sk, rep = train(train_set, 6, self.CFG)
        start, _ = train(train_set, 6, replace(self.CFG, iterations=0))
        assert rep.final_loss < rep.initial_loss
        assert not np.array_equal(sk.blocks[0].value_of, start.blocks[0].value_of)
        assert sketches_equal(SparseSketch(sk.n, sk.blocks[1:]),
                              SparseSketch(start.n, start.blocks[1:]))


class TestExactGradient:
    def test_training_builds_no_tape(self, small_train_set, monkeypatch):
        def no_tape(self):
            raise AssertionError("training built a Tape")

        monkeypatch.setattr(autodiff.Tape, "__init__", no_tape)
        for mode in ("learned", "mixed_joint", "mixed_separate"):
            train(small_train_set, 4, quick_cfg(mode=mode, learned_rows=2, iterations=3))

    def test_power_cfg_does_not_change_training(self, small_train_set):
        sk1, rep1 = train(small_train_set, 4, quick_cfg())
        sk2, rep2 = train(small_train_set, 4,
                          quick_cfg(power_cfg=PowerSvdConfig(t_iters=1, init_seed=9)))
        assert sketches_equal(sk1, sk2)
        assert rep1.loss_history == rep2.loss_history

    def test_history_is_exact_batch_loss(self, small_train_set):
        # batch_size 1 and lr 0: every step's loss is its matrix's
        # residual-free loss, within 1e-13 ||A||^2 of scw_loss ** 2
        cfg = quick_cfg(lr=0.0, iterations=8)
        _, rep = train(small_train_set, 4, cfg)
        init = sparse_random_sketch(4, 12, derived_seed(cfg.seed, 0))
        batch_rng = rng_from(cfg.seed, 1)  # the trainer's batch stream
        for _, loss in rep.loss_history:
            a = small_train_set[int(batch_rng.integers(0, len(small_train_set), size=1)[0])]
            assert loss == residual_free_loss(a, init, 2)
            assert abs(loss - scw_loss(a, init, 2) ** 2) <= 1e-13 * frobenius_norm(a) ** 2

    def test_history_is_np_mean_of_batch(self, small_train_set):
        # lr 0 keeps the start; a batch of 9 sums pairwise in numpy
        cfg = quick_cfg(lr=0.0, iterations=4, batch_size=9)
        _, rep = train(small_train_set, 4, cfg)
        init = sparse_random_sketch(4, 12, derived_seed(cfg.seed, 0))
        losses = [residual_free_loss(a, init, 2) for a in small_train_set]
        squares = [scw_loss(a, init, 2) ** 2 for a in small_train_set]
        bound = 1e-13 * max(frobenius_norm(a) ** 2 for a in small_train_set)
        batch_rng = rng_from(cfg.seed, 1)  # the trainer's batch stream
        for _, loss in rep.loss_history:
            idx = np.sort(batch_rng.integers(0, len(losses), size=9))
            assert loss == float(np.mean([losses[i] for i in idx]))
            assert abs(loss - float(np.mean([squares[i] for i in idx]))) <= bound

    @pytest.mark.parametrize("mode", MODES)
    def test_values_match_reference_kernel(self, small_train_set, mode, monkeypatch):
        # the residual-free loss leaves every gradient bit, so every trained value
        cfg = quick_cfg(mode=mode, learned_rows=2, batch_size=2)
        got, rep = train(small_train_set, 4, cfg)
        monkeypatch.setattr(lockstep, "sa_loss_and_grad_stack", reference_kernel_stack)
        want, ref = train(small_train_set, 4, cfg)
        assert rep.final_loss < rep.initial_loss  # the trained values were returned
        assert got.value_of.tobytes() == want.value_of.tobytes()
        assert np.float64(rep.final_loss).tobytes() == np.float64(ref.final_loss).tobytes()


class TestMixedJoint:
    def test_learned_rows_zero_everything_frozen(self, small_train_set):
        cfg = quick_cfg(mode="mixed_joint", learned_rows=0, iterations=10)
        sk, _ = train(small_train_set, 4, cfg)
        frozen = sparse_random_sketch(4, 12, derived_seed(cfg.seed, 3))
        assert np.array_equal(sk.value_of, frozen.value_of)
        assert not sk.trainable_mask.any()

    def test_masked_block_bit_unchanged(self, small_train_set):
        cfg = quick_cfg(mode="mixed_joint", learned_rows=2, iterations=40)
        sk, _ = train(small_train_set, 4, cfg)
        frozen_init = sparse_random_sketch(2, 12, derived_seed(cfg.seed, 3))
        assert sk.blocks[1].value_of.tobytes() == frozen_init.value_of.tobytes()
        assert np.array_equal(sk.blocks[1].row_of, frozen_init.row_of)

    def test_trainable_block_moves(self, small_train_set):
        cfg = quick_cfg(mode="mixed_joint", learned_rows=2, iterations=40)
        sk, _ = train(small_train_set, 4, cfg)
        init = sparse_random_sketch(2, 12, derived_seed(cfg.seed, 0))
        assert not np.array_equal(sk.blocks[0].value_of, init.value_of)

    def test_learned_rows_m_matches_plain_training(self, small_train_set):
        cfg = quick_cfg(learned_rows=4)
        sk_plain, rep_plain = train(small_train_set, 4, cfg)
        sk_mixed, rep_mixed = train(small_train_set, 4, replace(cfg, mode="mixed_joint"))
        assert sketches_equal(sk_plain, sk_mixed)
        assert rep_plain.loss_history == rep_mixed.loss_history

    def test_learned_rows_validated(self, small_train_set):
        with pytest.raises(ValueError, match="learned_rows"):
            train(small_train_set, 4, quick_cfg(mode="mixed_joint", learned_rows=5))


class TestMixedSeparate:
    def test_total_rows(self, small_train_set):
        sk, _ = train(small_train_set, 5, quick_cfg(mode="mixed_separate", learned_rows=2))
        assert sk.m == 5

    def test_first_block_equals_standalone_training(self, small_train_set):
        cfg = quick_cfg(learned_rows=2)
        standalone, _ = train(small_train_set, 2, cfg)
        mixed, _ = train(small_train_set, 5, replace(cfg, mode="mixed_separate"))
        assert mixed.blocks[0].value_of.tobytes() == standalone.value_of.tobytes()
        assert np.array_equal(mixed.blocks[0].row_of, standalone.row_of)

    def test_appended_block_frozen_random(self, small_train_set):
        cfg = quick_cfg(mode="mixed_separate", learned_rows=2)
        mixed, _ = train(small_train_set, 5, cfg)
        frozen = sparse_random_sketch(3, 12, derived_seed(cfg.seed, 3))
        assert np.array_equal(mixed.blocks[1].value_of, frozen.value_of)
        assert not mixed.blocks[1].trainable_mask.any()

    def test_learned_rows_validated(self, small_train_set):
        with pytest.raises(ValueError, match="learned_rows"):
            train(small_train_set, 4, quick_cfg(mode="mixed_separate", learned_rows=0))


class TestDispatch:
    def test_modes(self, small_train_set):
        for mode in ("learned", "mixed_joint", "mixed_separate"):
            cfg = quick_cfg(mode=mode, learned_rows=2, iterations=5)
            sk, _ = train(small_train_set, 4, cfg)
            assert sk.m == 4


class TestReportCsv:
    def test_row_count(self, small_train_set, tmp_path):
        _, rep = train(small_train_set, 4, quick_cfg(iterations=12))
        p = tmp_path / "report.csv"
        report_to_csv(rep, p)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == 1 + 12


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            TrainConfig(k=1, mode="nope")

    def test_negative_lr(self):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(k=1, lr=-0.1)

    def test_nan_lr(self):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(k=1, lr=float("nan"))


def attempt(fn, *args):
    """fn(*args), or the error it raises."""
    try:
        return fn(*args)
    except (TrainingDivergedError, ValueError) as exc:
        return exc


def train_alone(train_set, m, cfg):
    """train(train_set, m, cfg), or the error it raises."""
    return attempt(train, train_set, m, cfg)


def assert_same_run(got, want):
    """Two (sketch, TrainReport) results agree byte for byte, block masks included."""
    (got_s, got), (want_s, want) = got, want
    assert got_s.value_of.tobytes() == want_s.value_of.tobytes()
    assert [(b.m, b.row_of.tobytes(), b.trainable_mask.tobytes()) for b in got_s.blocks] == \
        [(b.m, b.row_of.tobytes(), b.trainable_mask.tobytes()) for b in want_s.blocks]
    assert got == want
    floats = [x for _, x in got.loss_history] + [got.initial_loss, got.final_loss]
    want_floats = [x for _, x in want.loss_history] + [want.initial_loss, want.final_loss]
    assert np.array(floats).tobytes() == np.array(want_floats).tobytes()


def spiked(n, d, count, seed):
    spec = DatasetSpec(name="s", kind="spiked", n=n, d=d, count_train=count, count_test=1,
                       spikes=3, decay=0.8, noise=0.1, drift=0.05, seed=seed)
    return generate_dataset(spec)[0]


def three_modes(**kw):
    """Two runs of each mode; at m=4 with 2 learned rows, that is two lockstep groups."""
    return [quick_cfg(mode=mode, learned_rows=2, seed=seed, **kw)
            for mode in MODES for seed in (5, 6)]


class TestOneSaPath:
    """apply_sketch, apply_sketches and a lockstep step's SA (`Stack.sa`) take
    one BLAS product per slice and agree bit for bit, at trained-like values
    and at m = 1 and d = 1, where BLAS takes a matrix-vector product."""

    @pytest.mark.parametrize("m,d", [(1, 5), (4, 1), (6, 7)])
    def test_agree_bitwise(self, m, d):
        rng = rng_from(1300, m, d)
        n, groups = 12, 3
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        values[::4] = -0.0
        split = [m] if m == 1 else [1, m - 1]
        blocks = [sparse_random_sketch(rows, n, 1301 + i) for i, rows in enumerate(split)]
        sketches = [sparse_random_sketch(m, n, 1300).with_values(values),
                    concat_sketches(*blocks) if len(blocks) > 1 else blocks[0]]
        sketches[1] = sketches[1].with_values(rng.standard_normal(len(split) * n))
        mats = np.stack([rng.standard_normal((n, d)) for _ in range(5)])
        which = rng.integers(0, len(mats), size=(groups, len(sketches)))
        stack = lockstep.Stack(sketches, groups)
        sa = stack.sa(np.concatenate([s.value_of for s in sketches]),
                      mats.take(which.ravel(), axis=0))
        every = apply_sketches(sketches, list(mats))
        for g in range(groups):
            for r, s in enumerate(sketches):
                want = apply_sketch(s, mats[which[g, r]]).tobytes()
                assert sa[g * len(sketches) + r].tobytes() == want
                assert every[which[g, r] * len(sketches) + r].tobytes() == want


class TestBatchStream:
    """A run's batches come from one draw of its stream; the numbers are those
    of one draw per step. If numpy changes Generator.integers so that they are
    not, every trained sketch changes, and this fails first."""

    @pytest.mark.parametrize("bound", [1, 2, 30, 2**33])
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 4, 5])
    def test_one_draw_equals_per_step_draws(self, bound, batch_size):
        for seed in range(6):
            cfg = quick_cfg(seed=seed, batch_size=batch_size, iterations=23)
            stream = rng_from(seed, trainer._SEED_BATCH)
            want = np.array([np.sort(stream.integers(0, bound, size=batch_size))
                             for _ in range(cfg.iterations)])
            got = trainer._batches(cfg, bound)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (
                f"numpy changed the batch stream (seed {seed}, bound {bound})")

    def test_no_iterations(self):
        assert trainer._batches(quick_cfg(iterations=0, batch_size=3), 5).shape == (0, 3)


class TestTrainMany:
    """train_many(train_set, m, cfgs)[i] is train(train_set, m, cfgs[i]), byte for byte."""

    CASES = {
        "three_modes": (None, 4, three_modes()),
        "batch_2": (None, 4, three_modes(batch_size=2)),
        "mixed_joint_no_learned_rows": (None, 4, [quick_cfg(seed=5)] + [
            quick_cfg(mode="mixed_joint", learned_rows=0, seed=s) for s in (6, 7)]),
        "lr_0": (None, 4, three_modes(lr=0.0)),
        "one_run": (None, 4, [quick_cfg(batch_size=3)]),
        # two k values in one call: each k is scored in its own pass and steps in its own group
        "two_k": (None, 4, three_modes() + three_modes(k=3)),
        # at seed 3 the trained block has a row no column hits, so its SA is rank-deficient
        "empty_row": (None, 8, [quick_cfg(mode=mode, learned_rows=4, batch_size=2, seed=seed)
                                for mode in ("learned", "mixed_joint") for seed in (3, 5)]),
        "zero_matrix": ("zero", 4, three_modes(batch_size=2)),
        "two_column_counts": ("widths", 6, [quick_cfg(k=3, lr=1.0, mode=mode, learned_rows=3,
                                                      seed=seed, iterations=20)
                                            for mode in MODES for seed in (5, 6)]),
        # BLAS takes its blocked paths at this size
        "256x192": ("large", 8, [quick_cfg(k=4, lr=1.0, mode=mode, learned_rows=4, seed=seed,
                                           iterations=4)
                                 for mode in ("learned", "mixed_joint") for seed in (5, 6)]),
    }

    @staticmethod
    def train_set(kind, small):
        if kind == "zero":  # B = AV is rank 0 whenever it is drawn
            return small + [np.zeros_like(small[0])]
        if kind == "widths":
            return [a for sp in TestMixedColumnCounts.SPECS for a in generate_dataset(sp)[0]]
        if kind == "large":
            return spiked(256, 192, 2, 9)
        return small

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_run_equals_train(self, small_train_set, case):
        kind, m, cfgs = self.CASES[case]
        train_set = self.train_set(kind, small_train_set)
        try:
            got = list(trainer.train_many(train_set, m, cfgs))
        except ValueError as exc:  # two column counts: refused before any run trains
            assert case == "two_column_counts"
            assert all(str(train_alone(train_set, m, cfg)) == str(exc) for cfg in cfgs)
            return
        assert len(got) == len(cfgs)
        for result, cfg in zip(got, cfgs):
            assert_same_run(result, train(train_set, m, cfg))

    def test_scored_in_one_pass(self, small_train_set, monkeypatch):
        # each scoring pass takes one sigma-only SVD over every run x train matrix
        # of a k, across lockstep groups (the 6 runs of a k here step in two), and
        # builds no approximation; train takes one over its train matrices per pass
        calls, svd = [], np.linalg.svd

        def spy(a, full_matrices=True, compute_uv=True, hermitian=False):
            if not compute_uv:
                calls.append(a.shape[:-2])
            return svd(a, full_matrices, compute_uv, hermitian)

        def residual(*args):
            raise AssertionError("a residual was built")

        monkeypatch.setattr(np.linalg, "svd", spy)
        monkeypatch.setattr(scw, "scw_approximate", residual)
        cfgs = three_modes() + three_modes(k=3)
        got = list(trainer.train_many(small_train_set, 4, cfgs))
        runs = len(cfgs) // 2 * len(small_train_set)
        assert calls == [(runs,)] * 4  # initial k=2, k=3, then final k=2, k=3
        del calls[:]
        alone = [train(small_train_set, 4, cfg) for cfg in cfgs]
        assert calls == [(len(small_train_set),)] * (2 * len(cfgs))
        monkeypatch.undo()
        for result, want in zip(got, alone):
            assert_same_run(result, want)

    def test_norms_taken_once(self, small_train_set, monkeypatch):
        # ||A||_F^2 of each train matrix, once per train_many, for both scoring
        # passes and every step of every group
        calls, real = [], linalg.frobenius_norm
        for module in [m for name, m in sys.modules.items() if name.startswith("lrsketch")]:
            if getattr(module, "frobenius_norm", None) is real:
                monkeypatch.setattr(module, "frobenius_norm",
                                    lambda a: calls.append(1) or real(a))
        cfgs = three_modes() + three_modes(k=3)
        got = list(trainer.train_many(small_train_set, 4, cfgs))
        assert len(calls) == len(small_train_set)
        monkeypatch.undo()
        for result, cfg in zip(got, cfgs):
            assert_same_run(result, train(small_train_set, 4, cfg))

    def test_failed_initial_scoring_stands_for_its_run(self, small_train_set, monkeypatch):
        # run 1's start cannot be scored; train alone raises the same error,
        # and the others, of both k values, still equal train alone
        cfgs = three_modes() + [replace(c, k=3, seed=c.seed + 2) for c in three_modes()]
        bad = concat_sketches(*trainer._start(12, 4, cfgs[1])).value_of
        apply, apply_all = scw.apply_sketch, scw.apply_sketches

        def refuse(s, a):
            if np.array_equal(s.value_of, bad):
                raise ValueError("unscorable start")
            return apply(s, a)

        monkeypatch.setattr(scw, "apply_sketch", refuse)
        monkeypatch.setattr(scw, "apply_sketches", lambda sketches, mats: (
            [refuse(s, a) for s in sketches for a in mats] and apply_all(sketches, mats)))
        it = trainer.train_many(small_train_set, 4, cfgs)
        assert_same_run(next(it), train(small_train_set, 4, cfgs[0]))
        with pytest.raises(ValueError, match="unscorable start"):
            next(it)
        assert str(train_alone(small_train_set, 4, cfgs[1])) == "unscorable start"
        for cfg, result in zip(cfgs[2:], trainer.train_many(small_train_set, 4, cfgs[2:])):
            assert_same_run(result, train(small_train_set, 4, cfg))

    def test_empty_row_is_there(self, small_train_set):
        init, _ = train(small_train_set, 8, quick_cfg(learned_rows=4, seed=3, iterations=0))
        assert np.bincount(init.blocks[0].row_of, minlength=8).min() == 0

    @staticmethod
    def kernel_calls(monkeypatch):
        """The slice count of each step kernel call, from here on."""
        calls, kernel = [], lockstep.sa_loss_and_grad_stack
        monkeypatch.setattr(lockstep, "sa_loss_and_grad_stack",
                            lambda a, *args: calls.append(len(a)) or kernel(a, *args))
        return calls

    def test_healthy_group_never_steps_alone(self, small_train_set, monkeypatch):
        # a group of 4 takes every step in one kernel call over all its runs
        calls = self.kernel_calls(monkeypatch)
        cfgs = three_modes()[:4]
        list(trainer.train_many(small_train_set, 4, cfgs))
        assert calls == [len(cfgs)] * cfgs[0].iterations

    @pytest.mark.parametrize("kind,m,cfgs", [(None, 8, CASES["empty_row"][2]),
                                             ("zero", 4, CASES["zero_matrix"][2][:4])])
    def test_deficient_steps_stay_stacked(self, small_train_set, kind, m, cfgs, monkeypatch):
        # a run whose SA (a row no column hits) or B (a zero train matrix) is
        # rank-deficient steps in its group: one kernel call per step
        train_set = self.train_set(kind, small_train_set)
        calls = self.kernel_calls(monkeypatch)
        got = list(trainer.train_many(train_set, m, cfgs))
        assert calls == [len(cfgs) * cfgs[0].batch_size] * cfgs[0].iterations
        monkeypatch.undo()
        for result, cfg in zip(got, cfgs):
            assert_same_run(result, train(train_set, m, cfg))

    def test_healthy_group_builds_no_run(self, small_train_set, monkeypatch):
        # a group lays out its index arrays once, in one Stack, and none per run
        built, make = [], lockstep.Stack
        monkeypatch.setattr(lockstep, "Stack", lambda *args: built.append(1) or make(*args))
        cfgs = three_modes()[:4]
        got = list(trainer.train_many(small_train_set, 4, cfgs))
        assert built == [1]
        monkeypatch.undo()
        for result, cfg in zip(got, cfgs):
            assert_same_run(result, train(small_train_set, 4, cfg))

    def test_failed_run_keeps_its_group_laid_out_once(self, small_train_set, monkeypatch):
        # the last run diverges at step 1 (lr inf) and is frozen at its start:
        # the group keeps its one Stack, and the others get what they get alone
        built, make = [], lockstep.Stack
        monkeypatch.setattr(lockstep, "Stack", lambda *args: built.append(1) or make(*args))
        cfgs = [quick_cfg(lr=lr, seed=seed) for lr, seed in ((1.0, 5), (1.0, 7), (math.inf, 6))]
        it = trainer.train_many(small_train_set, 4, cfgs)
        got = [next(it), next(it)]
        with pytest.raises(TrainingDivergedError, match="after iteration 1;"):
            next(it)
        assert built == [1]
        monkeypatch.undo()
        for result, cfg in zip(got, cfgs):
            assert_same_run(result, train(small_train_set, 4, cfg))

    @staticmethod
    def empty_row_cfgs(m, count):
        """count learned cfgs whose m-row start has a row no column hits, then
        count whose start has none."""
        def empty(seed):
            return np.bincount(trainer._start(12, m, quick_cfg(seed=seed))[0].row_of,
                               minlength=m).min() == 0
        seeds = range(100)
        return [quick_cfg(seed=seed) for want in (True, False)
                for seed in [s for s in seeds if empty(s) == want][:count]]

    def test_empty_row_steps_in_its_group(self, small_train_set, monkeypatch):
        # the two runs with an empty row step with the two without, in one group
        cfgs = self.empty_row_cfgs(6, 2)
        calls = self.kernel_calls(monkeypatch)
        got = list(trainer.train_many(small_train_set, 6, cfgs))
        assert calls == [len(cfgs)] * cfgs[0].iterations
        monkeypatch.undo()
        for result, cfg in zip(got, cfgs):
            assert_same_run(result, train(small_train_set, 6, cfg))

    def test_failure_raises_at_its_turn(self, small_train_set):
        cfgs = [quick_cfg(lr=lr, seed=seed) for lr, seed in ((1.0, 5), (math.inf, 6), (1.0, 7))]
        it = trainer.train_many(small_train_set, 4, cfgs)
        assert_same_run(next(it), train(small_train_set, 4, cfgs[0]))
        want = train_alone(small_train_set, 4, cfgs[1])
        assert isinstance(want, TrainingDivergedError)
        with pytest.raises(TrainingDivergedError) as got:
            next(it)
        assert str(got.value) == str(want)
        assert next(it, None) is None

    def test_group_steps_on_past_a_failed_run(self, small_train_set):
        # run 1 diverges (lr inf) and drops out with its own error; runs 0 and 2
        # keep the values and histories they get stepped alone
        cfgs = [quick_cfg(lr=lr, seed=seed) for lr, seed in ((1.0, 5), (math.inf, 6), (1.0, 7))]
        sketches = [trainer._start(12, 4, c)[0] for c in cfgs]
        mats = np.stack(small_train_set)
        sq_norms = np.array([frobenius_norm(a) ** 2 for a in mats])
        out = lockstep.run_lockstep(mats, sq_norms, sketches, cfgs)
        want = train_alone(small_train_set, 4, cfgs[1])
        assert type(out[1]) is type(want) is TrainingDivergedError
        assert str(out[1]) == str(want)
        for i in (0, 2):
            vals, history = lockstep.run_lockstep(mats, sq_norms, [sketches[i]], [cfgs[i]])[0]
            assert out[i][0].tobytes() == vals.tobytes()
            assert out[i][1] == history
            assert np.array(out[i][1]).tobytes() == np.array(history).tobytes()

    def test_frozen_run_warns_no_more_than_alone(self, small_train_set):
        # the lr=inf run diverges at step 1 and is frozen at its start; its lr
        # is zeroed, so no inf * 0 is taken where it later meets the zero
        # matrix, and the group warns no more than its runs alone
        train_set = small_train_set + [np.zeros_like(small_train_set[0])]
        zero = len(train_set) - 1
        seed = next(s for s in range(100) if zero not in
                    trainer._batches(quick_cfg(seed=s), len(train_set))[0])
        cfgs = [quick_cfg(seed=seed + 1), quick_cfg(lr=math.inf, seed=seed)]
        assert zero in trainer._batches(cfgs[1], len(train_set))[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            it = trainer.train_many(train_set, 4, cfgs)
            assert_same_run(next(it), train(train_set, 4, cfgs[0]))
            with pytest.raises(TrainingDivergedError, match="values after iteration 1;"):
                next(it)

    def test_failures_in_one_step_keep_their_own_errors(self, small_train_set):
        # batch 3, one finite train matrix whose SA overflows: at step 1 one run
        # meets it (ValueError) and one diverges at lr=inf, while a third steps
        # on; each gets what it gets as a group of one, called directly
        mats = np.stack(small_train_set)
        mats[4] = 1e308
        with np.errstate(over="ignore"):
            sq_norms = np.array([frobenius_norm(a) ** 2 for a in mats])

        def first(cfg_of, meets, ever=False):
            """The first cfg_of(seed) whose step-1 batch (every batch if ever)
            holds matrix 4 exactly when meets says it does."""
            for seed in range(200):
                cfg = cfg_of(seed)
                draws = trainer._batches(cfg, len(mats))
                if (4 in (draws if ever else draws[:1])) == meets:
                    return cfg
            raise AssertionError("no seed")

        cfgs = [first(lambda s: quick_cfg(batch_size=3, iterations=8, seed=s), True),
                first(lambda s: quick_cfg(batch_size=3, iterations=8, seed=s, lr=math.inf),
                      False),
                first(lambda s: quick_cfg(batch_size=3, iterations=8, seed=s), False, True)]
        assert trainer._batches(cfgs[0], len(mats))[0].tolist().index(4) > 0  # not first
        sketches = [trainer._start(12, 4, c)[0] for c in cfgs]
        with np.errstate(over="ignore", invalid="ignore"):
            out = lockstep.run_lockstep(mats, sq_norms, sketches, cfgs)
            alone = [lockstep.run_lockstep(mats, sq_norms, [s], [c])[0]
                     for s, c in zip(sketches, cfgs)]
        assert type(out[0]) is type(alone[0]) is ValueError
        assert str(out[0]) == str(alone[0]) == "SVD input contains non-finite entries"
        assert type(out[1]) is type(alone[1]) is TrainingDivergedError
        assert str(out[1]) == str(alone[1]) == \
            "non-finite sketch values after iteration 1; lower lr"
        assert out[2][0].tobytes() == alone[2][0].tobytes()
        assert np.array(out[2][1]).tobytes() == np.array(alone[2][1]).tobytes()
        assert len(out[2][1]) == 8

    def test_non_finite_sa_raises_value_error(self, small_train_set):
        bad = small_train_set[0].copy()
        bad[0, 0] = math.inf
        train_set = small_train_set[1:] + [bad]
        cfgs = three_modes()
        want = train_alone(train_set, 4, cfgs[0])
        assert isinstance(want, ValueError) and "non-finite" in str(want)
        with pytest.raises(ValueError) as got:
            list(trainer.train_many(train_set, 4, cfgs))
        assert str(got.value) == str(want)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_lapack_never_sees_a_non_finite_slice(self, small_train_set, value, monkeypatch):
        # LAPACK may hang on one (linalg.require_finite): the slice is zeroed
        # before it, flagged, and the run raises
        bad = small_train_set[0].copy()
        bad[3, 2] = value
        seen, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: (
            seen.append(bool(np.isfinite(a).all())) or svd(a, *args, **kw)))
        with pytest.raises(ValueError, match="SVD input contains non-finite entries"):
            train(small_train_set[1:] + [bad], 4, quick_cfg())
        assert seen and all(seen)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_matrix_fails_before_any_step(self, small_train_set, value,
                                                     monkeypatch):
        # the initial scoring covers every train matrix, so a non-finite one
        # fails every run before any group steps
        def stepped(*args):
            raise AssertionError("a run stepped")
        monkeypatch.setattr(lockstep, "run_lockstep", stepped)
        bad = small_train_set[0].copy()
        bad[3, 2] = value
        with pytest.raises(ValueError, match="SVD input contains non-finite entries"):
            list(trainer.train_many(small_train_set[1:] + [bad], 4, three_modes()))

    def test_learned_rows_checked_before_any_step(self, small_train_set, monkeypatch):
        def stepped(*args):
            raise AssertionError("a run stepped")
        monkeypatch.setattr(lockstep, "run_lockstep", stepped)
        cfgs = [quick_cfg(), quick_cfg(mode="mixed_separate", learned_rows=0)]
        with pytest.raises(ValueError, match="learned_rows=0"):
            trainer.train_many(small_train_set, 4, cfgs)

    def test_no_cfgs_checks_nothing(self, small_train_set):
        # a loop of no train calls checks no train set, so this one passes
        rows = [small_train_set[0], np.zeros((small_train_set[0].shape[0] + 1, 9))]
        assert list(trainer.train_many(rows, 4, [])) == []
        with pytest.raises(ValueError, match="rows"):
            trainer.train_many(rows, 4, [quick_cfg()])

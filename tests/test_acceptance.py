"""End-to-end acceptance checks.

Each test prints one [PASS] line with its measured margin and elapsed
time (visible with `pytest -s`). The spiked-data experiments share a
module fixture so the training cost is paid once.
"""

import json
import os
import time

import numpy as np
import pytest

from lrsketch.cli import main as cli_main
from lrsketch.diffsvd import PowerSvdConfig, backward, power_svd, scw_forward_with_tape, \
    scw_power_loss
from lrsketch.evalbench import DatasetSpec, run_experiment
from lrsketch.formats import load_dmat, load_sketch, save_dmat, save_sketch
from lrsketch.linalg import best_rank_k, frobenius_norm, matmul, reference_svd
from lrsketch.scw import check_concat_dominance, scw_approximate, scw_loss
from lrsketch.seeding import derived_seed, rng_from
from lrsketch.sketch import (apply_sketch, concat_sketches, densify,
                             identity_pattern_sketch, sketches_equal,
                             sparse_random_sketch)
from lrsketch.theory import (RobustnessParams, flat_profile, fragile_counterexample,
                             generalization_gap_sweep, grid_search_robust_minimizer,
                             objective_means, random_profile,
                             robustness_fraction, verify_stable_rank_lemma)
from lrsketch.trainer import TrainConfig, train

ACCEPT_SPEC = DatasetSpec(name="spiked-bundle", kind="spiked", n=64, d=48,
                          count_train=30, count_test=16, spikes=4, decay=0.8,
                          noise=0.1, drift=0.05, seed=11)
ACCEPT_TRAIN = TrainConfig(k=4, lr=1.0, batch_size=1, iterations=500, seed=77,
                           power_cfg=PowerSvdConfig(t_iters=30), learned_rows=4)


def report(name, elapsed, bound, detail):
    print(f"\n[PASS] {name}: {detail} ({elapsed:.1f}s, bound {bound:.0f}s)")


@pytest.fixture(scope="module")
def spiked_bundle():
    t0 = time.perf_counter()
    records = {}
    for st in ("sparse_random", "learned", "mixed_j", "mixed_s"):
        records[st] = run_experiment(ACCEPT_SPEC, 4, 8, st, trials=3,
                                     train_cfg=ACCEPT_TRAIN)
    return records, time.perf_counter() - t0


class TestAcceptance:
    def test_01_concat_dominance(self):
        t0 = time.perf_counter()
        worst = -np.inf
        for t in range(200):
            rng = rng_from(1001, t)
            n, d = int(rng.integers(2, 13)), int(rng.integers(2, 13))
            m1, m2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            a = rng.standard_normal((n, d))
            s1 = sparse_random_sketch(m1, n, derived_seed(1001, t, 1))
            s2 = sparse_random_sketch(m2, n, derived_seed(1001, t, 2))
            loss_star, loss_1 = check_concat_dominance(a, s1, s2, k)
            worst = max(worst, loss_star - loss_1)
            assert loss_star <= loss_1 + 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 10
        report("1 concat dominance", elapsed, 10,
               f"200/200 trials hold, worst loss gap {worst:.2e} <= 1e-9")

    def test_02_scw_correctness(self):
        t0 = time.perf_counter()
        worst_loss = 0.0
        for t in range(50):
            rng = rng_from(1002, t)
            n, d = int(rng.integers(5, 11)), int(rng.integers(4, 9))
            k = int(rng.integers(1, 4))
            r = min(k, n, d)
            a = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
            for attempt in range(10):  # draw until the sketch keeps the row space
                s = sparse_random_sketch(r + 2 + attempt, n,
                                         derived_seed(1002, t, attempt))
                if reference_svd(apply_sketch(s, a)).rank == r:
                    break
            loss = scw_loss(a, s, k)
            worst_loss = max(worst_loss, loss)
            assert loss < 1e-8
        worst_id = 0.0
        for t in range(5):
            rng = rng_from(1003, t)
            a = rng.standard_normal((10, 8))
            out = scw_approximate(a, identity_pattern_sketch(10), 3)
            diff = frobenius_norm(out.approx - best_rank_k(a, 3))
            worst_id = max(worst_id, diff)
            assert diff < 1e-8
        elapsed = time.perf_counter() - t0
        assert elapsed < 5
        report("2 scw correctness", elapsed, 5,
               f"50 exact recoveries (worst loss {worst_loss:.2e}); identity "
               f"sketch matches truncated SVD within {worst_id:.2e}")

    def test_03_power_svd_forward(self):
        t0 = time.perf_counter()
        worst = 0.0
        for t in range(20):
            rng = rng_from(1004, t)
            n = int(rng.integers(4, 11))
            d = int(rng.integers(3, 9))
            r = min(n, d)
            u = np.linalg.qr(rng.standard_normal((n, r)))[0]
            v = np.linalg.qr(rng.standard_normal((d, r)))[0]
            sig = 1.5 ** -np.arange(r)  # consecutive gap ratio exactly 1.5
            a = (u * sig) @ v.T
            f = power_svd(a, PowerSvdConfig(t_iters=200, init_seed=derived_seed(1004, t)))
            ref = reference_svd(a)
            assert f.rank == ref.rank
            rel = np.abs(f.sigma - ref.sigma) / ref.sigma
            worst = max(worst, float(rel.max()))
            assert rel.max() < 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 10
        report("3 power-method SVD forward", elapsed, 10,
               f"20/20 spectra match the Jacobi reference, worst relative "
               f"error {worst:.2e} < 1e-6")

    def test_04_gradient_fidelity(self):
        t0 = time.perf_counter()
        h = 1e-5
        worst = 0.0  # fraction of the per-coordinate budget used
        for t in range(20):
            rng = rng_from(1005, t)
            a = rng.standard_normal((8, 6))
            s = sparse_random_sketch(3, 8, derived_seed(1005, t))
            cfg = PowerSvdConfig(t_iters=60, init_seed=derived_seed(1005, t, 1))
            _, tape = scw_forward_with_tape(a, s, 2, cfg)
            g = backward(tape)
            vals = s.value_of
            for i in range(vals.shape[0]):
                vp, vm = vals.copy(), vals.copy()
                vp[i] += h
                vm[i] -= h
                fd = (scw_power_loss(a, s.with_values(vp), 2, cfg)
                      - scw_power_loss(a, s.with_values(vm), 2, cfg)) / (2 * h)
                budget = 1e-6 + 1e-4 * abs(fd)
                worst = max(worst, abs(g[i] - fd) / budget)
                assert abs(g[i] - fd) <= budget, f"instance {t} coordinate {i}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60
        report("4 gradient fidelity", elapsed, 60,
               f"20 instances x 8 coordinates within the 1e-4 rel / 1e-6 abs "
               f"budget; worst used {worst:.1%} of it")

    def test_05_learned_beats_random(self, spiked_bundle):
        records, fixture_time = spiked_bundle
        t0 = time.perf_counter()
        err_learned = records["learned"].err
        err_random = records["sparse_random"].err
        assert err_learned <= 0.5 * err_random
        elapsed = time.perf_counter() - t0 + fixture_time
        assert elapsed < 15 * 60
        report("5 learned beats random", elapsed, 900,
               f"Err(learned)={err_learned:.4f} <= 0.5 * Err(random)="
               f"{0.5 * err_random:.4f} (ratio {err_learned / err_random:.2f})")

    def test_06_mixed_ordering(self, spiked_bundle):
        records, fixture_time = spiked_bundle
        t0 = time.perf_counter()
        err_l = records["learned"].err
        err_j = records["mixed_j"].err
        err_s = records["mixed_s"].err
        err_r = records["sparse_random"].err
        assert err_l <= err_j + 0.1 * err_r
        assert err_j <= err_r
        assert err_s <= err_r
        # frozen half stays bit-identical through a full training run
        trial_seed = derived_seed(ACCEPT_TRAIN.seed, 5, 0)
        cfg = TrainConfig(k=4, lr=1.0, iterations=500, seed=trial_seed,
                          power_cfg=PowerSvdConfig(t_iters=30),
                          mode="mixed_joint", learned_rows=4)
        from lrsketch.evalbench import generate_dataset

        train_set, _ = generate_dataset(ACCEPT_SPEC)
        mixed, rep = train(train_set, 8, cfg)
        frozen_init = sparse_random_sketch(4, 64, derived_seed(trial_seed, 3))
        assert mixed.blocks[1].value_of.tobytes() == frozen_init.value_of.tobytes()
        assert rep.final_loss < rep.initial_loss
        elapsed = time.perf_counter() - t0 + fixture_time
        assert elapsed < 30 * 60
        report("6 mixed ordering", elapsed, 1800,
               f"Err learned {err_l:.4f} <= mixed_j {err_j:.4f} + 10% random; "
               f"mixed_j/mixed_s {err_j:.4f}/{err_s:.4f} <= random {err_r:.4f}; "
               f"frozen block bit-identical")

    def test_07_stable_rank_lemma(self):
        t0 = time.perf_counter()
        profiles = []
        for j in range(30):
            dim = int(rng_from(1007, j).integers(2, 16))
            p = random_profile(dim, derived_seed(1007, j))
            assert 1.0 <= p.stable_rank() <= 15.0
            profiles.append(p)
        worst, bound = verify_stable_rank_lemma(profiles, 100000, seed=1008)
        assert worst >= bound
        flat = flat_profile(10, 1009)
        _, mean10 = objective_means(flat, 100000, 1010)
        assert abs(mean10 - 0.1) <= 0.02
        elapsed = time.perf_counter() - t0
        assert elapsed < 30
        report("7 stable-rank lemma", elapsed, 30,
               f"min (mean objective x r') = {worst:.3f} >= 1/20 over 30 "
               f"profiles; flat d=10 mean {mean10:.4f} within 0.02 of 0.1")

    def test_08_robustness_counterexample(self):
        t0 = time.perf_counter()
        s, train, adv = fragile_counterexample(eps=0.01)
        frac = robustness_fraction(s, adv, 0.05)
        assert frac == 1.0  # flagged non-robust at delta = 0.05
        assert robustness_fraction(s, train, 0.05) == 1.0
        params = RobustnessParams(rho=0.0, delta=0.05, eps_grid=0.05)
        res = grid_search_robust_minimizer(train, params)
        assert res.feasible
        assert robustness_fraction(res.s, train, 0.05) == 0.0
        assert abs(float(res.s @ s)) < 0.99  # fragile direction excluded
        elapsed = time.perf_counter() - t0
        assert elapsed < 5
        report("8 robustness counterexample", elapsed, 5,
               f"fragile direction flagged (fraction {frac}); grid search at "
               f"rho=0 returns a robust direction away from it")

    def test_09_generalization_trend(self):
        t0 = time.perf_counter()
        params = RobustnessParams(rho=0.05, delta=0.05, eps_grid=0.05)
        sweep = generalization_gap_sweep([25, 100, 400], splits=20,
                                         holdout_count=2000, params=params,
                                         seed=1011)
        gaps = [g for _, g in sweep]
        assert gaps[0] > gaps[1] > gaps[2]
        elapsed = time.perf_counter() - t0
        assert elapsed < 120
        report("9 generalization trend", elapsed, 120,
               "mean |holdout-train| gap strictly decreases: "
               + ", ".join(f"N={n}: {g:.4f}" for n, g in sweep))

    def test_10_infrastructure_exactness(self, tmp_path):
        t0 = time.perf_counter()
        # scatter apply == densified fixed-order matmul, bit for bit
        for t in range(100):
            rng = rng_from(1012, t)
            n = int(rng.integers(2, 12))
            d = int(rng.integers(1, 8))
            m = int(rng.integers(1, 6))
            a = rng.standard_normal((n, d))
            s = sparse_random_sketch(m, n, derived_seed(1012, t))
            if t % 3 == 0:
                s = concat_sketches(s, sparse_random_sketch(m, n, derived_seed(1012, t, 1)))
            assert np.array_equal(apply_sketch(s, a), matmul(densify(s), a))
        # binary formats round-trip bit-exactly
        rng = rng_from(1013)
        a = rng.standard_normal((9, 5))
        save_dmat(tmp_path / "a.dmat", a)
        assert load_dmat(tmp_path / "a.dmat").tobytes() == a.tobytes()
        sk = concat_sketches(sparse_random_sketch(3, 9, 1),
                             sparse_random_sketch(2, 9, 2)).with_values(
                                 rng.standard_normal(18))
        save_sketch(tmp_path / "s.skch", sk)
        assert sketches_equal(load_sketch(tmp_path / "s.skch"), sk)
        assert load_sketch(tmp_path / "s.skch").value_of.tobytes() == sk.value_of.tobytes()
        # one master seed -> byte-identical results CSV across full reruns
        outputs = []
        for sub in ("r1", "r2"):
            out_dir = tmp_path / sub
            cfg = {"version": 1, "seed": 321, "out_dir": str(out_dir),
                   "datasets": [{"name": "d0", "kind": "spiked", "n": 16, "d": 12,
                                 "count_train": 3, "count_test": 2, "spikes": 2,
                                 "decay": 0.6, "noise": 0.05, "drift": 0.05,
                                 "seed": 5}],
                   "pairs": [[2, 4]], "sketch_types": ["sparse_random", "learned"],
                   "trials": 1,
                   "train": {"lr": 0.5, "iterations": 25, "power_iters": 15}}
            cfg_path = tmp_path / f"cfg_{sub}.json"
            cfg_path.write_text(json.dumps(cfg))
            assert cli_main(["gen-data", "--config", str(cfg_path)]) == 0
            assert cli_main(["train", "--config", str(cfg_path)]) == 0
            assert cli_main(["eval", "--config", str(cfg_path)]) == 0
            outputs.append((out_dir / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]
        elapsed = time.perf_counter() - t0
        report("10 infrastructure exactness", elapsed, 60,
               "100/100 bitwise sketch applications; DMAT1+SKCH1 round-trips "
               "bit-exact; rerun with same master seed gives identical results CSV")

import numpy as np
import pytest

from lrsketch.diffsvd import (PowerSvdConfig, backward, power_svd,
                              scw_forward_with_tape, scw_power_loss)
from lrsketch.linalg import SvdFactors, frobenius_norm, matmul, reference_svd
from lrsketch.seeding import rng_from
from lrsketch.sketch import sparse_random_sketch


def gapped_matrix(n, d, ratio, seed):
    """Matrix with singular values ratio^-i and random orthogonal factors."""
    rng = rng_from(seed)
    u = np.linalg.qr(rng.standard_normal((n, min(n, d))))[0]
    v = np.linalg.qr(rng.standard_normal((d, min(n, d))))[0]
    sig = float(ratio) ** -np.arange(min(n, d))
    return (u * sig) @ v.T


def subspace_angle(x, y):
    return float(np.arccos(min(1.0, abs(float(x @ y)))))


class TestPowerSvd:
    def test_diagonal_well_separated(self):
        f = power_svd(np.diag([4.0, 1.0]), PowerSvdConfig(t_iters=50, init_seed=1))
        assert np.allclose(f.sigma, [4.0, 1.0], atol=1e-9)
        assert np.allclose(np.abs(f.u), np.eye(2), atol=1e-9)
        assert np.allclose(np.abs(f.v), np.eye(2), atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_on_gapped_spectrum(self, seed):
        a = gapped_matrix(6, 4, 1.5, seed)
        f = power_svd(a, PowerSvdConfig(t_iters=200, init_seed=seed + 100))
        ref = reference_svd(a)
        assert f.rank == ref.rank
        assert np.abs(f.sigma - ref.sigma).max() < 1e-6 * ref.sigma[0]
        for j in range(f.rank):
            assert subspace_angle(f.u[:, j], ref.u[:, j]) < 1e-5
            assert subspace_angle(f.v[:, j], ref.v[:, j]) < 1e-5

    def test_rank_one_truncates_second_factor(self):
        rng = rng_from(7)
        a = np.outer(rng.standard_normal(6), rng.standard_normal(4))
        f = power_svd(a, PowerSvdConfig(t_iters=100, init_seed=3))
        assert f.rank == 1

    def test_factor_below_relative_tolerance_dropped(self):
        # one power round leaves the second sigma positive, far below 1e-12 * sigma_0
        f = power_svd(np.diag([1.0, 1e-13]), PowerSvdConfig(t_iters=1, init_seed=1))
        assert f.rank == 1 and f.sigma[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        f = power_svd(np.zeros((4, 3)), PowerSvdConfig(t_iters=10, init_seed=1))
        assert f.rank == 0

    def test_config_bounds_validated(self):
        with pytest.raises(ValueError, match="t_iters"):
            PowerSvdConfig(t_iters=0)

    def test_reconstruction(self):
        a = gapped_matrix(8, 5, 1.6, 11)
        f = power_svd(a, PowerSvdConfig(t_iters=200, init_seed=2))
        assert frobenius_norm(f.reconstruct() - a) < 1e-8


class TestForwardWithTape:
    def test_same_input_repeat_is_bit_identical(self):
        rng = rng_from(21)
        a = rng.standard_normal((8, 6))
        s = sparse_random_sketch(3, 8, seed=22)
        cfg = PowerSvdConfig(t_iters=60, init_seed=23)
        loss_1, tape_1 = scw_forward_with_tape(a, s, 2, cfg)
        loss_2, tape_2 = scw_forward_with_tape(a, s, 2, cfg)
        assert loss_1 == loss_2 == scw_power_loss(a, s, 2, cfg)
        assert backward(tape_1).tobytes() == backward(tape_2).tobytes()

    def test_matches_pipeline_built_from_power_svd(self):
        # same chain assembled from the public pieces, to tolerance
        a = gapped_matrix(8, 6, 1.5, 31)
        s = sparse_random_sketch(3, 8, seed=32)
        cfg = PowerSvdConfig(t_iters=200, init_seed=33)
        loss_t, _ = scw_forward_with_tape(a, s, 2, cfg)
        sa = np.zeros((3, 6))
        for j in range(8):
            sa[s.row_of[j]] += s.value_of[j] * a[j]
        f = power_svd(sa, cfg)
        av = matmul(a, f.v)
        f2 = power_svd(av, PowerSvdConfig(t_iters=200, init_seed=34))
        # deflation is sequential: the first two factors are those of a 2-factor run
        top2 = SvdFactors(f2.u[:, :2], f2.sigma[:2], f2.v[:, :2])
        approx = matmul(top2.reconstruct(), f.v.T)
        assert loss_t == pytest.approx(frobenius_norm(a - approx) ** 2, abs=1e-9)

    def test_low_rank_recovery_squared_loss_tiny(self):
        rng = rng_from(41)
        a = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 6))
        s = sparse_random_sketch(3, 8, seed=42)
        loss, _ = scw_forward_with_tape(a, s, 2, PowerSvdConfig(t_iters=60, init_seed=43))
        assert loss < 1e-12

    def test_node_count_depends_only_on_shapes(self):
        rng = rng_from(51)
        s = sparse_random_sketch(3, 8, seed=52)
        cfg = PowerSvdConfig(t_iters=30, init_seed=53)
        sizes = set()
        for _ in range(3):
            a = rng.standard_normal((8, 6))
            _, tape = scw_forward_with_tape(a, s.with_values(rng.standard_normal(8)),
                                            2, cfg)
            sizes.add(len(tape))
        assert len(sizes) == 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            scw_forward_with_tape(np.zeros((5, 3)), sparse_random_sketch(2, 4, 0),
                                  1, PowerSvdConfig(t_iters=5))


class TestBackward:
    def gradcheck(self, a, s, k, cfg, h=1e-5, rtol=1e-4, atol=1e-6):
        _, tape = scw_forward_with_tape(a, s, k, cfg)
        g = backward(tape)
        vals = s.value_of
        for i in range(vals.shape[0]):
            vp, vm = vals.copy(), vals.copy()
            vp[i] += h
            vm[i] -= h
            fd = (scw_power_loss(a, s.with_values(vp), k, cfg)
                  - scw_power_loss(a, s.with_values(vm), k, cfg)) / (2 * h)
            assert abs(g[i] - fd) <= atol + rtol * abs(fd), (
                f"coordinate {i}: autodiff {g[i]} vs finite difference {fd}")

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_matches_finite_differences(self, seed):
        rng = rng_from(60, seed)
        a = rng.standard_normal((8, 6))
        s = sparse_random_sketch(3, 8, seed=61 + seed)
        self.gradcheck(a, s, 2, PowerSvdConfig(t_iters=60, init_seed=62 + seed))

    def test_gradient_zero_at_exact_recovery(self):
        rng = rng_from(70)
        a = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 6))
        s = sparse_random_sketch(3, 8, seed=71)
        _, tape = scw_forward_with_tape(a, s, 2, PowerSvdConfig(t_iters=60, init_seed=72))
        assert np.abs(backward(tape)).max() < 1e-8

    def test_gradient_through_mixed_block_structure(self):
        from lrsketch.sketch import concat_sketches

        rng = rng_from(95)
        a = rng.standard_normal((8, 6))
        s = concat_sketches(sparse_random_sketch(2, 8, seed=96),
                            sparse_random_sketch(2, 8, seed=97))
        self.gradcheck(a, s, 2, PowerSvdConfig(t_iters=60, init_seed=98))

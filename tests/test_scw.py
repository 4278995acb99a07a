import tracemalloc

import numpy as np
import pytest

from lrsketch.diffsvd import PowerSvdConfig, backward, scw_forward_with_tape
from lrsketch.evalbench import DatasetSpec, generate_dataset
from lrsketch.linalg import (as_matrix, best_rank_k, frobenius_norm, matmul, rank,
                             reference_svd, singular_values, stack_svd, svd)
from lrsketch import linalg, scw
from lrsketch.scw import (check_concat_dominance, sa_loss_and_grad_stack, scw_approximate,
                          scw_loss, scw_loss_and_grad, scw_losses, sq_losses)
from lrsketch.seeding import rng_from
from lrsketch.sketch import (DenseSketch, SparseSketch, SketchBlock, apply_sketch,
                             concat_sketches, dense_random_sketch, densify, empty_sketch,
                             grad_index, identity_pattern_sketch, sparse_random_sketch)


def lapack_scw_loss(a, s, k):
    """Independent pipeline: densified sketch, every SVD via LAPACK."""
    sa = densify(s) @ a
    u, sig, vt = np.linalg.svd(sa, full_matrices=False)
    r = int((sig > 1e-10 * sig[0]).sum()) if sig.size and sig[0] > 0 else 0
    if r == 0:
        return float(np.linalg.norm(a))
    v = vt[:r].T
    av = a @ v
    u2, sig2, vt2 = np.linalg.svd(av, full_matrices=False)
    kk = min(k, int((sig2 > 1e-10 * sig2[0]).sum()) if sig2[0] > 0 else 0)
    avk = (u2[:, :kk] * sig2[:kk]) @ vt2[:kk]
    return float(np.linalg.norm(a - avk @ v.T))


class TestScwApproximate:
    def test_exact_recovery_low_rank(self):
        rng = rng_from(0)
        a = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 5))
        s = sparse_random_sketch(4, 7, seed=1)
        out = scw_approximate(a, s, 2)
        assert out.loss < 1e-8

    def test_identity_sketch_matches_best_rank_k(self):
        rng = rng_from(1)
        a = rng.standard_normal((6, 5))
        out = scw_approximate(a, identity_pattern_sketch(6), 2)
        assert frobenius_norm(out.approx - best_rank_k(a, 2)) < 1e-8

    def test_matches_independent_pipeline(self):
        rng = rng_from(2)
        a = rng.standard_normal((6, 5))
        s = sparse_random_sketch(3, 6, seed=3)
        assert scw_loss(a, s, 2) == pytest.approx(lapack_scw_loss(a, s, 2), abs=1e-8)

    def test_zero_rank_sketch_output(self):
        rng = rng_from(3)
        a = rng.standard_normal((4, 3))
        s = SparseSketch(4, (SketchBlock(2, np.array([0, 0, 1, 1]),
                                         np.zeros(4), np.ones(4, dtype=bool)),))
        out = scw_approximate(a, s, 2)
        assert np.array_equal(out.approx, np.zeros_like(a))
        assert out.loss == pytest.approx(frobenius_norm(a))
        assert out.v_basis.shape == (3, 0)

    def test_output_rank_at_most_k(self):
        rng = rng_from(4)
        a = rng.standard_normal((8, 6))
        out = scw_approximate(a, sparse_random_sketch(5, 8, seed=5), 2)
        assert reference_svd(out.approx).rank <= 2

    def test_rowspace_inside_v_basis(self):
        rng = rng_from(5)
        a = rng.standard_normal((8, 6))
        out = scw_approximate(a, sparse_random_sketch(4, 8, seed=6), 3)
        proj = matmul(matmul(out.approx, out.v_basis), out.v_basis.T)
        assert frobenius_norm(out.approx - proj) < 1e-8

    def test_k_larger_than_m_allowed(self):
        rng = rng_from(6)
        a = rng.standard_normal((8, 6))
        out = scw_approximate(a, sparse_random_sketch(2, 8, seed=7), 5)
        assert reference_svd(out.approx).rank <= 2  # capped by rank(SA)

    def test_dense_sketch_accepted(self):
        from lrsketch.sketch import dense_random_sketch

        rng = rng_from(7)
        a = rng.standard_normal((8, 6))
        d = dense_random_sketch(3, 8, seed=8)
        out = scw_approximate(a, d, 2)
        assert reference_svd(out.approx).rank <= 2
        assert out.loss >= frobenius_norm(a - best_rank_k(a, 2)) - 1e-9

    def test_single_row_matrix(self):
        a = np.array([[3.0, 4.0, 0.0]])
        s = identity_pattern_sketch(1)
        out = scw_approximate(a, s, 1)
        assert out.loss < 1e-10


class TestScwLoss:
    def test_zero_matrix(self):
        assert scw_loss(np.zeros((4, 3)), sparse_random_sketch(2, 4, 0), 1) == 0.0

    def test_never_beats_optimal(self):
        for seed in range(10):
            rng = rng_from(seed)
            a = rng.standard_normal((6, 5))
            k = int(rng.integers(1, 4))
            s = sparse_random_sketch(int(rng.integers(1, 5)), 6, seed=seed)
            optimal = frobenius_norm(a - best_rank_k(a, k))
            assert scw_loss(a, s, k) >= optimal - 1e-9

    def test_specific_instance_equals_oracle(self):
        rng = rng_from(12)
        a = rng.standard_normal((4, 4))
        s = sparse_random_sketch(2, 4, seed=13)
        assert scw_loss(a, s, 2) == pytest.approx(lapack_scw_loss(a, s, 2), abs=1e-8)


def fd_grad(a, s, k, h=1e-6):
    """Central finite differences of scw_loss ** 2 w.r.t. s's stored values."""
    vals = s.value_of
    out = np.zeros(vals.shape[0])
    for j in range(vals.shape[0]):
        vp, vm = vals.copy(), vals.copy()
        vp[j] += h
        vm[j] -= h
        out[j] = (scw_loss(a, s.with_values(vp), k) ** 2
                  - scw_loss(a, s.with_values(vm), k) ** 2) / (2 * h)
    return out


def residual_free_loss(a, s, k):
    """||A||^2 - sum_{i <= min(k, rank B)} sigma_i(B)^2 with B = AV, clamped at 0.

    The identity the step loss is taken from, built here from linalg.svd:
    the bit-for-bit reference of scw_loss_and_grad's loss.
    """
    a = as_matrix(a)
    sq_norm = frobenius_norm(a) ** 2
    f = svd(apply_sketch(s, a))
    if f.rank == 0:
        return sq_norm
    sigma = svd(a @ f.v).sigma[:k]
    return max(sq_norm - float(sigma @ sigma), 0.0)


def assert_step_loss(loss, a, s, k):
    """loss is residual_free_loss bit for bit, within 1e-13 ||A||^2 of scw_loss ** 2."""
    assert loss == residual_free_loss(a, s, k)
    assert abs(loss - scw_loss(a, s, k) ** 2) <= 1e-13 * frobenius_norm(a) ** 2


def reference_sa_loss_and_grad(a, sa, k, index):
    """The step kernel as it was before the residual-free loss: the gradient's oracle.

    It builds [AV]_k V^T and scores the residual; its gradient expression is
    the one the step kernel keeps, bit for bit at full rank.
    """
    f = svd(sa)
    if f.rank == 0:
        return frobenius_norm(a) ** 2, np.zeros(index.shape[0])
    b = a @ f.v
    fb = svd(b)
    r = min(k, fb.rank)
    uk = fb.u[:, :r]
    approx = ((uk * fb.sigma[:r]) @ fb.v[:, :r].T) @ f.v.T
    ua = uk.T @ a
    g_sa = (f.u / f.sigma) @ (b.T @ uk) @ (ua - (ua @ f.v) @ f.v.T)
    g_s = -2.0 * (g_sa @ a.T)
    return frobenius_norm(a - approx) ** 2, g_s.take(index)


def kernel_of_one(a, sa, k, index, sq_norm):
    """The step kernel on one matrix, as a stack of one: its loss and its
    gradient gathered at index; ValueError on a non-finite SA or B."""
    losses, grads, bad = sa_loss_and_grad_stack(a[None], sa[None], k, np.array([sq_norm]))
    if bad[0]:
        raise linalg.non_finite("SVD input")
    return float(losses[0]), grads[0].take(index)


def sq_loss_oracle(a, sa, k, sq_norm):
    """max(||A||^2 - sum_{i <= min(k, rank B)} sigma_i(B)^2, 0) from the signed
    `svd` of SA and the singular values of B = AV: the oracle of sq_losses."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    f = svd(sa)
    if f.rank == 0:
        return sq_norm
    sigma = singular_values(a @ f.v)
    sk = sigma[:min(k, rank(sigma))]
    return max(sq_norm - float(sk @ sk), 0.0)


def full_rank(a, sa, k):
    """SA of full rank and B = AV's top min(k, ...) singular values above the
    rank rule: the slices whose bytes the masks leave as they are."""
    f = svd(sa)
    return f.rank == min(sa.shape) and svd(a @ f.v).rank >= min(k, a.shape[0], f.rank)


def grad_scale(a, sa):
    """||A||_F^3 / sigma_r(SA), r = rank SA: the size of the gradient's terms,
    U Sigma^-1 (B^T U_k) U_k^T A A^T, so of its rounding. Where the gradient
    vanishes (SA's row space holds A's), what is computed is rounding of this size."""
    f = svd(sa)
    return frobenius_norm(a) ** 3 / f.sigma[-1] if f.rank else 0.0


def assert_kept(got, want, exact, scale):
    """got is want byte for byte where exact, else within 1e-14 * scale."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    if exact:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.abs(got - want).max(initial=0.0) <= 1e-14 * scale


def jittered(s, seed):
    """s with its stored values scaled by factors in [0.5, 1.5)."""
    return s.with_values(s.value_of * rng_from(seed).uniform(0.5, 1.5, s.value_of.shape[0]))


class TestScwLossAndGrad:
    def test_matches_tape_on_bundle_shape(self):
        spec = DatasetSpec(name="b", kind="spiked", n=64, d=48, count_train=1,
                           count_test=1, spikes=4, decay=0.8, noise=0.1, drift=0.05,
                           seed=11)
        a = generate_dataset(spec)[0][0]
        s = jittered(sparse_random_sketch(8, 64, seed=70), 71)
        loss, grad = scw_loss_and_grad(a, s, 4)
        tape_loss, tape = scw_forward_with_tape(a, s, 4, PowerSvdConfig(t_iters=100))
        tape_grad = backward(tape)
        assert loss == pytest.approx(tape_loss, rel=1e-10)
        assert np.abs(grad - tape_grad).max() <= 1e-10 * np.abs(tape_grad).max()

    def test_tape_matches_on_frozen_block(self):
        # both gradients cover every stored value; masking is the trainer's job
        spec = DatasetSpec(name="f", kind="spiked", n=24, d=16, count_train=1,
                           count_test=1, spikes=3, decay=0.8, noise=0.1, drift=0.05,
                           seed=12)
        a = generate_dataset(spec)[0][0]
        b = sparse_random_sketch(2, 24, seed=84).blocks[0]
        frozen = SparseSketch(24, (SketchBlock(b.m, b.row_of, b.value_of,
                                               np.zeros(24, dtype=bool)),))
        s = concat_sketches(jittered(sparse_random_sketch(4, 24, seed=85), 86), frozen)
        grad = scw_loss_and_grad(a, s, 3)[1]
        _, tape = scw_forward_with_tape(a, s, 3, PowerSvdConfig(t_iters=100))
        tape_grad = backward(tape)
        assert np.all(tape_grad[24:] != 0.0)
        assert np.abs(grad - tape_grad).max() <= 1e-10 * np.abs(tape_grad).max()

    @pytest.mark.parametrize("seed", range(4))
    def test_loss_is_squared_scw_loss_bitwise(self, seed):
        rng = rng_from(72, seed)
        a = rng.standard_normal((10, 7))
        s = jittered(sparse_random_sketch(4, 10, seed=seed), seed)
        assert_step_loss(scw_loss_and_grad(a, s, 2)[0], a, s, 2)

    def test_exact_recovery_reads_zero_or_rounding(self):
        # identity sketch, rank-2 8x6 A, k=3: [AV]_k V^T = A, and the
        # squared residual reads about 1e-29. The subtraction lands within a few eps
        # of 0 on either side, and the clamp turns the negative side into 0.0
        zeros = 0
        for t in range(100):
            rng = rng_from(89, t)
            a = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 6))
            s = identity_pattern_sketch(8)
            loss = scw_loss_and_grad(a, s, 3)[0]
            assert_step_loss(loss, a, s, 3)
            assert 0.0 <= loss <= 1e-13 * frobenius_norm(a) ** 2
            zeros += loss == 0.0
        assert zeros > 0

    @pytest.mark.parametrize("n, d, m, k", [(9, 6, 3, 2), (12, 8, 5, 3), (7, 10, 4, 1)])
    def test_matches_finite_differences(self, n, d, m, k):
        rng = rng_from(73, n, d)
        a = rng.standard_normal((n, d))
        s = jittered(sparse_random_sketch(m, n, seed=n + d), m)
        grad = scw_loss_and_grad(a, s, k)[1]
        assert np.abs(grad - fd_grad(a, s, k)).max() <= 1e-6 * np.abs(grad).max()

    def test_matches_finite_differences_on_two_block_sketch(self):
        a = rng_from(74).standard_normal((10, 7))
        b = sparse_random_sketch(2, 10, seed=75).blocks[0]
        frozen = SparseSketch(10, (SketchBlock(b.m, b.row_of, b.value_of,
                                               np.zeros(10, dtype=bool)),))
        s = concat_sketches(jittered(sparse_random_sketch(3, 10, seed=76), 77), frozen)
        grad = scw_loss_and_grad(a, s, 2)[1]
        assert grad.shape == (20,)
        assert np.abs(grad - fd_grad(a, s, 2)).max() <= 1e-6 * np.abs(grad).max()

    def test_full_row_space_has_zero_gradient(self):
        # m > d and SA of rank d: the projector is I whatever the values
        a = rng_from(78).standard_normal((12, 4))
        s = jittered(identity_pattern_sketch(12), 79)
        loss, grad = scw_loss_and_grad(a, s, 2)
        assert loss == pytest.approx(frobenius_norm(a - best_rank_k(a, 2)) ** 2, rel=1e-10)
        assert np.abs(grad).max() <= 1e-12

    @pytest.mark.parametrize("blocks", [1, 2])
    def test_rows_gradient_orthogonal_to_values(self, blocks):
        # scaling a row of S keeps the row space of SA, so the loss is flat
        # along each row's values: sum over the row of v_j * g_j = 0. The
        # bound is relative to the rounding scale of that sum: g divides by
        # SA's singular values, and a row whose own gradient vanishes (one
        # entry, g_j = 0) has no scale of its own.
        checked = 0
        for t in range(200):
            rng = rng_from(87, blocks, t)
            m = int(rng.integers(1, 5))
            d = int(rng.integers(blocks * m + 1, 12))
            n = int(rng.integers(d + 1, 16))
            a = rng.standard_normal((n, d))
            s = jittered(sparse_random_sketch(m, n, seed=t), t)
            if blocks == 2:
                s = concat_sketches(s, jittered(sparse_random_sketch(m, n, seed=t + 1000), t))
            sv = np.linalg.svd(densify(s) @ a, compute_uv=False)
            rank = int(np.sum(sv > 1e-10 * sv[0]))
            if rank in (d, np.linalg.matrix_rank(a)):
                continue  # the gradient is rounding noise there
            grad = scw_loss_and_grad(a, s, int(rng.integers(1, blocks * m + 1)))[1]
            along = np.bincount(s.row_of, weights=s.value_of * grad, minlength=s.m)
            reach = np.abs(s.value_of) * np.tile(np.linalg.norm(a, axis=1), blocks)
            scale = np.bincount(s.row_of, weights=reach, minlength=s.m) * np.sum(a * a) / sv[rank - 1]
            assert np.all(np.abs(along) <= 1e-13 * scale)
            checked += 1
        assert checked >= 150

    def test_zero_row_is_finite_with_zero_gradient(self):
        a = rng_from(80).standard_normal((10, 6))
        s = jittered(sparse_random_sketch(4, 10, seed=81), 82)
        vals = np.where(s.row_of == s.row_of[0], 0.0, s.value_of)
        s = s.with_values(vals)
        loss, grad = scw_loss_and_grad(a, s, 2)
        assert_step_loss(loss, a, s, 2)
        assert np.all(np.isfinite(grad))
        assert np.abs(grad[s.row_of == s.row_of[0]]).max() <= 1e-12

    def test_all_values_zero(self):
        a = rng_from(83).standard_normal((6, 5))
        s = sparse_random_sketch(3, 6, seed=84)
        loss, grad = scw_loss_and_grad(a, s.with_values(np.zeros(6)), 2)
        assert loss == frobenius_norm(a) ** 2
        assert np.array_equal(grad, np.zeros(6))

    def test_tied_singular_values_at_k(self):
        # sigma_2(B) = sigma_3(B): the loss is not differentiable there
        q1 = np.linalg.qr(rng_from(85).standard_normal((8, 5)))[0]
        q2 = np.linalg.qr(rng_from(86).standard_normal((5, 5)))[0]
        a = (q1 * np.array([1.0, 0.5, 0.5, 0.2, 0.1])) @ q2.T
        s = identity_pattern_sketch(8)
        loss, grad = scw_loss_and_grad(a, s, 2)
        assert_step_loss(loss, a, s, 2)
        assert np.all(np.isfinite(grad))


class TestGradientBitsKept:
    """The step kernel's gradient equals reference_sa_loss_and_grad's byte for
    byte where SA and B are of full rank, and within 1e-14 of the size of its
    terms (grad_scale) where the masks cut a slice to its rank."""

    @pytest.mark.parametrize("kind", ["plain", "rank_deficient", "zeroed_rows", "two_block"])
    def test_matches_reference_kernel(self, kind):
        k_at_rank = exact = 0
        for t in range(60):
            rng = rng_from(90, len(kind), t)
            m = int(rng.integers(1, 6))
            n, d = int(rng.integers(m + 1, 16)), int(rng.integers(1, 12))
            a = rng.standard_normal((n, d))
            if kind == "rank_deficient":  # rank(SA) <= rank(A) = 1
                a = rng.standard_normal((n, 1)) @ rng.standard_normal((1, d))
            s = jittered(sparse_random_sketch(m, n, seed=t), t)
            if kind == "zeroed_rows":
                s = s.with_values(np.where(s.row_of == s.row_of[0], 0.0, s.value_of))
            if kind == "two_block":
                s = concat_sketches(s, sparse_random_sketch(int(rng.integers(1, 4)), n, seed=t + 500))
            k = int(rng.integers(1, s.m + 3))
            sa, index = apply_sketch(s, a), grad_index(s)
            loss, grad = kernel_of_one(a, sa, k, index, frobenius_norm(a) ** 2)
            ref_loss, ref_grad = reference_sa_loss_and_grad(a, sa, k, index)
            full = full_rank(a, sa, k)
            assert_kept(grad, ref_grad, full, grad_scale(a, sa))
            assert abs(loss - ref_loss) <= 1e-13 * frobenius_norm(a) ** 2
            k_at_rank += k >= svd(sa).rank
            exact += full
        assert k_at_rank >= 10
        assert exact >= {"plain": 50, "two_block": 40, "zeroed_rows": 10}.get(kind, 0)


def mixed_rank_sketches(n, m, seed):
    """m-row sketches over n columns: a jittered sparse one of full rank, one
    with an empty row (no column hits row m - 1), one with every column on one
    row (SA of rank 1), one with zero values (SA of rank 0), and a dense one."""
    empty = SketchBlock(m, np.arange(n) % (m - 1), np.ones(n), np.ones(n, bool))
    one = SketchBlock(m, np.zeros(n, dtype=np.int64), np.ones(n), np.ones(n, bool))
    return [jittered(sparse_random_sketch(m, n, seed), seed),
            jittered(SparseSketch(n, (empty,)), seed + 1),
            jittered(SparseSketch(n, (one,)), seed + 2),
            sparse_random_sketch(m, n, seed + 3).with_values(np.zeros(n)),
            dense_random_sketch(m, n, seed + 4)]


def no_lone_scorer(monkeypatch):
    """Make every one-matrix scorer raise: a pass must score each slice itself."""
    def alone(*args):
        raise AssertionError("a slice was scored alone")
    for name in ("scw_loss", "scw_approximate", "scw_loss_and_grad"):
        monkeypatch.setattr(scw, name, alone)


class TestStackedKernels:
    """Each slice of the stacked kernels equals its own stack of one, byte for byte."""

    @staticmethod
    def stack(n, d, m, count, seed):
        rng = rng_from(seed, n, d)
        mats = [rng.standard_normal((n, d)) for _ in range(count)]
        sketches = [jittered(sparse_random_sketch(m, n, seed=seed + i), seed + i)
                    for i in range(count)]
        sa = np.stack([apply_sketch(s, a) for s, a in zip(sketches, mats)])
        return np.stack(mats), sketches, sa

    @pytest.mark.parametrize("n,d,m,k", [(32, 24, 6, 3), (64, 48, 8, 4), (12, 9, 4, 6),
                                         (256, 192, 8, 4)])
    def test_slices_equal_own_calls(self, n, d, m, k):
        a, sketches, sa = self.stack(n, d, m, 3, 62)  # every SA of full rank
        sq_norms = np.array([frobenius_norm(x) ** 2 for x in a])
        losses, grads, bad = sa_loss_and_grad_stack(a, sa, k, sq_norms)
        assert not bad.any()
        residuals = scw_losses(list(a), sketches, k)
        for i, s in enumerate(sketches):
            loss, grad = kernel_of_one(a[i], sa[i], k, grad_index(s), sq_norms[i])
            assert np.float64(loss).tobytes() == losses[i].tobytes()
            assert grads[i].take(grad_index(s)).tobytes() == grad.tobytes()
            assert np.float64(scw_loss(a[i], s, k)).tobytes() == residuals[i, i].tobytes()

    def test_rank_zero_b_scores_its_norm(self):
        a, sketches, sa = self.stack(12, 9, 4, 3, 62)
        a[1] = 0.0  # SA is kept, so its slices stay full rank; B = AV is zero there
        sq_norms = np.array([frobenius_norm(x) ** 2 for x in a])
        losses, grads, bad = sa_loss_and_grad_stack(a, sa, 2, sq_norms)
        assert not bad.any() and losses[1] == 0.0 and not grads[1].any()
        for i in (0, 2):
            loss, grad = kernel_of_one(a[i], sa[i], 2, grad_index(sketches[i]), sq_norms[i])
            assert np.float64(loss).tobytes() == losses[i].tobytes()
            assert grads[i].take(grad_index(sketches[i])).tobytes() == grad.tobytes()

    @pytest.mark.parametrize("n,d,m,k", [(32, 24, 6, 3), (64, 48, 8, 4), (12, 9, 4, 6),
                                         (9, 3, 5, 2), (256, 192, 8, 4)])
    def test_mixed_rank_stack(self, n, d, m, k):
        # full-rank, empty-row, one-row and zero-value slices in one stack
        rng = rng_from(67, n, d)
        sketches = mixed_rank_sketches(n, m, 68)
        mats = [rng.standard_normal((n, d)) for _ in sketches]
        a = np.stack(mats)
        sa = np.stack([apply_sketch(s, x) for s, x in zip(sketches, mats)])
        sq_norms = np.array([frobenius_norm(x) ** 2 for x in mats])
        losses, grads, bad = sa_loss_and_grad_stack(a, sa, k, sq_norms)
        assert not bad.any()
        full = [full_rank(x, y, k) for x, y in zip(mats, sa)]
        assert full[4] and not any(full[2:4]) and full[1] == (m > d)
        for i, s in enumerate(sketches):
            index = np.arange(m * n)
            loss, grad = kernel_of_one(mats[i], sa[i], k, index, sq_norms[i])
            if full[i]:  # its own stack of one, byte for byte
                assert np.float64(loss).tobytes() == losses[i].tobytes()
                assert grads[i].ravel().tobytes() == grad.tobytes()
            ref_loss, ref_grad = reference_sa_loss_and_grad(mats[i], sa[i], k, index)
            assert_kept(grads[i].ravel(), ref_grad, False, grad_scale(mats[i], sa[i]))
            assert abs(losses[i] - ref_loss) <= 1e-13 * sq_norms[i]
        assert losses[3] == sq_norms[3] and not grads[3].any()  # rank 0

    @pytest.mark.parametrize("n,d,m,k", [(32, 24, 6, 3), (64, 48, 8, 4), (12, 9, 4, 6),
                                         (9, 3, 5, 2), (256, 192, 8, 4)])
    @pytest.mark.parametrize("case", ["full", "empty_row", "zero_matrix", "two_widths"])
    def test_scorer_slices_equal_own_calls(self, n, d, m, k, case, monkeypatch):
        a, sketches, _ = self.stack(n, d, m, 3, 63)
        mats = list(a)
        sketches.append(concat_sketches(sparse_random_sketch(m - 1, n, 64),
                                        sparse_random_sketch(1, n, 65)))
        if case == "empty_row":  # no column hits row m - 1: SA is below full rank
            block = SketchBlock(m, np.arange(n) % (m - 1), np.ones(n), np.ones(n, bool))
            sketches.insert(1, SparseSketch(n, (block,)))
        if case == "zero_matrix":  # B = AV is zero
            mats[1] = np.zeros((n, d))
        if case == "two_widths":  # two passes, one per shape
            mats.insert(1, rng_from(66).standard_normal((n, d + 2)))
        sq_norms = [frobenius_norm(x) ** 2 for x in mats]
        with monkeypatch.context() as patch:
            no_lone_scorer(patch)
            got = sq_losses(mats, sketches, k, sq_norms)
        assert got.shape == (len(sketches), len(mats))
        deficient = 0
        for i, s in enumerate(sketches):
            for t, x in enumerate(mats):
                sa = apply_sketch(s, x)
                full = full_rank(x, sa, k)
                assert_kept(got[i, t], sq_loss_oracle(x, sa, k, sq_norms[t]), full, sq_norms[t])
                deficient += not full
        assert deficient >= {"full": 0, "two_widths": 0, "zero_matrix": len(sketches),
                             "empty_row": len(mats) if m <= d else 0}[case]


def b_sign_case(seed):
    """(A, SA, k) for the kernels, which take any SA: random shapes, with
    rank-deficient SA, rank-deficient B = AV under a full-rank SA, and k
    often above the rank."""
    rng = rng_from(seed, 93)
    m, d = (int(x) for x in rng.integers(1, 9, 2))
    n = int(rng.integers(1, 24))
    a = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3)
    sa = rng.standard_normal((m, d))
    if seed % 4 == 1:  # rank(SA) <= 1
        sa = rng.standard_normal((m, 1)) @ rng.standard_normal((1, d))
    if seed % 4 == 2:  # rank(B) <= rank(A) = 1
        a = rng.standard_normal((n, 1)) @ rng.standard_normal((1, d))
    return a, sa, int(rng.integers(1, min(m, d) + 3))


def deficient_b_sketch():
    """(A, dense S): SA is of rank 2 and well conditioned; B = AV has singular
    values 1e12 apart, so B keeps rank 1."""
    a1, a2 = np.eye(5)[0] * 3.0, np.eye(5)[1] * 1e-12
    a = np.vstack([a2, np.outer([1.0, -2.0, 0.5], a1)])
    s = np.zeros((2, 4))
    s[0, 0], s[1, 1] = 1e12, 1.0
    return a, DenseSketch(s)


def signing(which: str):
    """stack_svd with the sign rule on every slice's columns, uncut, for SA's SVD
    ("sa"), B's ("b") or both: the oracle. Each kernel and each scoring pass
    takes SA's SVD first and B's second."""
    calls = []

    def signed_stack_svd(x, compute_uv=True):
        got, keep, bad = stack_svd(x, compute_uv)
        calls.append(("sa", "b")[len(calls) % 2])
        if compute_uv and which in ("both", calls[-1]):
            for u, sigma, v in zip(*got):  # each slice's columns, uncut, in place
                f = linalg.signed(u, sigma, v)
                u[...], v[...] = f.u, f.v
        return got, keep, bad
    return signed_stack_svd


def same_with_signs(monkeypatch, which, fn, *args):
    """fn(*args) agrees byte for byte with itself under signing(which)."""
    got = fn(*args)
    with monkeypatch.context() as patch:
        patch.setattr(scw, "stack_svd", signing(which))
        want = fn(*args)
    got = got if isinstance(got, tuple) else (got,)
    want = want if isinstance(want, tuple) else (want,)
    assert len(got) == len(want)
    for x, y in zip(got, want):
        x, y = np.asarray(x), np.asarray(y)
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


class TestBNeedsNoSignRule:
    """B = AV takes its SVD without the sign rule: its factors only meet in
    products where a column's sign cancels exactly. Every kernel gives the
    bytes it gives with the sign rule on B's SVD, the oracle."""

    def test_kernel(self, monkeypatch):
        ranks = set()
        for seed in range(400):
            a, sa, k = b_sign_case(seed)
            index = np.arange(sa.shape[0] * a.shape[0])
            same_with_signs(monkeypatch, "b", kernel_of_one, a, sa, k, index,
                            frobenius_norm(a) ** 2)
            f = svd(sa)
            if f.rank:
                rb = svd(a @ f.v).rank
                ranks.add((f.rank, rb, k > rb))
            _, _, _, _, (uk, _, vk), _ = scw._solve(a[None], sa[None], k)
            assert uk[0].flags.f_contiguous and vk[0].flags.f_contiguous
        # rank-deficient SA, B below SA's rank and k above B's rank all occur
        assert any(r < 3 for r, _, _ in ranks) and any(rb < r for r, rb, _ in ranks)
        assert any(above for _, _, above in ranks)

    def test_scw_approximate(self, monkeypatch):
        rng = rng_from(94)
        cases = [deficient_b_sketch() + (2,)]
        for t in range(200):
            n, d, m = int(rng.integers(2, 30)), int(rng.integers(1, 20)), int(rng.integers(1, 9))
            a = rng.standard_normal((n, d))
            if t % 3 == 1:
                a = rng.standard_normal((n, 1)) @ rng.standard_normal((1, d))
            s = (jittered(sparse_random_sketch(m, n, seed=t), t) if t % 2
                 else dense_random_sketch(m, n, t))
            cases.append((a, s, int(rng.integers(1, m + 3))))
        for a, s, k in cases:
            same_with_signs(monkeypatch, "b", lambda *args: (
                lambda out: (out.approx, out.v_basis, out.loss))(scw_approximate(*args)), a, s, k)
        a, s = deficient_b_sketch()
        f = svd(apply_sketch(s, a))
        assert f.rank == 2 and svd(a @ f.v).rank == 1

    @pytest.mark.parametrize("n,d,m,k", [(32, 24, 6, 3), (64, 48, 8, 4), (12, 9, 4, 6),
                                         (9, 3, 5, 2), (256, 192, 8, 4)])
    def test_stacks(self, n, d, m, k, monkeypatch):
        rng = rng_from(95, n, d)
        for deficient in (None, "sa", "b"):
            a = rng.standard_normal((3, n, d))
            sa = rng.standard_normal((3, m, d))
            if deficient == "sa":
                sa[1, -1] = 0.0
            if deficient == "b":
                a[2] = 0.0
            sq_norms = np.array([frobenius_norm(x) ** 2 for x in a])
            same_with_signs(monkeypatch, "b", sa_loss_and_grad_stack, a, sa, k, sq_norms)
            sketches = [DenseSketch(x) for x in rng.standard_normal((2, m, n))]
            same_with_signs(monkeypatch, "b", scw_losses, list(a), sketches, k)
            full = [full_rank(x, y, k) for x, y in zip(a, sa)]
            # a zero row leaves SA of full rank when it has more rows than columns
            assert full == [True, deficient != "sa" or m > d, deficient != "b"]
            _, _, _, _, (uk, _, vk), bad = scw._solve(a, sa, k)
            assert not bad.any()
            assert all(uk[i].flags.f_contiguous and vk[i].flags.f_contiguous for i in range(3))


def sa_sign_sketches(n, m, seed):
    """m-row sketches over n columns: jittered sparse, one with an empty row
    (no column hits row m - 1), two blocks, and dense."""
    block = SketchBlock(m, np.arange(n) % (m - 1), np.ones(n), np.ones(n, bool))
    return [jittered(sparse_random_sketch(m, n, seed), seed),
            jittered(SparseSketch(n, (block,)), seed + 1),
            concat_sketches(sparse_random_sketch(m - 2, n, seed + 2),
                            jittered(sparse_random_sketch(2, n, seed + 3), seed + 3)),
            dense_random_sketch(m, n, seed + 4)]


class TestSaNeedsNoSignRuleInTraining:
    """No SVD of SA takes the sign rule in training or scoring: it returns no
    factor of it, and each meets its partner in products where a column's
    sign cancels exactly. The step kernel and the scorers give the bytes they
    give with the sign rule on SA's SVD, the oracle."""

    def test_kernels(self, monkeypatch):
        flipped = 0
        for seed in range(400):
            a, sa, k = b_sign_case(seed)
            sq_norm = frobenius_norm(a) ** 2
            same_with_signs(monkeypatch, "sa", kernel_of_one, a, sa, k,
                            np.arange(sa.shape[0] * a.shape[0]), sq_norm)
            s = DenseSketch(rng_from(seed, 92).standard_normal((sa.shape[0], a.shape[0])))
            if seed % 4 == 1:  # rank(SA) <= 1
                s = DenseSketch(np.outer(s.matrix[:, 0], s.matrix[0]))
            same_with_signs(monkeypatch, "sa", sq_losses, [a], [s], k, [sq_norm])
            (u, _, _), keep, _ = stack_svd(sa[None])
            r = int(keep.sum())
            flipped += r > 0 and not np.array_equal(u[0][:, :r], svd(sa).u)
        assert flipped >= 100  # LAPACK's signs break the rule often: the check has teeth

    @pytest.mark.parametrize("n,d,m,k", [(32, 24, 6, 3), (64, 48, 8, 4), (12, 9, 4, 6),
                                         (9, 3, 5, 2), (256, 192, 8, 4)])
    def test_stacks(self, n, d, m, k, monkeypatch):
        rng = rng_from(96, n, d)
        mats = [rng.standard_normal((n, d)) for _ in range(3)] + [np.zeros((n, d))]
        sketches = sa_sign_sketches(n, m, 97)
        sq_norms = [frobenius_norm(x) ** 2 for x in mats]
        same_with_signs(monkeypatch, "sa", sq_losses, mats, sketches, k, sq_norms)
        same_with_signs(monkeypatch, "sa", scw_losses, mats, sketches, k)
        a = np.stack(mats[:3])
        for chosen in ((0, 2, 3), (3, 1, 0)):  # sketch 1 has an empty row
            sa = np.stack([apply_sketch(sketches[i], x) for i, x in zip(chosen, a)])
            same_with_signs(monkeypatch, "sa", sa_loss_and_grad_stack, a, sa, k,
                            np.array(sq_norms[:3]))
            full = all(full_rank(x, y, k) for x, y in zip(a, sa))
            assert full == (1 not in chosen or m > d)

    def test_v_basis_keeps_the_sign_rule(self):
        for seed in range(60):
            a, sa, k = b_sign_case(seed)
            s = DenseSketch(np.linalg.lstsq(a.T, sa.T, rcond=None)[0].T) if seed % 2 else \
                jittered(sparse_random_sketch(sa.shape[0], a.shape[0], seed), seed)
            f = svd(apply_sketch(s, a))
            v_basis = scw_approximate(a, s, k).v_basis
            assert v_basis.tobytes() == f.v.tobytes()
            if f.rank:
                peak = f.u[np.abs(f.u).argmax(axis=0), np.arange(f.rank)]
                assert (peak > 0).all()


class TestScwLosses:
    """scw_losses(mats, sketches, k)[i, t] is scw_loss(mats[t], sketches[i], k), byte
    for byte, and it raises what that loop, sketch by sketch, raises first."""

    N, D, M = 12, 9, 4

    @classmethod
    def sketches(cls, empty_row: bool):
        n, m = cls.N, cls.M
        out = [jittered(sparse_random_sketch(m, n, seed), seed) for seed in (80, 81)]
        out += [dense_random_sketch(m, n, seed) for seed in (82, 83)]
        out.append(concat_sketches(sparse_random_sketch(2, n, 84), sparse_random_sketch(2, n, 85)))
        if empty_row:  # no column hits row 3, so SA is rank-deficient on every matrix
            rows = np.arange(n) % (m - 1)
            out.insert(2, SparseSketch(n, (SketchBlock(m, rows, np.ones(n), np.ones(n, bool)),)))
        return out

    @classmethod
    def mats(cls, count=3):
        rng = rng_from(86)
        return [rng.standard_normal((cls.N, cls.D)) for _ in range(count)]

    @staticmethod
    def first_error(mats, sketches, k):
        try:
            for s in sketches:
                for a in mats:
                    scw_loss(a, s, k)
        except ValueError as exc:
            return exc
        raise AssertionError("the loop raised nothing")

    @pytest.mark.parametrize("empty_row", [False, True])
    @pytest.mark.parametrize("k", [2, 6])
    def test_equals_loop(self, empty_row, k, monkeypatch):
        mats, sketches = self.mats(), self.sketches(empty_row)
        want = np.array([[scw_loss(a, s, k) for a in mats] for s in sketches])
        with monkeypatch.context() as patch:
            no_lone_scorer(patch)  # the empty-row sketch's slices are scored in the pass
            got = scw_losses(mats, sketches, k)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_two_shapes_one_pass_each(self, monkeypatch):
        mats, sketches = self.mats(4), self.sketches(False)
        mats.insert(2, rng_from(87).standard_normal((self.N, self.D + 2)))
        want = np.array([[scw_loss(a, s, 3) for a in mats] for s in sketches])
        passes, alone, real = [], [], scw._scw_loss_pass
        monkeypatch.setattr(scw, "_scw_loss_pass", lambda ms, *args: (
            passes.append([a.shape for a in ms]) or real(ms, *args)))
        monkeypatch.setattr(scw, "scw_loss", lambda a, s, k: alone.append(s) or scw_loss(a, s, k))
        got = scw_losses(mats, sketches, 3)
        assert got.tobytes() == want.tobytes()
        assert passes == [[(self.N, self.D)] * 4, [(self.N, self.D + 2)]] and alone == []

    def test_residuals_freed_matrix_by_matrix(self, monkeypatch):
        # one matrix's (R, n, d) residual is freed before the next one's is built
        rng = rng_from(89)
        mats = [rng.standard_normal((64, 48)) for _ in range(3)]
        sketches = [sparse_random_sketch(8, 64, seed) for seed in range(5)]
        held, approx = [], scw._approx
        monkeypatch.setattr(scw, "_approx", lambda *args: (
            held.append(tracemalloc.get_traced_memory()[0]) or approx(*args)))
        tracemalloc.start()
        try:
            scw_losses(mats, sketches, 4)
        finally:
            tracemalloc.stop()
        residual = 5 * 64 * 48 * 8
        assert len(held) == 3 and max(held) - min(held) < residual // 2

    @pytest.mark.parametrize("scorer", ["scw_losses", "sq_losses"])
    def test_non_finite_b_slice(self, scorer, monkeypatch):
        # SA of the tiny-valued sketch on the huge matrix is finite and of full
        # rank, but B = AV overflows: the pass flags that slice, and the scorer
        # raises the loop's first error with no slice scored alone
        mats = self.mats()
        mats[1] = 1e308 * (1.0 + 0.5 * rng_from(88).uniform(size=(self.N, self.D)))
        tiny = sparse_random_sketch(self.M, self.N, 80).with_values(np.full(self.N, 1e-10))
        sketches = [tiny] + self.sketches(False)
        sa = apply_sketch(tiny, mats[1])
        assert np.isfinite(sa).all() and svd(sa).rank == self.M
        with np.errstate(over="ignore", invalid="ignore"):
            args = (mats, sketches, 2) + (([frobenius_norm(a) ** 2 for a in mats],)
                                          if scorer == "sq_losses" else ())
            assert not np.isfinite(mats[1] @ svd(sa).v).all()
            want = self.first_error(mats, sketches, 2)
            with monkeypatch.context() as patch, pytest.raises(ValueError) as got:
                no_lone_scorer(patch)
                getattr(scw, scorer)(*args)
        assert str(got.value) == str(want) == "SVD input contains non-finite entries"

    def test_no_sketches_or_matrices(self):
        assert scw_losses(self.mats(), [], 2).shape == (0, 3)
        assert scw_losses([], self.sketches(False), 2).shape == (5, 0)

    @pytest.mark.parametrize("case", ["non_finite_then_n", "n_first", "mixed_rows"])
    def test_raises_the_loops_first_error(self, case):
        mats, sketches = self.mats(), self.sketches(False)
        if case == "non_finite_then_n":  # sketch-major: (0, 1) non-finite before (4, 0) n
            mats[1][2, 3] = np.inf
            sketches[4] = sparse_random_sketch(self.M, self.N + 1, 87)
        elif case == "n_first":
            mats[2][0, 0] = np.nan
            sketches[0] = sparse_random_sketch(self.M, self.N - 1, 87)
        else:  # matrix 1 has other rows than every sketch
            mats[1] = np.ones((self.N + 2, self.D))
        want = self.first_error(mats, sketches, 2)
        with pytest.raises(ValueError) as got:
            scw_losses(mats, sketches, 2)
        assert str(got.value) == str(want)


class TestSqLosses:
    """sq_losses(mats, sketches, k, sq_norms)[i, t] is sq_loss_oracle on sketch i's SA of
    matrix t, byte for byte at full rank, and it raises what that loop, sketch
    by sketch, raises first."""

    @staticmethod
    def loop(mats, sketches, k):
        return np.array([[sq_loss_oracle(as_matrix(a), apply_sketch(s, a), k, frobenius_norm(a) ** 2)
                          for a in mats] for s in sketches]).reshape(len(sketches), len(mats))

    @pytest.mark.parametrize("empty_row", [False, True])
    def test_equals_loop(self, empty_row, monkeypatch):
        mats, sketches = TestScwLosses.mats(), TestScwLosses.sketches(empty_row)
        sq_norms = [frobenius_norm(a) ** 2 for a in mats]
        for k in (2, 6):
            with monkeypatch.context() as patch:
                no_lone_scorer(patch)
                got = sq_losses(mats, sketches, k, sq_norms)
            want = self.loop(mats, sketches, k)
            for i, s in enumerate(sketches):
                for t, a in enumerate(mats):
                    full = full_rank(a, apply_sketch(s, a), k)
                    assert_kept(got[i, t], want[i, t], full, sq_norms[t])
                    assert full or (empty_row and i == 2)
            assert np.allclose(got, scw_losses(mats, sketches, k) ** 2, rtol=1e-12)

    def test_no_sketches_or_matrices(self):
        assert sq_losses(TestScwLosses.mats(), [], 2, [1.0] * 3).shape == (0, 3)
        assert sq_losses([], TestScwLosses.sketches(False), 2, []).shape == (5, 0)

    @pytest.mark.parametrize("case", ["non_finite_then_n", "n_first", "mixed_rows", "k_zero"])
    def test_raises_the_loops_first_error(self, case):
        n, m, k = TestScwLosses.N, TestScwLosses.M, 2
        mats, sketches = TestScwLosses.mats(), TestScwLosses.sketches(False)
        if case == "non_finite_then_n":  # sketch-major: (0, 1) non-finite before (4, 0) n
            mats[1][2, 3] = np.inf
            sketches[4] = sparse_random_sketch(m, n + 1, 87)
        elif case == "n_first":
            mats[2][0, 0] = np.nan
            sketches[0] = sparse_random_sketch(m, n - 1, 87)
        elif case == "mixed_rows":  # matrix 1 has other rows than every sketch
            mats[1] = np.ones((n + 2, TestScwLosses.D))
        else:
            k = 0
        with pytest.raises(ValueError) as want:
            self.loop(mats, sketches, k)
        with pytest.raises(ValueError) as got:
            sq_losses(mats, sketches, k, [frobenius_norm(a) ** 2 for a in mats])
        assert str(got.value) == str(want.value)


class TestConcatDominance:
    def test_empty_second_sketch_equal(self):
        rng = rng_from(20)
        a = rng.standard_normal((6, 5))
        s1 = sparse_random_sketch(3, 6, seed=21)
        loss_star, loss_1 = check_concat_dominance(a, s1, empty_sketch(6), 2)
        assert loss_star == loss_1

    def test_hundred_random_draws(self):
        for t in range(100):
            rng = rng_from(30, t)
            n = int(rng.integers(2, 11))
            d = int(rng.integers(2, 11))
            a = rng.standard_normal((n, d))
            s1 = sparse_random_sketch(int(rng.integers(1, 4)), n, seed=3 * t + 1)
            s2 = sparse_random_sketch(int(rng.integers(1, 4)), n, seed=3 * t + 2)
            k = int(rng.integers(1, 4))
            loss_star, loss_1 = check_concat_dominance(a, s1, s2, k)
            assert loss_star <= loss_1 + 1e-9

    def test_duplicated_sketch_still_dominates(self):
        rng = rng_from(40)
        a = rng.standard_normal((7, 5))
        s1 = sparse_random_sketch(3, 7, seed=41)
        loss_star, loss_1 = check_concat_dominance(a, s1, s1, 2)
        assert loss_star <= loss_1 + 1e-9

    def test_dominance_with_trained_style_values(self):
        # the guarantee is pattern-independent: arbitrary real values too
        for t in range(30):
            rng = rng_from(45, t)
            a = rng.standard_normal((8, 6))
            s1 = sparse_random_sketch(3, 8, seed=100 + t).with_values(
                3.0 * rng.standard_normal(8))
            s2 = sparse_random_sketch(2, 8, seed=200 + t).with_values(
                0.1 * rng.standard_normal(8))
            loss_star, loss_1 = check_concat_dominance(a, s1, s2, 2)
            assert loss_star <= loss_1 + 1e-9

    def test_monotone_in_rows(self):
        rng = rng_from(50)
        a = rng.standard_normal((9, 7))
        s = sparse_random_sketch(2, 9, seed=51)
        losses = [scw_loss(a, s, 2)]
        for extra_seed in (52, 53):
            s = concat_sketches(s, sparse_random_sketch(s.m, 9, seed=extra_seed))
            losses.append(scw_loss(a, s, 2))  # m = 2, 4, 8
        assert losses[1] <= losses[0] + 1e-9
        assert losses[2] <= losses[1] + 1e-9


class TestProjectionGeometry:
    def test_projection_is_best_in_span(self):
        # best rank-k approximation restricted to a given orthonormal row space
        rng = rng_from(60)
        a = rng.standard_normal((8, 6))
        v = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        k = 2
        av = matmul(a, v)
        candidate = matmul(best_rank_k(av, k), v.T)
        best = frobenius_norm(a - candidate)
        for _ in range(100):
            x = rng.standard_normal((8, k)) @ rng.standard_normal((k, 3))
            assert best <= frobenius_norm(a - matmul(x, v.T)) + 1e-9

    def test_pythagorean_split(self):
        rng = rng_from(61)
        a = rng.standard_normal((8, 6))
        s = sparse_random_sketch(3, 8, seed=62)
        v = reference_svd(densify(s) @ a).v
        proj = matmul(matmul(a, v), v.T)
        for t in range(20):
            y = rng_from(63, t).standard_normal((8, v.shape[1]))
            yv = matmul(y, v.T)
            lhs = frobenius_norm(a - yv) ** 2
            rhs = frobenius_norm(a - proj) ** 2 + frobenius_norm(proj - yv) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestTopVectorVariantCounterexample:
    """The variant that projects onto the top-k right singular vectors of SA
    (reporting A Z Z^T) does not enjoy concat dominance."""

    @staticmethod
    def azz_loss(a, s_dense, k):
        sa = s_dense @ a
        _, sig, vt = np.linalg.svd(sa, full_matrices=False)
        z = vt[:k].T
        return float(np.linalg.norm(a - a @ z @ z.T))

    def test_extra_rows_can_hurt_top_vector_variant(self):
        a = np.diag([1.0, 0.9])
        s1 = np.array([[1.0, 0.0]])
        s2 = np.array([[0.0, 10.0]])  # large learned-style row skews the top vector
        s_star = np.vstack([s1, s2])
        assert self.azz_loss(a, s_star, 1) > self.azz_loss(a, s1, 1) + 0.05

    def test_scw_unaffected_on_same_instance(self):
        a = np.diag([1.0, 0.9])
        s1 = SparseSketch(2, (SketchBlock(1, np.array([0, 0]),
                                          np.array([1.0, 0.0]),
                                          np.ones(2, dtype=bool)),))
        s2 = SparseSketch(2, (SketchBlock(1, np.array([0, 0]),
                                          np.array([0.0, 10.0]),
                                          np.ones(2, dtype=bool)),))
        loss_star, loss_1 = check_concat_dominance(a, s1, s2, 1)
        assert loss_star <= loss_1 + 1e-9

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrsketch.linalg import matmul
from lrsketch.seeding import rng_from
from lrsketch.sketch import (SketchBlock, SparseSketch, apply_sketch, apply_sketches,
                             concat_sketches, dense_random_sketch, densify,
                             empty_sketch, identity_pattern_sketch, scatter_rows,
                             sketches_equal, sparse_random_sketch)


def loop_scatter_rows(values, rows, m, a):
    """The per-value loop scatter_rows replaced: the bit-for-bit oracle."""
    out = np.zeros((m, a.shape[1]))
    for j in range(rows.shape[0]):
        out[rows[j]] += values[j] * a[j % a.shape[0]]
    return out


class TestSparseRandomSketch:
    def test_single_row(self):
        s = sparse_random_sketch(1, 20, seed=0)
        assert np.all(s.row_of == 0)
        assert set(np.unique(s.value_of)) <= {-1.0, 1.0}

    def test_exactly_one_nonzero_per_column(self):
        s = sparse_random_sketch(5, 40, seed=1)
        assert np.count_nonzero(densify(s)) == 40

    def test_row_occupancy_near_uniform(self):
        s = sparse_random_sketch(4, 10000, seed=2)
        counts = np.bincount(s.row_of, minlength=4)
        assert counts.min() >= 2100 and counts.max() <= 2900

    def test_seed_determinism(self):
        assert sketches_equal(sparse_random_sketch(3, 10, 7),
                              sparse_random_sketch(3, 10, 7))

    def test_all_trainable(self):
        assert sparse_random_sketch(3, 10, 7).trainable_mask.all()

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            sparse_random_sketch(0, 5, 1)


class TestDenseRandomSketch:
    def test_determinism(self):
        a = dense_random_sketch(4, 6, seed=5)
        b = dense_random_sketch(4, 6, seed=5)
        assert np.array_equal(a.matrix, b.matrix)

    def test_mean_and_variance(self):
        s = dense_random_sketch(1000, 1000, seed=9)
        assert abs(s.matrix.mean()) < 0.01
        assert abs(s.matrix.var() - 1.0) < 0.02


class TestApplySketch:
    def test_identity_pattern(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 4))
        assert np.array_equal(apply_sketch(identity_pattern_sketch(6), a), a)

    def test_hand_case(self):
        s = SparseSketch(2, (SketchBlock(1, np.array([0, 0]),
                                         np.array([1.0, -1.0]),
                                         np.ones(2, dtype=bool)),))
        out = apply_sketch(s, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out, np.array([[-2.0, -2.0]]))

    def test_matches_densified_matmul_bitwise(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 5))
        s = sparse_random_sketch(3, 8, seed=11)
        assert np.array_equal(apply_sketch(s, a), matmul(densify(s), a))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            apply_sketch(sparse_random_sketch(2, 4, 0), np.zeros((5, 3)))

    def test_dense_sketch_apply(self):
        d = dense_random_sketch(3, 6, seed=2)
        a = np.random.default_rng(3).standard_normal((6, 4))
        got = apply_sketch(d, a)
        assert got.tobytes() == (d.matrix @ a).tobytes()
        want = matmul(d.matrix, a)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        s = sparse_random_sketch(3, 8, seed=seed)
        a = rng.standard_normal((8, 5))
        b = rng.standard_normal((8, 5))
        lhs = apply_sketch(s, a + b)
        rhs = apply_sketch(s, a) + apply_sketch(s, b)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestApplySketches:
    """Slice t * R + i of apply_sketches(sketches, mats) is apply_sketch(sketches[i],
    mats[t]), byte for byte."""

    def test_matches_each_apply_bitwise(self):
        rng = rng_from(90)
        mats = [rng.standard_normal((10, 7)) for _ in range(3)]
        mats[1][:, 2] = -0.0  # signed zeros, in a matrix and in trained values
        mats[2][4] = -0.0
        signed = rng.standard_normal(10)
        signed[::3] = -0.0
        sketches = [sparse_random_sketch(4, 10, 91), dense_random_sketch(4, 10, 92),
                    concat_sketches(sparse_random_sketch(1, 10, 93), sparse_random_sketch(3, 10, 94)),
                    sparse_random_sketch(4, 10, 95).with_values(rng.standard_normal(10)),
                    dense_random_sketch(4, 10, 96),
                    sparse_random_sketch(4, 10, 97).with_values(signed)]
        for count in (1, 3):
            want = np.stack([apply_sketch(s, a) for a in mats[:count] for s in sketches])
            assert apply_sketches(sketches, mats[:count]).tobytes() == want.tobytes()

    def test_non_finite_matrix_gives_nan_slices(self):
        # no 0 * inf reaches BLAS, so no RuntimeWarning; only that matrix's slices
        mats = [np.ones((10, 7)), np.ones((10, 7))]
        mats[1][3, 2] = np.inf
        sketches = [sparse_random_sketch(4, 10, 1), dense_random_sketch(4, 10, 2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = apply_sketches(sketches, mats)
            alone = apply_sketch(sketches[0], mats[1])
        assert np.isfinite(got[:2]).all() and np.isnan(got[2:]).all()
        assert alone.shape == (4, 7) and np.isnan(alone).all()

    def test_checks_rows_and_columns(self):
        a = np.ones((10, 7))
        with pytest.raises(ValueError, match="rows, expected 4"):
            apply_sketches([sparse_random_sketch(4, 10, 1), sparse_random_sketch(5, 10, 2)], [a])
        with pytest.raises(ValueError, match="sketch has n=9"):
            apply_sketches([sparse_random_sketch(4, 10, 1), sparse_random_sketch(4, 9, 2)], [a])

    def test_checks_matrix_shapes(self):
        with pytest.raises(ValueError, match="matrices differ in shape"):
            apply_sketches([sparse_random_sketch(4, 10, 1)], [np.ones((10, 7)), np.ones((10, 6))])


class TestScatterRows:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_loop_bitwise(self, seed):
        # rows may repeat or stay empty, values may be zero, entries span 1e+-5
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        m = int(rng.integers(1, 12))
        blocks = []
        for _ in range(int(rng.integers(1, 3))):
            vals = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5, n)
            vals[rng.random(n) < 0.2] = 0.0
            blocks.append(SketchBlock(m, rng.integers(0, max(1, m // 2), n), vals,
                                      np.ones(n, dtype=bool)))
        s = SparseSketch(n, tuple(blocks))
        a = rng.standard_normal((n, int(rng.integers(1, 9)))) * 10.0 ** rng.uniform(-5, 5)
        got = scatter_rows(s.value_of, s.row_of, s.m, a)
        want = loop_scatter_rows(s.value_of, s.row_of, s.m, a)
        assert got.tobytes() == want.tobytes()
        # apply_sketch is one BLAS product, which fuses multiply and add: each
        # entry within n * eps * (|S| @ |a|) of the fixed-order product's
        p = densify(s)
        assert apply_sketch(s, a).tobytes() == (p @ a).tobytes()
        bound = n * np.finfo(float).eps * (np.abs(p) @ np.abs(a))
        assert (np.abs(apply_sketch(s, a) - matmul(p, a)) <= bound).all()

    @pytest.mark.parametrize("seed", range(200))
    def test_signed_zeros_match_loop_bitwise(self, seed):
        # -0.0 in the values and in a, rows repeated or empty, raw index arrays
        rng = np.random.default_rng(1000 + seed)
        n, m, d = (int(rng.integers(1, hi)) for hi in (40, 10, 8))
        nnz = int(rng.integers(0, 4)) * n  # whole blocks, none to three
        values = rng.standard_normal(nnz) * 10.0 ** rng.uniform(-5, 5, nnz)
        values[rng.random(nnz) < 0.2] = -0.0
        values[rng.random(nnz) < 0.1] = 0.0
        a = rng.standard_normal((n, d))
        a[rng.random((n, d)) < 0.2] = -0.0
        rows = rng.integers(0, m, nnz)
        got = scatter_rows(values, rows, m, a)
        want = loop_scatter_rows(values, rows, m, a)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_negative_zero_products_sum_to_positive_zero(self):
        args = (np.full(3, -0.0), np.array([0, 0, 1]), 2, np.ones((3, 2)))
        out = scatter_rows(*args)
        assert out.tobytes() == loop_scatter_rows(*args).tobytes()
        assert not np.signbit(out).any()  # accumulation starts from +0.0

    def test_no_values(self):
        out = scatter_rows(np.zeros(0), np.zeros(0, dtype=np.int64), 2, np.ones((3, 4)))
        assert out.dtype == np.float64 and out.shape == (2, 4)
        assert np.array_equal(out, np.zeros((2, 4)))
        empty = apply_sketch(empty_sketch(0), np.ones((0, 4)))  # no input rows either
        assert empty.dtype == np.float64 and empty.shape == (0, 4)


class TestDensify:
    def test_hand_case(self):
        s = SparseSketch(2, (SketchBlock(2, np.array([0, 1]),
                                         np.array([1.0, -1.0]),
                                         np.ones(2, dtype=bool)),))
        assert np.array_equal(densify(s), np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_nonzero_count(self):
        s = sparse_random_sketch(4, 30, seed=3)
        assert np.count_nonzero(densify(s)) == 30

    def test_roundtrip_with_apply(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((10, 3))
        s = sparse_random_sketch(4, 10, seed=5)
        assert np.array_equal(matmul(densify(s), a), apply_sketch(s, a))


class TestConcatSketches:
    def test_empty_second(self):
        s1 = sparse_random_sketch(3, 6, seed=0)
        assert sketches_equal(concat_sketches(s1, empty_sketch(6)), s1)

    def test_densify_is_vstack(self):
        s1 = sparse_random_sketch(2, 6, seed=1)
        s2 = sparse_random_sketch(3, 6, seed=2)
        stacked = densify(concat_sketches(s1, s2))
        assert np.array_equal(stacked, np.vstack([densify(s1), densify(s2)]))

    def test_row_count_adds(self):
        s1 = sparse_random_sketch(2, 6, seed=1)
        s2 = sparse_random_sketch(3, 6, seed=2)
        assert concat_sketches(s1, s2).m == 5

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            concat_sketches(sparse_random_sketch(2, 6, 0), sparse_random_sketch(2, 7, 0))

    def test_blocks_keep_one_nonzero_per_column(self):
        s = concat_sketches(sparse_random_sketch(2, 6, 1), sparse_random_sketch(3, 6, 2))
        for b in s.blocks:
            assert b.row_of.shape == (6,)
            assert np.all((0 <= b.row_of) & (b.row_of < b.m))

    def test_masks_concatenate_per_source(self):
        s1 = sparse_random_sketch(2, 4, seed=1)
        b = s1.blocks[0]
        frozen = SparseSketch(4, (SketchBlock(b.m, b.row_of, b.value_of,
                                              np.zeros(4, dtype=bool)),))
        s = concat_sketches(s1, frozen)
        assert s.trainable_mask[:4].all() and not s.trainable_mask[4:].any()


class TestWithValues:
    def test_replaces_in_stacked_order(self):
        s = concat_sketches(sparse_random_sketch(2, 3, 1), sparse_random_sketch(2, 3, 2))
        new = np.arange(6.0)
        s2 = s.with_values(new)
        assert np.array_equal(s2.value_of, new)
        assert np.array_equal(s2.row_of, s.row_of)

    def test_length_checked(self):
        with pytest.raises(ValueError):
            sparse_random_sketch(2, 3, 1).with_values(np.zeros(5))

    def test_pattern_arrays_built_once(self):
        s = concat_sketches(sparse_random_sketch(2, 3, 1), sparse_random_sketch(2, 3, 2))
        s2 = s.with_values(np.arange(6.0)).with_values(np.ones(6))
        assert s2.row_of is s.row_of
        assert s2.trainable_mask is s.trainable_mask

    def test_stacked_arrays_read_only(self):
        s = concat_sketches(sparse_random_sketch(2, 3, 1), sparse_random_sketch(2, 3, 2))
        s2 = s.with_values(np.arange(6.0))
        for arr in (s.row_of, s.value_of, s.trainable_mask, s2.value_of,
                    s2.blocks[1].value_of):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]

    def test_values_copied(self):
        new = np.arange(6.0)
        s = concat_sketches(sparse_random_sketch(2, 3, 1),
                            sparse_random_sketch(2, 3, 2)).with_values(new)
        new[:] = -1.0
        assert np.array_equal(s.value_of, np.arange(6.0))
        assert np.array_equal(s.blocks[1].value_of, [3.0, 4.0, 5.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            sparse_random_sketch(2, 3, 1).with_values(np.array([1.0, np.nan, 1.0]))


class TestValidation:
    def test_row_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SketchBlock(2, np.array([0, 2]), np.ones(2), np.ones(2, dtype=bool))

    def test_non_finite_values(self):
        with pytest.raises(ValueError, match="non-finite"):
            SketchBlock(2, np.array([0, 1]), np.array([1.0, np.inf]),
                        np.ones(2, dtype=bool))

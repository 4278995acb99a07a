import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrsketch.linalg import (RANK_TOL, SvdFactors, _jacobi_tall, best_rank_k,
                             frobenius_norm, matmul, non_finite, rank, reference_svd,
                             signed, singular_values, stack_svd, svd)
from lrsketch.seeding import rng_from


def sorting_canonical(u, sigma, v, rank_tol):
    """The sort-based rank and sign rule `_canonical` replaced: the bit-for-bit oracle."""
    order = np.argsort(-sigma, kind="stable")
    smax = sigma[order[0]] if sigma.size else 0.0
    rank = int(np.sum(sigma > rank_tol * smax)) if smax > 0.0 else 0
    keep = order[:rank]
    u, sigma, v = u[:, keep], sigma[keep], v[:, keep]
    if rank:
        flip = np.where(u[np.abs(u).argmax(axis=0), np.arange(rank)] < 0, -1.0, 1.0)
        u, v = u * flip, v * flip
    return SvdFactors(u=u, sigma=sigma, v=v)


def assert_same_factors(f, g):
    assert f.rank == g.rank
    for x, y in ((f.u, g.u), (f.sigma, g.sigma), (f.v, g.v)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
        # same memory order too: BLAS products downstream can differ by it
        assert x.flags.f_contiguous == y.flags.f_contiguous


def _sorting_case(seed):
    """Tall, wide, square or rank-deficient, scaled over 1e+-6."""
    rng = np.random.default_rng(seed)
    n, d = (int(x) for x in rng.integers(1, 30, 2))
    kind = seed % 4
    if kind == 1:
        n, d = min(n, d), max(n, d)
    elif kind == 2:
        d = n
    a = rng.standard_normal((max(n, d) if kind == 0 else n, d))
    if kind == 3:
        r = int(rng.integers(0, min(n, d) + 1))
        a = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
    return a * 10.0 ** rng.uniform(-6, 6)


def naive_matmul(a, b):
    """Triple-loop oracle with ascending inner-index accumulation."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            s = 0.0
            for kk in range(a.shape[1]):
                s += a[i, kk] * b[kk, j]
            out[i, j] = s
    return out


class TestMatmul:
    def test_identity(self):
        b = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(matmul(np.eye(2), b), b)

    def test_hand_sum(self):
        out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
        assert np.array_equal(out, np.array([[3.0], [7.0]]))

    def test_matches_triple_loop_oracle_exactly(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((4, 3))
        assert np.array_equal(matmul(a, b), naive_matmul(a, b))

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_triple_loop_oracle_property(self, n, k, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-10, 10, (n, k))
        b = rng.uniform(-10, 10, (k, d))
        assert np.array_equal(matmul(a, b), naive_matmul(a, b))


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_direct_summation_oracle(self, seed):
        a = np.random.default_rng(seed).standard_normal((6, 6))
        direct = np.sqrt(sum(a[i, j] ** 2 for i in range(6) for j in range(6)))
        assert frobenius_norm(a) == pytest.approx(direct, rel=1e-12)


class TestReferenceSvd:
    def test_diagonal(self):
        f = reference_svd(np.diag([3.0, 2.0]))
        assert np.allclose(f.sigma, [3.0, 2.0])
        # signed permutations of identity columns
        assert np.allclose(np.abs(f.u), np.eye(2), atol=1e-12)
        assert np.allclose(np.abs(f.v), np.eye(2), atol=1e-12)

    def test_zero_matrix(self):
        f = reference_svd(np.zeros((3, 4)))
        assert f.rank == 0
        assert f.u.shape == (3, 0)
        assert f.v.shape == (4, 0)
        assert f.sigma.shape == (0,)

    def test_random_reconstruction_and_gram_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 3))
        f = reference_svd(a)
        assert frobenius_norm(f.reconstruct() - a) < 1e-10
        # independent oracle: eigendecomposition of the Gram matrix
        eig = np.sort(np.linalg.eigvalsh(a.T @ a))[::-1]
        assert np.allclose(f.sigma, np.sqrt(np.maximum(eig[: f.rank], 0)), atol=1e-8)

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            reference_svd(bad)

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        f = reference_svd(rng.standard_normal((6, 4)))
        for j in range(f.rank):
            i = np.argmax(np.abs(f.u[:, j]))
            assert f.u[i, j] > 0

    def test_invariants_hundred_random_shapes(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 21))
            d = int(rng.integers(1, 21))
            a = rng.standard_normal((n, d))
            f = reference_svd(a)
            r = f.rank
            assert np.abs(f.u.T @ f.u - np.eye(r)).max() < 1e-8
            assert np.abs(f.v.T @ f.v - np.eye(r)).max() < 1e-8
            assert np.all(f.sigma > 0)
            assert np.all(np.diff(f.sigma) <= 1e-12)
            scale = f.sigma[0] * np.sqrt(n * d) if r else 1.0
            assert frobenius_norm(f.reconstruct() - a) <= 1e-8 * scale

    def test_rank_deficient(self):
        rng = np.random.default_rng(5)
        a = np.outer(rng.standard_normal(6), rng.standard_normal(4))
        a = a + np.outer(rng.standard_normal(6), rng.standard_normal(4))
        assert reference_svd(a).rank == 2

    def test_sigma_squares_sum_to_frobenius(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((8, 5))
        f = reference_svd(a)
        assert np.sum(f.sigma**2) == pytest.approx(frobenius_norm(a) ** 2, rel=1e-9)

    def test_wide_matrix(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 7))
        f = reference_svd(a)
        assert frobenius_norm(f.reconstruct() - a) < 1e-10
        assert f.u.shape == (3, 3) and f.v.shape == (7, 3)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1)])
    def test_degenerate_shapes(self, shape):
        a = np.random.default_rng(23).standard_normal(shape)
        f = reference_svd(a)
        assert f.rank == 1
        assert frobenius_norm(f.reconstruct() - a) < 1e-12
        assert f.sigma[0] == pytest.approx(frobenius_norm(a))

    def test_repeated_singular_values(self):
        rng = np.random.default_rng(29)
        q1 = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        q2 = np.linalg.qr(rng.standard_normal((5, 3)))[0]
        a = q1 @ q2.T  # all three singular values equal 1
        f = reference_svd(a)
        assert np.allclose(f.sigma, 1.0, atol=1e-10)
        assert frobenius_norm(f.reconstruct() - a) < 1e-10

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_reconstruction_property(self, n, d, seed):
        a = np.random.default_rng(seed).uniform(-5, 5, (n, d))
        f = reference_svd(a)
        assert frobenius_norm(f.reconstruct() - a) <= 1e-9 * max(1.0, frobenius_norm(a))
        assert np.abs(f.u.T @ f.u - np.eye(f.rank)).max() < 1e-8


def _oracle_case(name):
    rng = np.random.default_rng(41)
    if name == "rank2":
        return (np.outer(rng.standard_normal(6), rng.standard_normal(4))
                + np.outer(rng.standard_normal(6), rng.standard_normal(4)))
    shapes = {"tall": (9, 5), "wide": (4, 10), "square": (6, 6), "zero": (3, 4),
              "one": (1, 1)}
    a = rng.standard_normal(shapes[name])
    return np.zeros_like(a) if name == "zero" else a


class TestSvdAgainstReference:
    """LAPACK `svd` against the Jacobi oracle, under the shared rank/sign rules."""

    @pytest.mark.parametrize("name", ["tall", "wide", "square", "rank2", "zero", "one"])
    def test_agrees_with_reference(self, name):
        a = _oracle_case(name)
        f, ref = svd(a), reference_svd(a)
        assert f.rank == ref.rank == {"rank2": 2, "zero": 0, "one": 1}.get(name, min(a.shape))
        assert f.u.shape == ref.u.shape and f.v.shape == ref.v.shape
        assert np.allclose(f.sigma, ref.sigma, rtol=1e-10, atol=0.0)
        assert np.abs(f.u - ref.u).max(initial=0.0) < 1e-9
        assert np.abs(f.v - ref.v).max(initial=0.0) < 1e-9

    @pytest.mark.parametrize("name", ["tall", "wide", "square", "rank2", "one"])
    def test_sign_rule(self, name):
        f = svd(_oracle_case(name))
        for j in range(f.rank):
            assert f.u[np.argmax(np.abs(f.u[:, j])), j] > 0

    @pytest.mark.parametrize("name", ["tall", "wide", "rank2"])
    def test_repeat_is_bit_identical(self, name):
        a = _oracle_case(name)
        f, g = svd(a), svd(a)
        for x, y in ((f.u, g.u), (f.sigma, g.sigma), (f.v, g.v)):
            assert np.array_equal(x, y)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            svd(np.array([[1.0, np.inf], [0.0, 1.0]]))


class TestCanonicalAgainstSorting:
    """The sort-free rank and sign rule against the sort-based one it replaced."""

    @pytest.mark.parametrize("seed", range(200))
    def test_svd_bit_identical(self, seed):
        a = _sorting_case(seed)
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
        assert_same_factors(svd(a), sorting_canonical(u, sigma, vt.T, RANK_TOL))

    @pytest.mark.parametrize("seed", range(40))
    def test_reference_svd_bit_identical(self, seed):
        a = _sorting_case(seed)[:12, :12]
        transposed = a.shape[1] > a.shape[0]
        w, sigma, v = _jacobi_tall(a.T.copy() if transposed else a)
        u = w / np.where(sigma > 0.0, sigma, 1.0)
        if transposed:
            u, v = v, u
        assert_same_factors(reference_svd(a), sorting_canonical(u, sigma, v, RANK_TOL))

    def test_unsorted_jacobi_output(self):
        a = np.diag([1.0, 3.0, 2.0])
        assert np.array_equal(_jacobi_tall(a)[1], [1.0, 3.0, 2.0])  # Jacobi leaves it unsorted
        f = reference_svd(a)
        assert np.array_equal(f.sigma, [3.0, 2.0, 1.0])
        perm = np.eye(3)[:, [1, 2, 0]]
        assert np.array_equal(f.u, perm) and np.array_equal(f.v, perm)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    @pytest.mark.parametrize("fn", [svd, reference_svd])
    def test_empty_input_has_rank_zero(self, fn, shape):
        f = fn(np.zeros(shape))
        assert f.rank == 0 and f.sigma.shape == (0,)
        assert f.u.shape == (shape[0], 0) and f.v.shape == (shape[1], 0)


def stack_factors(x):
    """stack_svd of the stack x with its (u, sigma, v) as one SvdFactors, and
    its keep and bad masks spelt out (`spelt_out`)."""
    factors, keep, bad = stack_svd(x)
    return SvdFactors(*factors), *spelt_out(factors[1], keep, bad)


def spelt_out(sigma, keep, bad):
    """stack_svd's keep and bad as arrays: keep None stands for every singular
    value kept and bad None for no slice flagged, and each is None exactly
    then (a mask is built only when some slice needs it)."""
    if keep is None:
        keep = np.ones(sigma.shape, dtype=bool)
    else:
        assert keep.shape == sigma.shape and not keep.all()
    if bad is None:
        bad = np.zeros(len(sigma), dtype=bool)
    else:
        assert bad.shape == (len(sigma),) and bad.any()
    return keep, bad


def unsigned_svd(a) -> SvdFactors:
    """stack_svd of a as a stack of one, cut to its keep mask: `svd` without the
    sign rule."""
    f, keep, _ = stack_factors(np.asarray(a, dtype=np.float64)[None])
    r = int(keep.sum())
    return SvdFactors(u=f.u[0][:, :r], sigma=f.sigma[0][:r], v=f.v[0][:, :r])


class TestRankRule:
    """At full rank one comparison decides; at the threshold the count does."""

    @pytest.mark.parametrize("small,rank", [(RANK_TOL, 1), (RANK_TOL * (1 + 1e-15), 2),
                                            (0.0, 1), (1.0, 2)])
    @pytest.mark.parametrize("fn", [svd, unsigned_svd])
    def test_threshold(self, fn, small, rank):
        f = fn(np.diag([1.0, small]))
        assert f.rank == rank and f.u.shape == (2, rank) and f.v.shape == (2, rank)

    def test_keep_is_the_rank_rule(self):
        sigmas = [[1.0, RANK_TOL, 0.0], [1.0, RANK_TOL * (1 + 1e-15), 0.5 * RANK_TOL],
                  [0.0, 0.0, 0.0], [3.0, 2.0, 1.0]]
        _, keep, _ = stack_factors(np.stack([np.diag(x) for x in sigmas]))
        assert keep.sum(axis=1).tolist() == [rank(np.array(x)) for x in sigmas] == [1, 2, 0, 3]


def assert_same_slices(f, g, slices):
    """Slices of two stack_svd factors agree byte for byte and in layout."""
    for i, j in slices:
        for x, y in ((f.u[i], g.u[j]), (f.sigma[i], g.sigma[j]), (f.v[i], g.v[j])):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
            assert x.flags.f_contiguous == y.flags.f_contiguous


class TestUnsignedSvd:
    """stack_svd: each slice's SVD without the sign rule or a cut, laid out as
    `svd` lays out its factors, with each slice's rank mask and non-finite flag.
    Cut to its rank, a slice is svd's up to a sign shared by a u and v column."""

    @pytest.mark.parametrize("seed", range(200))
    def test_svd_up_to_column_signs(self, seed):
        a = _sorting_case(seed)
        f, g = unsigned_svd(a), svd(a)
        assert f.rank == g.rank and f.sigma.tobytes() == g.sigma.tobytes()
        flip = np.where(np.abs(f.u).max(axis=0) == f.u.max(axis=0, initial=-np.inf), 1.0, -1.0)
        for x, y in ((f.u, g.u), (f.v, g.v)):
            assert x.shape == y.shape and (x * flip).tobytes() == y.tobytes()
            assert x.flags.f_contiguous == y.flags.f_contiguous
        assert f.u.flags.f_contiguous and f.v.flags.f_contiguous

    def test_non_finite_rejected(self):
        # flagged, for the caller to raise non_finite("SVD input") on
        _, keep, bad = stack_factors(np.array([[[1.0, np.nan]]]))
        assert bad.tolist() == [True] and keep.tolist() == [[False]]
        with pytest.raises(ValueError, match="^SVD input contains non-finite entries$"):
            raise non_finite("SVD input")

    @pytest.mark.parametrize("shape", [(4, 6, 24), (3, 8, 48), (5, 32, 6), (3, 256, 8),
                                       (1, 5, 5), (2, 7, 1)])
    def test_stack_slices_equal_own_calls(self, shape):
        a = rng_from(73, *shape).standard_normal(shape)
        a[0, -1] = 0.0  # below full rank where a slice has no more rows than columns
        f = stack_factors(a)[0]
        for i in range(shape[0]):
            assert_same_slices(f, stack_factors(a[i:i + 1])[0], [(i, 0)])

    @pytest.mark.parametrize("kind", ["zero_row", "non_finite", "empty"])
    def test_stack_none_where_svd_stack_is(self, kind):
        # the inputs on which the full-rank-only stacked SVD gave up: marked per slice
        a = rng_from(74).standard_normal((3, 4, 9))
        if kind == "zero_row":
            a[1, 2] = 0.0
        if kind == "non_finite":
            a[0, 0, 0] = np.inf
        if kind == "empty":
            a = np.zeros((3, 0, 9))
        f, keep, bad = stack_factors(a)
        assert bad.tolist() == [kind == "non_finite", False, False]
        assert keep.sum(axis=1).tolist() == {"zero_row": [4, 3, 4], "non_finite": [0, 4, 4],
                                             "empty": [0, 0, 0]}[kind]
        assert f.u.shape == a.shape[:2] + (min(a.shape[1:]),)

    @pytest.mark.parametrize("shape", [(4, 6, 24), (3, 8, 48), (5, 32, 6), (2, 7, 1)])
    def test_slices_mark_and_keep_full_rank_slices(self, shape):
        a = rng_from(75, *shape).standard_normal(shape)
        a[1, -1] = 0.0  # below full rank where a slice has no more rows than columns
        a[-1] = 0.0  # rank 0
        f, keep, bad = stack_factors(a)
        assert keep.sum(axis=1).tolist() == [svd(x).rank for x in a] and not bad.any()
        assert f.u.shape == shape[:2] + (min(shape[1:]),)
        for i in np.flatnonzero(keep.all(axis=1)):
            assert_same_slices(f, stack_factors(a[i:i + 1])[0], [(i, 0)])

    @pytest.mark.parametrize("kind", ["non_finite", "empty"])
    def test_slices_none_where_lapack_is_not_called(self, kind, monkeypatch):
        # LAPACK never sees a non-finite slice; an empty stack comes back empty
        a = rng_from(76).standard_normal((3, 4, 9))
        if kind == "non_finite":
            a[2, 3, 8] = np.nan
        else:
            a = np.zeros((0, 4, 9))
        seen, lapack = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda x, *args, **kw: (
            seen.append(bool(np.isfinite(x).all())) or lapack(x, *args, **kw)))
        f, keep, bad = stack_factors(a)
        assert seen == [True]
        assert bad.tolist() == ([False, False, True] if kind == "non_finite" else [])
        assert keep.shape == (a.shape[0], 4) and f.v.shape == (a.shape[0], 9, 4)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("compute_uv", [True, False])
    def test_non_finite_slice_is_zeroed_before_lapack(self, value, compute_uv, monkeypatch):
        a = rng_from(74).standard_normal((3, 4, 9))
        a[1, 2, 3] = value
        seen, lapack = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda x, *args, **kw: (
            seen.append(bool(np.isfinite(x).all())) or lapack(x, *args, **kw)))
        got, keep, bad = stack_svd(a, compute_uv)
        monkeypatch.undo()
        sigma = got[1] if compute_uv else got
        assert seen == [True] and not np.isfinite(a[1]).all()  # the input is left as it was
        assert bad.tolist() == [False, True, False]
        assert keep[1].sum() == 0 and sigma[1].tolist() == [0.0] * 4
        clean = a.copy()
        clean[1] = 0.0
        want = np.linalg.svd(clean, compute_uv=compute_uv)
        assert sigma.tobytes() == (want[1] if compute_uv else want).tobytes()

    def test_sigma_only(self):
        a = rng_from(75).standard_normal((3, 8, 5))
        a[2] = 0.0
        sigma, keep, bad = stack_svd(a, compute_uv=False)
        keep, bad = spelt_out(sigma, keep, bad)
        assert sigma.tobytes() == np.linalg.svd(a, compute_uv=False).tobytes()
        assert keep.sum(axis=1).tolist() == [5, 5, 0] and not bad.any()

    @pytest.mark.parametrize("shape", [(3, 0, 9), (0, 4, 9), (3, 4, 0)])
    def test_empty(self, shape):
        f, keep, bad = stack_factors(np.zeros(shape))
        r = min(shape[1:])
        assert f.u.shape == shape[:2] + (r,) and f.v.shape == (shape[0], shape[2], r)
        assert keep.shape == (shape[0], r) and bad.shape == (shape[0],) and not bad.any()


class TestSingularValues:
    @pytest.mark.parametrize("shape", [(9, 5), (5, 9), (6, 6)])
    def test_matches_svd_sigma(self, shape):
        a = np.random.default_rng(23).standard_normal(shape)
        out = singular_values(a)
        assert out.shape == (min(shape),)
        assert np.all(np.diff(out) <= 0.0)
        np.testing.assert_allclose(out, svd(a).sigma, rtol=1e-13, atol=0.0)

    def test_no_rank_rule(self):
        out = singular_values(np.diag([3.0, 0.0, 1e-300]))
        assert out.tolist() == [3.0, 1e-300, 0.0]

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0)])
    def test_empty(self, shape):
        assert singular_values(np.zeros(shape)).shape == (0,)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="SVD input"):
            singular_values(np.array([[1.0, np.inf]]))

    def test_vector_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            singular_values(np.ones(3))


class TestBestRankK:
    def test_rank_one_input(self):
        a = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        assert frobenius_norm(a - best_rank_k(a, 1)) < 1e-10

    def test_diagonal_truncation(self):
        out = best_rank_k(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(out, np.diag([3.0, 2.0, 0.0]), atol=1e-10)

    def test_eckart_young_residual(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((5, 4))
        sigma = reference_svd(a).sigma
        resid = frobenius_norm(a - best_rank_k(a, 2))
        assert resid == pytest.approx(np.sqrt(np.sum(sigma[2:] ** 2)), abs=1e-9)

    def test_k_at_least_rank_returns_input(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 3))
        assert frobenius_norm(a - best_rank_k(a, 10)) < 1e-10

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            best_rank_k(np.eye(2), 0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_eckart_young_spot_check(self, k):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((6, 5))
        best = frobenius_norm(a - best_rank_k(a, k))
        for _ in range(200):
            x = rng.standard_normal((6, k)) @ rng.standard_normal((k, 5))
            assert best <= frobenius_norm(a - x) + 1e-9


class TestSvdFactors:
    def test_rank_property(self):
        f = SvdFactors(np.zeros((3, 0)), np.zeros(0), np.zeros((2, 0)))
        assert f.rank == 0


def stack_slice(f, i):
    """Slice i of stack_svd's factors cut by the rank rule, as `svd` cuts them."""
    r = rank(f.sigma[i])
    return f.u[i][:, :r], f.sigma[i][:r], f.v[i][:, :r]


class TestSvdStack:
    """The sign rule on each slice of stack_svd's factors, cut to its rank, gives
    `svd` of that slice: same bytes, same layout."""

    @pytest.mark.parametrize("shape", [(4, 6, 24), (3, 8, 48), (5, 32, 6), (2, 20, 768),
                                       (3, 256, 8), (1, 5, 5)])
    def test_slices_equal_svd(self, shape):
        a = rng_from(71, *shape).standard_normal(shape)
        a[0, -1] = 0.0  # below full rank where a slice has no more rows than columns
        a[-1, :, -1] = 0.0
        f = stack_factors(a)[0]
        for i in range(shape[0]):
            assert_same_factors(signed(*stack_slice(f, i)), svd(a[i]))

    def test_signs_as_svd_on_tied_entries(self):
        # a column whose largest magnitude is shared by a + and a - entry
        a = np.array([[[1.0, -1.0], [1.0, 1.0]], [[2.0, 0.0], [0.0, -3.0]]])
        f = stack_factors(a)[0]
        for i in range(2):
            assert signed(*stack_slice(f, i)).u.tobytes() == svd(a[i]).u.tobytes()

    @pytest.mark.parametrize("kind", ["zero_row", "zero_slice", "non_finite", "empty"])
    def test_none_where_svd_would_truncate_or_raise(self, kind):
        # where svd would truncate, keep marks the rank; where it would raise, bad the slice
        a = rng_from(72).standard_normal((3, 4, 9))
        if kind == "zero_row":
            a[1, 2] = 0.0
        if kind == "zero_slice":
            a[2] = 0.0
        if kind == "non_finite":
            a[0, 0, 0] = np.nan
        if kind == "empty":
            a = np.zeros((3, 0, 9))
        f, keep, bad = stack_factors(a)
        for i, x in enumerate(a):
            if bad[i]:
                with pytest.raises(ValueError, match="SVD input"):
                    svd(x)
            else:
                assert keep[i].sum() == svd(x).rank
                assert_same_factors(signed(*stack_slice(f, i)), svd(x))
        assert bad.tolist() == [kind == "non_finite", False, False]

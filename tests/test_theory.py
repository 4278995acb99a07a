import numpy as np
import pytest

from lrsketch.linalg import frobenius_norm, svd
from lrsketch.seeding import derived_seed, rng_from
from lrsketch.theory import (PLANTED_ANGLE, PLANTED_JITTER, PLANTED_LAM2,
                             DegenerateDirectionError, RobustnessParams,
                             SpectralProfile, _objective_values, discretize_sphere,
                             empirical_losses, flat_profile, fragile_counterexample,
                             full_objective, generalization_gap_sweep,
                             grid_search_robust_minimizer, objective_means,
                             planted_profile_family, random_profile, random_unit_vector,
                             require_normalized, robustness_fraction,
                             simplified_objective, stable_rank, verify_stable_rank_lemma)


def two_level_profile():
    return SpectralProfile(np.array([1.0, 0.5]), np.eye(2))


def stack(profiles):
    """One stacked SpectralProfile from a list of same-shape profiles."""
    return SpectralProfile(np.stack([p.sigma for p in profiles]),
                           np.stack([p.u_basis for p in profiles]))


class TestStableRank:
    def test_identity(self):
        assert stable_rank(np.eye(5)) == pytest.approx(5.0)

    def test_rank_one(self):
        a = np.outer([1.0, 2.0], [3.0, 4.0, 5.0])
        assert stable_rank(a) == pytest.approx(1.0)

    def test_two_level_diagonal(self):
        assert stable_rank(np.diag([1.0, 0.5])) == pytest.approx(1.25)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            stable_rank(np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_rejected(self, shape):
        with pytest.raises(ValueError, match="zero matrix"):
            stable_rank(np.zeros(shape))

    def test_matches_svd_sigma(self):
        for t in range(50):
            rng = rng_from(62, t)
            n, d = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            rank = int(rng.integers(1, min(n, d) + 1))
            a = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
            expect = (frobenius_norm(a) / svd(a).sigma[0]) ** 2
            assert stable_rank(a) == pytest.approx(expect, rel=1e-13, abs=0.0)

    def test_profile_stable_rank(self):
        assert two_level_profile().stable_rank() == pytest.approx(1.25)


class TestObjectives:
    def test_full_at_top_vector(self):
        assert full_objective(np.array([1.0, 0.0]), two_level_profile()) == 1.0

    def test_full_at_second_vector(self):
        assert full_objective(np.array([0.0, 1.0]), two_level_profile()) == 0.25

    def test_full_at_diagonal_direction(self):
        s = np.array([1.0, 1.0]) / np.sqrt(2)
        assert full_objective(s, two_level_profile()) == pytest.approx(0.85)

    def test_simplified_values(self):
        p = two_level_profile()
        assert simplified_objective(np.array([1.0, 0.0]), p) == 1.0
        assert simplified_objective(np.array([0.0, 1.0]), p) == 0.0
        s = np.array([1.0, 1.0]) / np.sqrt(2)
        assert simplified_objective(s, p) == pytest.approx(0.8)

    def test_bounded_by_one_for_normalized_profiles(self):
        for j in range(20):
            p = random_profile(int(rng_from(41, j).integers(2, 10)),
                               derived_seed(42, j))
            s = random_unit_vector(p.dim, derived_seed(43, j))
            assert 0.0 <= full_objective(s, p) <= 1.0 + 1e-12
            assert 0.0 <= simplified_objective(s, p) <= 1.0 + 1e-12

    def test_degenerate_direction_raises(self):
        p = SpectralProfile(np.ones(1), np.eye(2)[:, :1])
        with pytest.raises(DegenerateDirectionError):
            full_objective(np.array([0.0, 1.0]), p)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            full_objective(np.array([1.0, 1.0]), two_level_profile())

    def test_stacked_objectives_are_per_profile_values(self):
        ps = [random_profile(4, derived_seed(44, j)) for j in range(6)]
        s = random_unit_vector(4, 45)
        full, simp = full_objective(s, stack(ps)), simplified_objective(s, stack(ps))
        assert full.shape == simp.shape == (6,)
        assert list(full) == [full_objective(s, p) for p in ps]
        assert list(simp) == [simplified_objective(s, p) for p in ps]

    def test_single_profile_gives_float(self):
        assert isinstance(full_objective(np.array([1.0, 0.0]), two_level_profile()), float)

    def test_degenerate_member_of_stack_raises(self):
        ps = stack([SpectralProfile(np.ones(1), np.eye(2)[:, i:i + 1]) for i in range(2)])
        with pytest.raises(DegenerateDirectionError):
            full_objective(np.array([0.0, 1.0]), ps)

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            SpectralProfile(np.array([0.5, 1.0]), np.eye(2))
        with pytest.raises(ValueError, match="top singular"):
            require_normalized(SpectralProfile(np.array([0.9]), np.eye(2)[:, :1]))
        with pytest.raises(ValueError, match="top singular"):
            require_normalized(stack([two_level_profile(),
                                      SpectralProfile(np.array([0.9, 0.5]), np.eye(2))]))
        with pytest.raises(ValueError, match="u_basis"):
            SpectralProfile(np.ones((3, 2)), np.stack([np.eye(2)] * 2))
        with pytest.raises(ValueError, match="u_basis"):
            SpectralProfile(np.ones(2), np.eye(3))
        with pytest.raises(ValueError, match="u_basis"):
            SpectralProfile(np.ones(2), np.ones(2))

    @pytest.mark.parametrize("sigma, u_basis", [
        (np.array([np.nan, 0.5]), np.eye(2)),
        (np.array([1.0, np.nan]), np.eye(2)),
        (np.array([np.inf, 0.5]), np.eye(2)),
        (np.array([[1.0, 0.5], [np.nan, 0.5]]), np.stack([np.eye(2)] * 2)),
        (np.array([1.0, 0.5]), np.array([[np.nan, 0.0], [0.0, 1.0]])),
        (np.array([1.0, 0.5]), np.array([[1.0, 0.0], [0.0, np.inf]])),
    ])
    def test_non_finite_profile_rejected(self, sigma, u_basis):
        with pytest.raises(ValueError, match="finite"):
            SpectralProfile(sigma, u_basis)

    @pytest.mark.parametrize("sigma", [[1.0, 0.0], [1.0, -0.5], [0.0]])
    def test_non_positive_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="positive"):
            SpectralProfile(np.array(sigma), np.eye(2)[:, :len(sigma)])


class TestStackedKernel:
    def test_stack_matches_per_profile_calls_bitwise(self):
        ps = [random_profile(5, derived_seed(46, j)) for j in range(40)]
        grid = rng_from(47).standard_normal((300, 5))
        grid /= np.linalg.norm(grid, axis=1, keepdims=True)
        for direction in (grid, grid[:1]):
            stacked = _objective_values(direction, stack(ps))
            for j, p in enumerate(ps):
                for got, want in zip(stacked, _objective_values(direction, p)):
                    assert got[j].tobytes() == want.tobytes()

    def test_two_leading_axes(self):
        fam = planted_profile_family(12, seed=48)
        grid = discretize_sphere(2, 0.3)
        square = SpectralProfile(fam.sigma.reshape(3, 4, 2), fam.u_basis.reshape(3, 4, 2, 2))
        assert square.count == 12
        for got, want in zip(_objective_values(grid, square), _objective_values(grid, fam)):
            assert np.array_equal(got.reshape(want.shape), want)
        assert [p.sigma.tobytes() for p in square] == [p.sigma.tobytes() for p in fam]

    def test_single_profile_is_family_of_one(self):
        p = two_level_profile()
        assert p.count == 1
        (only,) = list(p)
        assert np.array_equal(only.u_basis, p.u_basis)


class TestEmptyInputs:
    def test_robustness_fraction(self):
        with pytest.raises(ValueError, match="empty"):
            robustness_fraction(np.array([1.0, 0.0]), planted_profile_family(0, 1), 0.05)

    @pytest.mark.parametrize("empty_train", [True, False])
    def test_empirical_losses(self, empty_train):
        full, empty = planted_profile_family(5, 2), planted_profile_family(0, 3)
        sets = (empty, full) if empty_train else (full, empty)
        with pytest.raises(ValueError, match="empty"):
            empirical_losses(np.array([1.0, 0.0]), *sets)

    def test_objective_means(self):
        with pytest.raises(ValueError, match="samples"):
            objective_means(two_level_profile(), 0, seed=4)

    def test_grid_search(self):
        with pytest.raises(ValueError, match="empty"):
            grid_search_robust_minimizer(planted_profile_family(0, 5),
                                         RobustnessParams(0.0, 0.05))


class TestRandomUnitVector:
    def test_one_dimensional(self):
        assert abs(random_unit_vector(1, 5)[0]) == 1.0

    def test_unit_norms(self):
        for seed in range(1000):
            v = random_unit_vector(4, seed)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_mean_vector_small(self):
        total = np.zeros(3)
        draws = 100000
        for i in range(draws):
            total += random_unit_vector(3, derived_seed(77, i))
        assert np.linalg.norm(total / draws) < 0.02


class TestStableRankLemma:
    def test_rank_one_profile_mean_is_one(self):
        p = SpectralProfile(np.ones(1), np.eye(3)[:, :1])
        _, mean = objective_means(p, 20000, seed=1)
        assert mean == pytest.approx(1.0, abs=1e-12)

    def test_flat_two_dimensional_symmetry(self):
        p = flat_profile(2, seed=2)
        _, mean = objective_means(p, 50000, seed=3)
        assert mean * 2.0 == pytest.approx(1.0, abs=0.02)

    def test_flat_ten_dimensional(self):
        p = flat_profile(10, seed=4)
        _, mean = objective_means(p, 100000, seed=5)
        assert abs(mean - 0.1) < 0.02

    def test_stacked_means_are_per_profile_means(self):
        ps = [random_profile(3, derived_seed(53, j)) for j in range(4)]
        full, simp = objective_means(stack(ps), 25000, seed=54)
        assert full.shape == simp.shape == (4,)
        for j, p in enumerate(ps):
            assert (full[j], simp[j]) == objective_means(p, 25000, seed=54)

    def test_product_bound_random_profiles(self):
        profiles = [random_profile(int(rng_from(50, j).integers(2, 16)),
                                   derived_seed(51, j)) for j in range(10)]
        worst, bound = verify_stable_rank_lemma(profiles, 20000, seed=52)
        assert worst >= bound
        assert bound == pytest.approx(1 / 20)

    def test_requires_normalized_profiles(self):
        bad = SpectralProfile(np.array([0.5]), np.eye(2)[:, :1])
        with pytest.raises(ValueError, match="top singular"):
            verify_stable_rank_lemma([bad], 100, seed=0)


class TestDiscretizeSphere:
    def test_covers_axes_with_coarse_grid(self):
        grid = discretize_sphere(2, eps=np.pi / 2)
        for target in ([1, 0], [0, 1], [-1, 0], [0, -1]):
            dists = np.linalg.norm(grid - np.asarray(target, dtype=float), axis=1)
            assert dists.min() <= np.pi / 2

    def test_unit_norms(self):
        grid = discretize_sphere(2, eps=0.2)
        assert np.abs(np.linalg.norm(grid, axis=1) - 1.0).max() < 1e-12

    def test_monte_carlo_covering(self):
        eps = 0.15
        grid = discretize_sphere(2, eps=eps)
        rng = rng_from(60)
        pts = rng.standard_normal((10000, 2))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        # nearest grid direction per random point
        dots = pts @ grid.T
        nearest = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots.max(axis=1)))
        assert nearest.max() <= eps

    def test_budget_cap(self):
        with pytest.raises(ValueError, match="budget"):
            discretize_sphere(6, eps=0.01)

    def test_three_dimensional_grid(self):
        grid = discretize_sphere(3, eps=0.5)
        assert grid.shape[1] == 3
        assert np.abs(np.linalg.norm(grid, axis=1) - 1.0).max() < 1e-12

    def test_three_dimensional_covering(self):
        eps = 0.3
        grid = discretize_sphere(3, eps=eps)
        rng = rng_from(61)
        pts = rng.standard_normal((5000, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        dots = pts @ grid.T
        nearest = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots.max(axis=1)))
        assert nearest.max() <= eps

    @pytest.mark.parametrize("eps", [np.inf, np.nan])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="finite eps"):
            discretize_sphere(2, eps)

    def test_deterministic_and_sorted(self):
        g1 = discretize_sphere(2, eps=0.3)
        g2 = discretize_sphere(2, eps=0.3)
        assert np.array_equal(g1, g2)
        as_tuples = [tuple(row) for row in np.round(g1, 12)]
        assert as_tuples == sorted(as_tuples)


class TestRobustness:
    def test_delta_zero_never_fires(self):
        s, train, adv = fragile_counterexample(0.01)
        assert robustness_fraction(s, train, 0.0) == 0.0
        assert robustness_fraction(s, adv, 0.0) == 0.0

    def test_top_vector_is_robust(self):
        # each profile's own top direction has denominator lambda_1^2 = 1
        for j in range(5):
            p = random_profile(4, derived_seed(70, j))
            assert robustness_fraction(p.u_basis[:, 0], p, 0.5) == 0.0

    def test_counterexample_denominator(self):
        eps = 0.01
        s, _, adv = fragile_counterexample(eps)
        expected = (1 - 100 * eps**2) * eps**2 + 100 * eps**2 * (1 - eps**2)
        lam2 = adv.sigma**2
        c2 = (adv.u_basis.T @ s) ** 2
        assert float(c2 @ lam2) == pytest.approx(expected, rel=1e-12)
        assert expected < 0.05
        assert robustness_fraction(s, adv, 0.05) == 1.0

    @pytest.mark.parametrize("eps", [0.0, -0.01, 0.071, 0.1, 0.2, np.nan, np.inf])
    def test_counterexample_eps_out_of_range(self, eps):
        with pytest.raises(ValueError, match=r"eps must be in \(0, 1/sqrt\(200\)\]"):
            fragile_counterexample(eps)

    @pytest.mark.parametrize("eps", [1e-6, 0.05, 1.0 / np.sqrt(200.0)])
    def test_counterexample_eps_in_range(self, eps):
        s, train, adv = fragile_counterexample(eps)
        assert np.isfinite(adv.sigma).all() and np.all(adv.sigma > 0)
        assert float(np.linalg.norm(s)) == pytest.approx(1.0, abs=1e-15)
        assert s.shape == (2,) and train.dim == adv.dim == 2

    def test_counterexample_objective_collapses(self):
        s, train, adv = fragile_counterexample(0.01)
        assert full_objective(s, train) == pytest.approx(1.0)
        assert full_objective(s, adv) < 0.02


class TestRobustnessParams:
    @pytest.mark.parametrize("kwargs, message", [
        ({"rho": -0.1}, "rho"), ({"rho": 1.1}, "rho"), ({"rho": np.nan}, "rho"),
        ({"delta": 0.0}, "delta"), ({"delta": -1.0}, "delta"),
        ({"delta": np.nan}, "delta"),
        ({"eps_grid": 0.0}, "eps_grid"), ({"eps_grid": np.nan}, "eps_grid"),
    ])
    def test_out_of_range_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RobustnessParams(**{"rho": 0.05, "delta": 0.05, **kwargs})

    def test_infinite_eps_grid_rejected(self):
        with pytest.raises(ValueError, match="eps_grid must be finite"):
            RobustnessParams(rho=0.05, delta=0.05, eps_grid=np.inf)

    @pytest.mark.parametrize("rho", [0.0, 1.0])
    def test_range_ends_accepted(self, rho):
        assert RobustnessParams(rho, 1e-300, eps_grid=1e-300).rho == rho


class TestEmpiricalLosses:
    def test_equal_sets_zero_gap(self):
        profiles = stack([random_profile(3, derived_seed(80, j)) for j in range(4)])
        s = random_unit_vector(3, 81)
        tr, ho, gap = empirical_losses(s, profiles, profiles)
        assert gap == 0.0
        assert tr == ho

    def test_losses_in_unit_interval(self):
        for j in range(10):
            profiles = stack([random_profile(3, derived_seed(82, j, i)) for i in range(5)])
            s = random_unit_vector(3, derived_seed(83, j))
            tr, ho, _ = empirical_losses(s, profiles, profiles)
            assert -1.0 - 1e-12 <= tr <= 0.0
            assert -1.0 - 1e-12 <= ho <= 0.0


class TestGridSearch:
    def test_identical_rank_one_profiles(self):
        # every direction with nonzero overlap scores exactly 1 on a rank-1
        # profile, so the search reports a perfect, robust direction and the
        # documented lexicographic tie-break picks among the tied optima
        u = random_unit_vector(2, 90)
        prof = SpectralProfile(np.ones(1), u[:, None])
        res = grid_search_robust_minimizer(stack([prof] * 5),
                                           RobustnessParams(0.0, 0.05, eps_grid=0.05))
        assert res.feasible
        assert res.train_loss == pytest.approx(-1.0, abs=1e-12)
        assert full_objective(res.s, prof) == pytest.approx(1.0, abs=1e-12)
        assert robustness_fraction(res.s, prof, 0.05) == 0.0

    def test_rho_one_is_unconstrained(self):
        s, train, _ = fragile_counterexample(0.01)
        res_all = grid_search_robust_minimizer(
            train, RobustnessParams(1.0, 0.05, eps_grid=0.2))
        grid = discretize_sphere(2, 0.2)
        losses = []
        for g in grid:
            vals = []
            for p in train:
                c2 = (p.u_basis.T @ g) ** 2
                den = float(c2 @ p.sigma**2)
                num = float(c2 @ p.sigma**4)
                vals.append(num / den if den >= 1e-15 else 0.0)
            losses.append(-np.mean(vals))
        assert res_all.train_loss == pytest.approx(min(losses))
        assert res_all.feasible_count == grid.shape[0]

    def test_fragile_direction_excluded_at_rho_zero(self):
        s, train, _ = fragile_counterexample(0.01)
        params = RobustnessParams(0.0, 0.05, eps_grid=0.05)
        res = grid_search_robust_minimizer(train, params)
        assert res.feasible
        # the returned direction is robust, far from the fragile one
        assert robustness_fraction(res.s, train, 0.05) == 0.0
        assert abs(float(res.s @ s)) < 0.99

    @pytest.mark.parametrize("shape", [(1,), (400,), (20, 21)])
    def test_sliced_search_matches_per_profile_loop_bitwise(self, shape):
        # oracle: one profile per kernel call, summed in profile order
        flat = planted_profile_family(int(np.prod(shape)), 93)
        train = SpectralProfile(flat.sigma.reshape(shape + (2,)),
                                flat.u_basis.reshape(shape + (2, 2)))
        params = RobustnessParams(0.05, 0.05, eps_grid=0.05)
        grid = discretize_sphere(2, params.eps_grid)
        obj_sum = np.zeros(grid.shape[0])
        bad = np.zeros(grid.shape[0], dtype=np.int64)
        for p in train:
            full, _, den = _objective_values(grid, p)
            obj_sum += full
            bad += den < params.delta
        feasible = bad / train.count <= params.rho
        losses = np.where(feasible, -obj_sum / train.count, np.inf)
        best = int(np.argmin(losses))
        res = grid_search_robust_minimizer(train, params)
        assert res.feasible_count == int(np.sum(feasible))
        assert res.s.tobytes() == grid[best].tobytes()
        assert res.train_loss == losses[best]

    def test_no_robust_solution_reported(self):
        # every direction is degenerate at huge delta
        prof = SpectralProfile(np.ones(1), np.eye(2)[:, :1])
        res = grid_search_robust_minimizer(prof,
                                           RobustnessParams(0.0, 10.0, eps_grid=0.3))
        assert not res.feasible
        assert res.s is None


class TestGeneralizationSweep:
    def test_gap_shrinks_with_train_size(self):
        params = RobustnessParams(0.05, 0.05, eps_grid=0.08)
        sweep = generalization_gap_sweep([20, 80], splits=4, holdout_count=300,
                                         params=params, seed=7)
        assert sweep[0][1] > sweep[1][1]

    def test_robust_minimizer_gap_small_at_two_hundred_samples(self):
        params = RobustnessParams(0.05, 0.05, eps_grid=0.05)
        train = planted_profile_family(200, seed=8)
        holdout = planted_profile_family(500, seed=9)
        res = grid_search_robust_minimizer(train, params)
        assert res.feasible
        _, _, gap = empirical_losses(res.s, train, holdout)
        assert abs(gap) <= 0.1

    def test_family_profiles_normalized(self):
        for p in planted_profile_family(10, seed=3):
            require_normalized(p)
        require_normalized(planted_profile_family(10, seed=3))

    def test_family_matches_per_profile_rotations_bitwise(self):
        # the per-profile construction: theta then lam2 from one stream
        rng = rng_from(6)
        fam = planted_profile_family(50, seed=6)
        assert fam.sigma.shape == (50, 2) and fam.u_basis.shape == (50, 2, 2)
        for p in fam:
            theta = PLANTED_ANGLE + PLANTED_JITTER * rng.standard_normal()
            lam2 = rng.uniform(*PLANTED_LAM2)
            u = np.array([[np.cos(theta), -np.sin(theta)],
                          [np.sin(theta), np.cos(theta)]])
            assert p.u_basis.tobytes() == u.tobytes()
            assert p.sigma.tobytes() == np.array([1.0, lam2]).tobytes()

"""Executable property checks behind the `verify` CLI command.

Each check returns a CheckResult with the measured margin, so the
report shows not just pass/fail but how much headroom each property
has. Every check draws its instances from one master seed (`SEED`
unless `--seed` overrides it). The counts are module constants
(`DOMINANCE_TRIALS` and the rest), sized to finish in seconds; the
pytest suite runs the same properties at full scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffsvd import PowerSvdConfig, backward, scw_forward_with_tape, scw_power_loss
from .linalg import best_rank_k, frobenius_norm, matmul
from .scw import check_concat_dominance, scw_loss, scw_loss_and_grad
from .seeding import derived_seed, rng_from
from .sketch import apply_sketch, densify, identity_pattern_sketch, sparse_random_sketch
from .theory import (LEMMA_BOUND, RobustnessParams, flat_profile,
                     fragile_counterexample, generalization_gap_sweep,
                     grid_search_robust_minimizer, lemma_means, objective_means,
                     random_profile, robustness_fraction, worst_lemma_product)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


SEED = 20260101  # master seed when --seed is not given
DOMINANCE_TRIALS = 80
GRADIENT_INSTANCES = 5
LEMMA_PROFILES = 10
LEMMA_SAMPLES = 20000
TREND_SPLITS = 6


def check_dominance(seed: int) -> CheckResult:
    """Stacked sketches never lose to their first block alone."""
    worst = -np.inf
    for t in range(DOMINANCE_TRIALS):
        rng = rng_from(seed, 0, t)
        n, d = int(rng.integers(3, 13)), int(rng.integers(3, 13))
        m1, m2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        a = rng.standard_normal((n, d))
        s1 = sparse_random_sketch(m1, n, derived_seed(seed, 0, t, 1))
        s2 = sparse_random_sketch(m2, n, derived_seed(seed, 0, t, 2))
        loss_star, loss_1 = check_concat_dominance(a, s1, s2, k)
        worst = max(worst, loss_star - loss_1)
    return CheckResult("concat-dominance", worst <= 1e-9,
                       f"worst loss(concat)-loss(s1) = {worst:.3e} (allowed 1e-9)")


def check_scw_identity(seed: int) -> CheckResult:
    """With the identity sketch pattern the pipeline matches truncated SVD."""
    worst = 0.0
    for t in range(10):
        rng = rng_from(seed, 1, t)
        n, d, k = 8, 6, 2
        a = rng.standard_normal((n, d))
        out = scw_loss(a, identity_pattern_sketch(n), k)
        opt = frobenius_norm(a - best_rank_k(a, k))
        worst = max(worst, abs(out - opt))
    return CheckResult("scw-identity-sketch", worst <= 1e-8,
                       f"worst |loss - optimal| = {worst:.3e} (allowed 1e-8)")


def _fd_budget_used(loss_fn, s, g) -> float:
    """Worst |g - fd| / (1e-6 + 1e-4 * |fd|) over s's values; <= 1 passes.

    fd is the central difference of loss_fn(sketch) with step 1e-5.
    """
    h = 1e-5
    worst = 0.0
    vals = s.value_of
    for i in range(vals.shape[0]):
        vp, vm = vals.copy(), vals.copy()
        vp[i] += h
        vm[i] -= h
        fd = (loss_fn(s.with_values(vp)) - loss_fn(s.with_values(vm))) / (2 * h)
        worst = max(worst, abs(g[i] - fd) / (1e-6 + 1e-4 * abs(fd)))
    return worst


def _gradient_result(name: str, worst: float) -> CheckResult:
    return CheckResult(name, worst <= 1.0,
                       f"worst |ad-fd| at {worst:.3e} of the 1e-4 relative / "
                       f"1e-6 absolute budget (<= 1 passes)")


def check_gradients(seed: int) -> CheckResult:
    """Taped reverse-mode gradients against central finite differences."""
    worst = 0.0
    for t in range(GRADIENT_INSTANCES):
        rng = rng_from(seed, 2, t)
        a = rng.standard_normal((8, 6))
        s = sparse_random_sketch(3, 8, derived_seed(seed, 2, t))
        pcfg = PowerSvdConfig(t_iters=60, init_seed=derived_seed(seed, 2, t, 1))
        _, tape = scw_forward_with_tape(a, s, 2, pcfg)
        worst = max(worst, _fd_budget_used(lambda sk: scw_power_loss(a, sk, 2, pcfg),
                                           s, backward(tape)))
    return _gradient_result("gradient-fidelity", worst)


def check_exact_gradients(seed: int) -> CheckResult:
    """Training's closed-form gradient against central differences of scw_loss ** 2,
    and its residual-free loss against scw_loss ** 2 within 1e-13 ||A||^2."""
    worst, gaps = 0.0, []
    for t in range(GRADIENT_INSTANCES):
        rng = rng_from(seed, 5, t)
        a = rng.standard_normal((8, 6))
        s = sparse_random_sketch(3, 8, derived_seed(seed, 5, t))
        loss, grad = scw_loss_and_grad(a, s, 2)
        gaps.append(abs(loss - scw_loss(a, s, 2) ** 2) / frobenius_norm(a) ** 2)
        worst = max(worst, _fd_budget_used(lambda sk: scw_loss(a, sk, 2) ** 2, s, grad))
    gap = float(np.max(gaps))  # a NaN fails
    grad_check = _gradient_result("exact-gradient-fidelity", worst)
    return CheckResult(grad_check.name, grad_check.passed and gap <= 1e-13,
                       f"{grad_check.detail}; worst |loss - scw_loss^2| / ||A||^2 = "
                       f"{gap:.3e} (allowed 1e-13)")


def check_robustness_counterexample() -> CheckResult:
    s, train, adv = fragile_counterexample(0.01)
    frac = robustness_fraction(s, adv, 0.05)
    params = RobustnessParams(rho=0.0, delta=0.05, eps_grid=0.1)
    res = grid_search_robust_minimizer(train, params)
    fragile_excluded = res.feasible and abs(float(res.s @ s)) < 0.99
    ok = frac == 1.0 and fragile_excluded
    return CheckResult("robustness-counterexample", ok,
                       f"fragile denominator fraction = {frac} (needs 1.0); "
                       f"robust search avoids the fragile direction: {fragile_excluded}")


def lemma_and_trend(seed: int) -> tuple[CheckResult, CheckResult, list[tuple]]:
    """The stable-rank-lemma and generalization-trend checks, and their rows.

    Rows are theory.csv's (d, r', simplified mean, product, N, gap): one per
    lemma profile, then one per train size N of the 2-D planted family.
    """
    profiles = [random_profile(int(rng_from(seed, 3, j).integers(2, 16)),
                               derived_seed(seed, 3, j, 1))
                for j in range(LEMMA_PROFILES)]
    means = lemma_means(profiles, LEMMA_SAMPLES, seed)
    worst = worst_lemma_product(means)
    flat = flat_profile(10, derived_seed(seed, 3, 99))
    _, mean10 = objective_means(flat, LEMMA_SAMPLES, derived_seed(seed, 3, 100))
    lemma = CheckResult("stable-rank-lemma",
                        worst >= LEMMA_BOUND and abs(mean10 - 0.1) <= 0.02,
                        f"worst mean*r' = {worst:.4f} (needs >= {LEMMA_BOUND:.4f}); "
                        f"flat d=10 mean = {mean10:.4f} (needs 0.1 +- 0.02)")
    params = RobustnessParams(rho=0.05, delta=0.05, eps_grid=0.05)
    sweep = generalization_gap_sweep([25, 100, 400], TREND_SPLITS, 500,
                                     params, seed)
    gaps = [g for _, g in sweep]
    detail = ", ".join(f"N={n}: {g:.4f}" for n, g in sweep)
    trend = CheckResult("generalization-trend", gaps[0] > gaps[1] > gaps[2],
                        f"mean |gap| {detail}")
    rows = [(p.dim, rp, simp, simp * rp, None, None)
            for p, (rp, _, simp) in zip(profiles, means)]
    rows += [(2, None, None, None, n, g) for n, g in sweep]
    return lemma, trend, rows


def check_apply_bitwise(seed: int) -> CheckResult:
    for t in range(30):
        rng = rng_from(seed, 4, t)
        n, d, m = 8, 5, 3
        a = rng.standard_normal((n, d))
        s = sparse_random_sketch(m, n, derived_seed(seed, 4, t))
        if not np.array_equal(apply_sketch(s, a), matmul(densify(s), a)):
            return CheckResult("apply-sketch-bitwise", False,
                               f"mismatch against densified product at trial {t}")
    return CheckResult("apply-sketch-bitwise", True,
                       "30/30 trials equal the densified product bit for bit")


def run_verification(seed: int = SEED) -> list[CheckResult]:
    """Run every check."""
    lemma, trend, _ = lemma_and_trend(seed)
    return [
        check_dominance(seed),
        check_scw_identity(seed),
        check_gradients(seed),
        check_exact_gradients(seed),
        lemma,
        check_robustness_counterexample(),
        trend,
        check_apply_bitwise(seed),
    ]

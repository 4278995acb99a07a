import numpy as np

from lrsketch import scw, verify
from lrsketch.linalg import as_matrix, frobenius_norm
from lrsketch.sketch import apply_sketch
from lrsketch.verify import SEED, check_exact_gradients


def gradient_without_projector(a, s, k):
    """scw_loss_and_grad with the (I - V V^T) factor dropped: a wrong gradient."""
    a = as_matrix(a)
    _, (u, sigma, _), _, b, (uk, sk, _), _ = scw._solve(a[None], apply_sketch(s, a)[None], k)
    uk, sk = uk[0], sk[0]
    g_sa = (u[0] / sigma[0]) @ (b[0].T @ uk) @ (uk.T @ a)
    g_s = -2.0 * (g_sa @ a.T)
    g_vals = g_s[s.row_of.reshape(-1, s.n), np.arange(s.n)]
    return frobenius_norm(a) ** 2 - float(sk @ sk), g_vals.ravel()


def loss_off_by_1e10(a, s, k):
    """scw_loss_and_grad with its loss raised by 1e-10 ||A||^2: a wrong loss."""
    loss, grad = scw.scw_loss_and_grad(a, s, k)
    return loss + 1e-10 * frobenius_norm(a) ** 2, grad


class TestExactGradientFidelity:
    def test_passes_on_training_gradient(self):
        result = check_exact_gradients(SEED)
        assert result.name == "exact-gradient-fidelity"
        assert result.passed, result.detail

    def test_fails_without_projector_factor(self, monkeypatch):
        monkeypatch.setattr(verify, "scw_loss_and_grad", gradient_without_projector)
        result = check_exact_gradients(SEED)
        assert not result.passed, result.detail

    def test_reports_loss_identity_gap(self):
        detail = check_exact_gradients(SEED).detail
        gap = float(detail.rsplit("worst |loss - scw_loss^2| / ||A||^2 = ", 1)[1].split()[0])
        assert gap <= 1e-13

    def test_fails_on_loss_off_the_identity(self, monkeypatch):
        monkeypatch.setattr(verify, "scw_loss_and_grad", loss_off_by_1e10)
        result = check_exact_gradients(SEED)
        assert not result.passed, result.detail
        gap = float(result.detail.rsplit("= ", 1)[1].split()[0])
        assert 0.9e-10 <= gap <= 1.1e-10

    def test_runs_beside_taped_check(self):
        names = [r.name for r in verify.run_verification(SEED)]
        assert len(names) == len(set(names)) == 8
        assert names.index("exact-gradient-fidelity") == names.index("gradient-fidelity") + 1


class TestGradientMargins:
    def test_default_seed_margin_shows_headroom(self):
        for check in (verify.check_gradients, check_exact_gradients):
            detail = check(SEED).detail
            assert "at 0.000 of" not in detail
            used = float(detail.split("worst |ad-fd| at ", 1)[1].split()[0])
            assert 0.0 < used <= 1.0, detail

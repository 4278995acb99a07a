import numpy as np

from lrsketch import scw, verify
from lrsketch.linalg import as_matrix, frobenius_norm
from lrsketch.sketch import apply_sketch
from lrsketch.verify import VerifyConfig, check_exact_gradients


def gradient_without_projector(a, s, k):
    """scw_loss_and_grad with the (I - V V^T) factor dropped: a wrong gradient."""
    a = as_matrix(a)
    f, b, uk, approx = scw._solve(a, apply_sketch(s, a), k)
    g_sa = (f.u / f.sigma) @ (b.T @ uk) @ (uk.T @ a)
    g_s = -2.0 * (g_sa @ a.T)
    g_vals = g_s[s.row_of.reshape(-1, s.n), np.arange(s.n)]
    return frobenius_norm(a - approx) ** 2, g_vals.ravel()


class TestExactGradientFidelity:
    def test_passes_on_training_gradient(self):
        result = check_exact_gradients(VerifyConfig())
        assert result.name == "exact-gradient-fidelity"
        assert result.passed, result.detail

    def test_fails_without_projector_factor(self, monkeypatch):
        monkeypatch.setattr(verify, "scw_loss_and_grad", gradient_without_projector)
        result = check_exact_gradients(VerifyConfig())
        assert not result.passed, result.detail

    def test_runs_beside_taped_check(self):
        names = [r.name for r in verify.run_verification(VerifyConfig())]
        assert len(names) == len(set(names)) == 8
        assert names.index("exact-gradient-fidelity") == names.index("gradient-fidelity") + 1

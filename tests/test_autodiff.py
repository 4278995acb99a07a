import numpy as np
import pytest

from lrsketch.autodiff import Tape
from lrsketch.seeding import rng_from


def tape_grad(build, x0):
    tape = Tape()
    leaf = tape.leaf_values(x0)
    tape.output = build(tape, leaf)
    return float(tape.value(tape.output)), tape.backward_values()


def forward_value(build, x0):
    tape = Tape()
    leaf = tape.leaf_values(x0)
    return float(tape.value(build(tape, leaf)))


def fd_grad(build, x0, h=1e-6):
    g = np.zeros_like(x0)
    for i in range(x0.shape[0]):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (forward_value(build, xp) - forward_value(build, xm)) / (2 * h)
    return g


def assert_grad_matches(build, x0, rtol=1e-6, atol=1e-9):
    value, g = tape_grad(build, x0)
    assert value == forward_value(build, x0)  # same input, same bits
    fd = fd_grad(build, x0)
    assert np.allclose(g, fd, rtol=rtol, atol=atol), f"{g} vs {fd}"


class TestPrimitiveGradients:
    def test_matvec_rmatvec_vec_norm(self):
        rng = rng_from(1)
        a = rng.standard_normal((5, 4))

        def build(eng, leaf):
            w = eng.matvec(eng.const(a), leaf)
            z = eng.rmatvec(eng.const(a), w)
            return eng.vec_norm(z)

        assert_grad_matches(build, rng.standard_normal(4))

    def test_normalize(self):
        rng = rng_from(2)
        a = rng.standard_normal((3, 4))

        def build(eng, leaf):
            v = eng.normalize(leaf)
            return eng.vec_norm(eng.matvec(eng.const(a), v))

        assert_grad_matches(build, rng.standard_normal(4), rtol=1e-5)

    def test_scale_div_and_outer_update(self):
        rng = rng_from(3)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((4, 3))

        def build(eng, leaf):
            w = eng.matvec(eng.const(a), leaf)  # R^4
            sig = eng.vec_norm(w)
            u = eng.scale_div(w, sig)
            m = eng.add_scaled_outer(eng.const(np.zeros((4, 3))), sig, u,
                                     eng.const(np.array([1.0, -2.0, 0.5]) / np.sqrt(5.25)),
                                     1.0)
            return eng.residual_sumsq(eng.const(b), m)

        assert_grad_matches(build, rng.standard_normal(3), rtol=1e-5)

    def test_stack_columns_and_matmul_nt(self):
        rng = rng_from(4)
        a = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 3))

        def build(eng, leaf):
            c1 = eng.matvec(eng.const(a), leaf)
            c2 = eng.normalize(c1)
            m = eng.stack_columns([c1, c2])  # 4 x 2
            v = eng.stack_columns([eng.normalize(leaf),
                                   eng.scale_div(leaf, eng.vec_norm(leaf))])  # 3 x 2
            return eng.residual_sumsq(eng.const(target), eng.matmul_nt(m, v))

        assert_grad_matches(build, rng.standard_normal(3), rtol=1e-5)

    def test_sketch_apply_gradient(self):
        rng = rng_from(5)
        a = rng.standard_normal((4, 3))
        rows = np.array([0, 1, 0, 1])

        def build(eng, leaf):
            sa = eng.sketch_apply(leaf, rows, 2, a)
            w = eng.matvec(sa, eng.const(np.array([0.3, -0.7, 0.2])))
            return eng.vec_norm(w)

        assert_grad_matches(build, rng.standard_normal(4), rtol=1e-5)


class TestTapeMechanics:
    def test_backward_is_repeatable(self):
        rng = rng_from(6)
        a = rng.standard_normal((4, 4))

        def build(eng, leaf):
            return eng.vec_norm(eng.matvec(eng.const(a), leaf))

        tape = Tape()
        x0 = rng.standard_normal(4)
        leaf = tape.leaf_values(x0)
        tape.output = build(tape, leaf)
        g1 = tape.backward_values()
        g2 = tape.backward_values()
        assert np.array_equal(g1, g2)

    def test_incomplete_tape_rejected(self):
        tape = Tape()
        with pytest.raises(RuntimeError, match="incomplete"):
            tape.backward_values()

    def test_handles_are_topologically_ordered(self):
        tape = Tape()
        leaf = tape.leaf_values(np.ones(3))
        c = tape.const(np.eye(3))
        out = tape.vec_norm(tape.matvec(c, leaf))
        assert leaf < c < out == len(tape) - 1

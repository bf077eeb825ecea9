"""Gradient-engine tests: analytic backward vs central finite differences."""

import numpy as np
import pytest

import probalign.autodiff as ad
from probalign.autodiff import ShapeError, Tensor, grad_check


def rand(rng, shape, low=0.5, high=2.0):
    # Positive, away from relu/clamp kinks and log/sqrt singularities.
    return Tensor(rng.uniform(low, high, shape))


class TestForwardExamples:
    def test_relu_passes_nan_and_zeroes_signed_zeros(self):
        out = ad.relu(Tensor([np.nan, -1.0, -0.0, 0.0, 2.0])).data
        assert np.isnan(out[0])
        assert out[1:].tobytes() == np.array([0.0, 0.0, 0.0, 2.0]).tobytes()

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(ad.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_logsumexp_no_overflow(self):
        value = ad.logsumexp(Tensor([1000.0, 1000.0])).item()
        assert np.isfinite(value)
        np.testing.assert_allclose(value, 1000.0 + np.log(2.0), rtol=1e-12)

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 7))
        out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_logsumexp_singleton_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = float(rng.normal(0, 100))
            assert ad.logsumexp(Tensor([x])).item() == pytest.approx(x, abs=1e-12)

    def test_logsumexp_shift_invariance(self):
        rng = np.random.default_rng(2)
        v = rng.normal(0, 3, size=8)
        c = 17.25
        lhs = ad.logsumexp(Tensor(v + c)).item()
        rhs = ad.logsumexp(Tensor(v)).item() + c
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 4))

        def run():
            t = Tensor(x)
            return ad.sum_all(ad.softmax(ad.matmul(t, ad.transpose(t)))).item()

        assert run() == run()


class TestBackwardBasics:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0])
        loss = ad.sum_all(x * x)
        loss.backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_constant_has_zero_gradient(self):
        x = Tensor([1.0, 2.0])
        loss = ad.sum_all(Tensor([3.0]))
        loss.backward()
        assert x.grad is None  # unreachable parameter: gradient stays zero

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            Tensor([1.0, 2.0]).backward()

    def test_gradient_accumulates_across_paths(self):
        a = Tensor(2.0)
        b = Tensor(3.0)
        loss = a * b + a
        loss.backward()
        assert a.grad == pytest.approx(4.0)
        assert b.grad == pytest.approx(2.0)


class TestShapeErrors:
    def test_elementwise_mismatch_names_op_and_shapes(self):
        with pytest.raises(ShapeError, match=r"add.*\(2, 3\).*\(3, 2\)"):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_matmul_mismatch(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestGradCheckExamples:
    def test_product(self):
        f = lambda p: p[0] * p[1]
        assert grad_check(f, [Tensor(2.0), Tensor(3.0)]) < 1e-8

    def test_exp_at_zero(self):
        assert grad_check(lambda p: ad.exp(p[0]), [Tensor(0.0)]) < 1e-8

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            grad_check(lambda p: p[0], [Tensor(1.0)], h=0.0)


UNARY_OPS = [
    ("exp", ad.exp, (-1.0, 1.0)),
    ("log", ad.log, (0.5, 3.0)),
    ("sqrt", ad.sqrt, (0.5, 3.0)),
    ("neg", ad.neg, (-2.0, 2.0)),
    ("relu", ad.relu, (0.1, 2.0)),
    ("softmax", ad.softmax, (-2.0, 2.0)),
    ("logsumexp", ad.logsumexp, (-2.0, 2.0)),
    ("l2_normalize", ad.l2_normalize, (0.5, 2.0)),
    ("sum_last", ad.sum_last, (-2.0, 2.0)),
    ("mean_axis0", ad.mean_axis0, (-2.0, 2.0)),
]


@pytest.mark.parametrize("name,op,box", UNARY_OPS, ids=[u[0] for u in UNARY_OPS])
def test_unary_ops_pass_grad_check_at_100_points(name, op, box):
    rng = np.random.default_rng(hash(name) % 2**32)
    worst = 0.0
    for _ in range(100):
        x = Tensor(rng.uniform(box[0], box[1], size=(2, 3)))
        worst = max(worst, grad_check(lambda p: ad.mean_all(op(p[0])), [x]))
    assert worst < 1e-4


BINARY_OPS = [
    ("add", ad.add),
    ("sub", ad.sub),
    ("mul", ad.mul),
    ("div", ad.div),
]


@pytest.mark.parametrize("name,op", BINARY_OPS, ids=[b[0] for b in BINARY_OPS])
def test_binary_ops_pass_grad_check_at_100_points(name, op):
    rng = np.random.default_rng(hash(name) % 2**32)
    worst = 0.0
    for i in range(100):
        if i % 3 == 0:  # trailing-axis vector broadcast
            a, b = rand(rng, (3, 4)), rand(rng, (4,))
        elif i % 3 == 1:  # scalar broadcast
            a, b = rand(rng, (3, 4)), rand(rng, ())
        else:
            a, b = rand(rng, (3, 4)), rand(rng, (3, 4))
        worst = max(worst, grad_check(lambda p: ad.mean_all(op(p[0], p[1])), [a, b]))
    assert worst < 1e-4


STRUCTURE_CASES = [
    ("matmul", lambda p: ad.mean_all(ad.matmul(p[0], p[1])), [(3, 4), (4, 2)]),
    ("transpose", lambda p: ad.mean_all(ad.transpose(p[0]) * ad.transpose(p[0])), [(3, 4)]),
    ("diagonal", lambda p: ad.mean_all(ad.diagonal(p[0])), [(4, 4)]),
    ("concat", lambda p: ad.mean_all(ad.concat([p[0], p[1]]) * ad.concat([p[1], p[0]])), [(2, 3), (2, 3)]),
    ("sum_all", lambda p: ad.sum_all(p[0] * p[0]), [(3, 4)]),
    ("clamp_min", lambda p: ad.mean_all(ad.clamp_min(p[0], 0.25)), [(3, 4)]),
]


@pytest.mark.parametrize("name,f,shapes", STRUCTURE_CASES, ids=[c[0] for c in STRUCTURE_CASES])
def test_structure_ops_pass_grad_check_at_100_points(name, f, shapes):
    rng = np.random.default_rng(hash(name) % 2**32)
    worst = 0.0
    for _ in range(100):
        params = [rand(rng, s) for s in shapes]
        worst = max(worst, grad_check(f, params))
    assert worst < 1e-4


def test_softmax_diagonal_composition_grad():
    # Exercises the same node feeding several consumers.
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(25):
        x = Tensor(rng.normal(0, 1, (3, 3)))
        f = lambda p: ad.mean_all(ad.logsumexp(p[0]) - ad.diagonal(p[0]))
        worst = max(worst, grad_check(f, [x]))
    assert worst < 1e-4


def test_independent_graphs_do_not_interfere():
    # No shared global state: two interleaved graphs backprop independently.
    x1, x2 = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
    l1 = ad.sum_all(x1 * x1)
    l2 = ad.sum_all(x2 * x2 * x2)
    l2.backward()
    l1.backward()
    np.testing.assert_allclose(x1.grad, [2.0, 4.0])
    np.testing.assert_allclose(x2.grad, 3.0 * np.array([9.0, 16.0]))

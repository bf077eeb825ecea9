"""Gradient-engine tests: analytic backward vs central finite differences."""

import zlib

import numpy as np
import pytest

import probalign.autodiff as ad
from probalign.autodiff import SERIAL_GEMM, ShapeError, Tensor, grad_check
from probalign.encoders import EncoderDims, init_encoder
from probalign.gaussians import GaussianBatch, LogAffinityPairs, SimilarityKind, pairwise_similarity_arrays
from probalign.losses import sis_loss


def rand(rng, shape, low=0.5, high=2.0):
    # Positive, away from relu/clamp kinks and log/sqrt singularities.
    return Tensor(rng.uniform(low, high, shape))


class TestForwardExamples:
    def test_relu_passes_nan_and_zeroes_signed_zeros(self):
        out = ad.relu(Tensor([np.nan, -1.0, -0.0, 0.0, 2.0])).data
        assert np.isnan(out[0])
        assert out[1:].tobytes() == np.array([0.0, 0.0, 0.0, 2.0]).tobytes()

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
            return ad.mean_all(ad.logsumexp(ad.matmul(t, ad.transpose(t)))).item()

        assert run() == run()


class TestBackwardBasics:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0])
        loss = ad.mean_all(x * x)
        loss.backward()
        np.testing.assert_allclose(x.grad, [1.0, 2.0])

    def test_constant_has_zero_gradient(self):
        x = Tensor([1.0, 2.0])
        loss = ad.mean_all(Tensor([3.0]))
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


def concat_columns(a, b):
    """The two operands side by side, folded back to (3, 3) as a + 2b."""
    return ad.matmul(ad.concat([a, b], axis=1), np.vstack([np.eye(3), 2.0 * np.eye(3)]))


class TestConstants:
    def test_implicit_wraps_are_constants(self):
        x = Tensor([1.0, 2.0])
        assert x.needs_grad
        assert ad.tensor(x) is x
        assert not ad.tensor(2.0).needs_grad
        assert not ad.tensor(np.ones(2)).needs_grad
        assert not ad.constant([1.0]).needs_grad

    def test_output_needs_grad_iff_a_parent_does(self):
        c = ad.constant(np.ones(2))
        assert not ad.exp(c).needs_grad
        assert not (c * 3.0).needs_grad
        assert (c * Tensor(np.ones(2))).needs_grad

    def test_constant_gets_no_gradient_and_is_not_visited(self):
        w = Tensor(np.array([[0.5, -1.0], [2.0, 0.25]]))
        x, scale = ad.constant(np.array([[1.0, 2.0], [3.0, 4.0]])), ad.constant(0.5)
        hidden = ad.exp(x) * scale  # a subgraph of constants only
        loss = ad.mean_all(ad.matmul(x, w) * scale + hidden / x - x)
        order = ad._topo_order(loss)
        assert all(node.needs_grad for node in order)
        assert not any(node is c for node in order for c in (x, scale, hidden))
        loss.backward()
        assert x.grad is None and scale.grad is None and hidden.grad is None
        assert w.grad is not None

    @pytest.mark.parametrize(
        "op", [ad.add, ad.sub, ad.mul, ad.div, ad.matmul, concat_columns], ids=lambda f: f.__name__
    )
    def test_gradients_equal_those_of_trainable_leaves(self, op):
        # The constant operand on either side: the parameter's gradient is the
        # one the same graph gives when the constant is a trainable leaf.
        rng = np.random.default_rng(5)
        p_value, c_value = rng.uniform(0.5, 2.0, (3, 3)), rng.uniform(0.5, 2.0, (3, 3))
        for constant_first in (False, True):
            grads = []
            for make in (ad.constant, Tensor):
                p, c = Tensor(p_value), make(c_value)
                out = op(c, p) if constant_first else op(p, c)
                ad.mean_all(ad.logsumexp(out * p)).backward()
                grads.append(p.grad)
            assert grads[0].tobytes() == grads[1].tobytes()


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
    ("logsumexp", ad.logsumexp, (-2.0, 2.0)),
    ("l2_normalize", ad.l2_normalize, (0.5, 2.0)),
    ("sum_last", ad.sum_last, (-2.0, 2.0)),
    ("mean_axis0", ad.mean_axis0, (-2.0, 2.0)),
]


@pytest.mark.parametrize("name,op,box", UNARY_OPS, ids=[u[0] for u in UNARY_OPS])
def test_unary_ops_pass_grad_check_at_100_points(name, op, box):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
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
    rng = np.random.default_rng(zlib.crc32(name.encode()))
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
    ("clamp_min", lambda p: ad.mean_all(ad.clamp_min(p[0], 0.25)), [(3, 4)]),
]


@pytest.mark.parametrize("name,f,shapes", STRUCTURE_CASES, ids=[c[0] for c in STRUCTURE_CASES])
def test_structure_ops_pass_grad_check_at_100_points(name, f, shapes):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
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
    l1 = ad.mean_all(x1 * x1)
    l2 = ad.mean_all(x2 * x2 * x2)
    l2.backward()
    l1.backward()
    np.testing.assert_allclose(x1.grad, [1.0, 2.0])
    np.testing.assert_allclose(x2.grad, 1.5 * np.array([9.0, 16.0]))


def encode_1000_rows() -> int:
    encoder = init_encoder(0, EncoderDims(48, 64, 32), bn_enabled=True)
    encoder.encode(np.random.default_rng(0).normal(size=(1000, 48)))
    return 1000 * (48 * 64 + 64 * 64 + 2 * 64 * 32)


def sis_loss_at_batch_128() -> int:
    rng = np.random.default_rng(1)
    batch = GaussianBatch(rng.normal(size=(128, 32)), rng.normal(size=(128, 32)))
    sis_loss(batch, 0.07, rng=rng).backward()
    return 2 * 256 * 32 * 256


def similarity_1000_by_1000(kind):
    def run() -> int:
        rng = np.random.default_rng(2)
        pairwise_similarity_arrays(*(rng.normal(size=(1000, 32)) for _ in range(4)), kind)
        return 1000 * 32 * 1000

    return run


def bound_of_71_rows() -> int:
    rng = np.random.default_rng(3)
    pairs = LogAffinityPairs(*(rng.normal(size=(918, 32)) for _ in range(4)), SimilarityKind.HELLINGER)
    pairs.bound(slice(0, 71))
    return 71 * 32 * 918


class TestMatmulValues:
    """``matmul_values``: ``a @ b`` in gemm calls that OpenBLAS keeps on the calling thread."""

    # (n, k, m): 2048 multiply-adds a row give 128-row slices, so 128 rows are
    # one call and 129 and 257 rows two and three slices; 600 x 600 is one
    # row over SERIAL_GEMM, so each row is a call of its own.
    @pytest.mark.parametrize("n,k,m", [(0, 32, 64), (1, 32, 64), (127, 32, 64), (128, 32, 64),
                                       (129, 32, 64), (256, 32, 64), (257, 32, 64), (1000, 48, 64),
                                       (3, 600, 600)])
    @pytest.mark.parametrize("transposed", [False, True], ids=["plain", "transposed"])
    def test_matches_the_matrix_product(self, n, k, m, transposed):
        rng = np.random.default_rng(n + k + m)
        a = rng.normal(size=(n, k))
        b = rng.normal(size=(m, k)).T if transposed else rng.normal(size=(k, m))
        got = ad.matmul_values(a, b)
        assert got.shape == (n, m)
        np.testing.assert_allclose(got, a @ b, rtol=1e-12, atol=1e-12)

    @pytest.fixture
    def gemm_sizes(self, monkeypatch):
        sizes, matmul = [], np.matmul

        def spy(a, b, *args, **kwargs):
            sizes.append(a.shape[0] * a.shape[1] * b.shape[1])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        return sizes

    def test_slices_are_within_one_row_of_each_other(self, gemm_sizes):
        ad.matmul_values(np.ones((257, 32)), np.ones((32, 64)))
        assert gemm_sizes == [85 * 2048, 86 * 2048, 86 * 2048]

    @pytest.mark.parametrize(
        "case",
        [
            encode_1000_rows,
            sis_loss_at_batch_128,
            similarity_1000_by_1000(SimilarityKind.CSD),
            similarity_1000_by_1000(SimilarityKind.COSINE),
            bound_of_71_rows,
        ],
        ids=["eval-encode", "sis-loss", "csd", "cosine", "bound"],
    )
    def test_large_products_stay_under_the_serial_size(self, gemm_sizes, case):
        # Every product goes through the helper: the calls add up to the whole
        # products, and each is small enough to stay on the calling thread.
        total = case()
        assert sum(gemm_sizes) == total
        assert max(gemm_sizes) <= SERIAL_GEMM < total

"""Similarity/distance tests against quadrature and Monte Carlo oracles.

Frozen expected values below were computed by the stated independent oracles
(scipy quadrature of the density overlap, closed-form hand evaluation,
Monte Carlo estimates) before being asserted here; the oracle recomputation
also runs inline.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from composed_graph import composed_similarity_graph
import retrieval_cases

import probalign.autodiff as ad
from probalign import gaussians
from probalign.autodiff import Tensor, grad_check
from probalign.gaussians import (
    VAR_FLOOR,
    GaussianBatch,
    GaussianEmbedding,
    LogAffinityPairs,
    SimilarityKind,
    _log_affinity,
    _log_affinity_op,
    _variances,
    bhattacharyya_distance,
    cosine_mu,
    csd,
    hellinger_similarity,
    hellinger_sq,
    pairwise_similarity_arrays,
    pairwise_similarity_graph,
    sample,
)


def emb(mu, var):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    var = np.atleast_1d(np.asarray(var, dtype=float))
    return GaussianEmbedding(mu, np.log(var))


def hellinger_sq_quad(mu_a, var_a, mu_b, var_b) -> float:
    """Independent oracle: (1/2) integral of (sqrt(p) - sqrt(q))^2 dx."""

    def integrand(x):
        p = math.exp(-0.5 * (x - mu_a) ** 2 / var_a) / math.sqrt(2 * math.pi * var_a)
        q = math.exp(-0.5 * (x - mu_b) ** 2 / var_b) / math.sqrt(2 * math.pi * var_b)
        return 0.5 * (math.sqrt(p) - math.sqrt(q)) ** 2

    lo = min(mu_a - 14 * math.sqrt(var_a), mu_b - 14 * math.sqrt(var_b))
    hi = max(mu_a + 14 * math.sqrt(var_a), mu_b + 14 * math.sqrt(var_b))
    value, _ = integrate.quad(integrand, lo, hi, limit=200)
    return value


class TestHellinger:
    def test_identical_distributions(self):
        rng = np.random.default_rng(0)
        e = GaussianEmbedding(rng.normal(size=8), rng.normal(size=8))
        assert hellinger_sq(e, e) == 0.0
        assert hellinger_similarity(e, e) == 1.0

    def test_unit_gaussians_mean_shift(self):
        # Frozen from the quadrature oracle.
        value = hellinger_sq(emb(0, 1), emb(1, 1))
        assert value == pytest.approx(0.117503097, abs=1e-8)
        assert value == pytest.approx(hellinger_sq_quad(0, 1, 1, 1), abs=1e-9)

    def test_variance_gap(self):
        value = hellinger_sq(emb(0, 1), emb(0, 4))
        assert value == pytest.approx(0.105572809, abs=1e-8)
        assert value == pytest.approx(hellinger_sq_quad(0, 1, 0, 4), abs=1e-9)

    def test_similarity_from_quadrature(self):
        value = hellinger_similarity(emb(0, 1), emb(1, 1))
        assert value == pytest.approx(1 - math.sqrt(0.117503097), abs=1e-8)
        assert value == pytest.approx(0.657213, abs=1e-6)

    def test_far_apart_means_saturate(self):
        assert hellinger_similarity(emb(0, 1), emb(60, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_quadrature_agreement_100_random_pairs(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            mu = rng.normal(0, 2, size=2)
            var = np.exp(rng.uniform(-2, 2, size=2))
            closed = hellinger_sq(emb(mu[0], var[0]), emb(mu[1], var[1]))
            numeric = hellinger_sq_quad(mu[0], var[0], mu[1], var[1])
            worst = max(worst, abs(closed - numeric))
        assert worst < 1e-6

    def test_monotone_in_mean_gap(self):
        gaps = np.linspace(0.0, 5.0, 21)
        values = [hellinger_sq(emb(0, 1.7), emb(g, 1.7)) for g in gaps]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            hellinger_sq(emb([0, 0], [1, 1]), emb(0, 1))

    def test_no_underflow_at_high_dim(self):
        # Product over 512 dims would underflow without the sum-of-logs route.
        rng = np.random.default_rng(1)
        a = GaussianEmbedding(rng.normal(size=512), rng.uniform(-1, 1, 512))
        b = GaussianEmbedding(rng.normal(size=512), rng.uniform(-1, 1, 512))
        value = hellinger_sq(a, b)
        assert 0.0 <= value <= 1.0 and np.isfinite(value)


class TestBhattacharyya:
    def test_identical(self):
        e = emb([0.3, -1.0], [2.0, 0.5])
        assert bhattacharyya_distance(e, e) == 0.0

    def test_hand_value(self):
        # Closed form by hand: (0-1)^2/(4*2) + 0.5*ln(1) = 0.125.
        assert bhattacharyya_distance(emb(0, 1), emb(1, 1)) == pytest.approx(0.125, abs=1e-12)

    def test_gaussian_identity_1000_pairs(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for d in (1, 8, 64):
            for _ in range(334):
                a = GaussianEmbedding(rng.normal(0, 1, d), rng.uniform(-2, 2, d))
                b = GaussianEmbedding(rng.normal(0, 1, d), rng.uniform(-2, 2, d))
                gap = abs(hellinger_sq(a, b) - (1.0 - math.exp(-bhattacharyya_distance(a, b))))
                worst = max(worst, gap)
        assert worst < 1e-10


class TestCsd:
    def test_mean_term_vanishes(self):
        e1 = emb([1.0, 2.0], [1.0, 1.0])
        e2 = emb([1.0, 2.0], [1.0, 1.0])
        assert csd(e1, e2) == pytest.approx(4.0)

    def test_monte_carlo_value(self):
        # E||Za - Zb||^2 for N(0,1) vs N(1,1); frozen from a 1e6-sample run.
        assert csd(emb(0, 1), emb(1, 1)) == pytest.approx(3.0, abs=1e-12)
        rng = np.random.default_rng(11)
        za = sample(emb(0, 1), 1_000_000, rng)
        zb = sample(emb(1, 1), 1_000_000, rng)
        estimate = float(np.mean(np.sum((za - zb) ** 2, axis=1)))
        assert abs(estimate - 3.0) < 1e-2

    def test_variance_scaling_linearity(self):
        a, b = emb([0.0], [1.5]), emb([2.0], [0.5])
        t = 3.0
        at, bt = emb([0.0], [1.5 * t]), emb([2.0], [0.5 * t])
        mean_term = 4.0
        assert csd(at, bt) - mean_term == pytest.approx(t * (csd(a, b) - mean_term))


class TestCosine:
    def test_self(self):
        e = emb([1.0, 2.0], [1.0, 1.0])
        assert cosine_mu(e, e) == pytest.approx(1.0)

    def test_orthogonal_and_opposite(self):
        a = emb([1.0, 0.0], [1.0, 1.0])
        b = emb([0.0, 1.0], [1.0, 1.0])
        assert cosine_mu(a, b) == pytest.approx(0.0)
        c = emb([-1.0, 0.0], [2.0, 2.0])
        assert cosine_mu(a, c) == pytest.approx(-1.0)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            cosine_mu(emb([0.0], [1.0]), emb([1.0], [1.0]))

    def test_ignores_variances(self):
        a1 = emb([1.0, 1.0], [1.0, 1.0])
        a2 = emb([1.0, 1.0], [9.0, 0.1])
        b = emb([2.0, 0.5], [1.0, 1.0])
        assert cosine_mu(a1, b) == cosine_mu(a2, b)


class TestSampling:
    def test_degenerate_variance(self):
        e = GaussianEmbedding(np.array([1.0, -2.0]), np.array([-40.0, -40.0]))
        z = sample(e, 100, np.random.default_rng(0))
        assert np.abs(z - e.mu).max() < 1e-8

    def test_law_of_large_numbers(self):
        rng = np.random.default_rng(5)
        e = GaussianEmbedding(np.array([0.5, -1.0, 2.0]), np.log([0.5, 2.0, 1.0]))
        n = 100_000
        z = sample(e, n, rng)
        sigma = np.exp(0.5 * e.log_var)
        assert np.all(np.abs(z.mean(axis=0) - e.mu) < 4 * sigma / math.sqrt(n))
        assert np.all(np.abs(z.var(axis=0) / sigma**2 - 1.0) < 0.10)

    def test_deterministic_given_seed(self):
        e = emb([0.0, 1.0], [1.0, 2.0])
        z1 = sample(e, 10, np.random.default_rng(123))
        z2 = sample(e, 10, np.random.default_rng(123))
        np.testing.assert_array_equal(z1, z2)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            sample(emb(0, 1), 0, np.random.default_rng(0))


def pairwise(a, b, kind):
    """pairwise_similarity_arrays of two lists of embeddings."""

    def stack(embeddings):
        return np.stack([e.mu for e in embeddings]), np.stack([e.log_var for e in embeddings])

    return pairwise_similarity_arrays(*stack(a), *stack(b), kind)


class TestPairwise:
    def test_hellinger_self_diagonal(self):
        rng = np.random.default_rng(7)
        batch = [GaussianEmbedding(rng.normal(size=4), rng.normal(size=4)) for _ in range(5)]
        sim = pairwise(batch, batch, SimilarityKind.HELLINGER)
        np.testing.assert_allclose(np.diag(sim), 1.0)

    def test_csd_diagonal_argmax_with_identical_variances(self):
        rng = np.random.default_rng(8)
        lv = rng.normal(size=4)
        batch = [GaussianEmbedding(rng.normal(size=4), lv) for _ in range(6)]
        sim = pairwise(batch, batch, SimilarityKind.CSD)
        assert np.array_equal(np.argmax(sim, axis=1), np.arange(6))

    def test_matches_scalar_ops_entrywise(self):
        rng = np.random.default_rng(9)
        a = [GaussianEmbedding(rng.normal(size=3), rng.normal(size=3)) for _ in range(2)]
        b = [GaussianEmbedding(rng.normal(size=3), rng.normal(size=3)) for _ in range(2)]
        scalar = {
            SimilarityKind.HELLINGER: hellinger_similarity,
            SimilarityKind.BHATTACHARYYA: lambda x, y: -bhattacharyya_distance(x, y),
            SimilarityKind.CSD: lambda x, y: -csd(x, y),
            SimilarityKind.COSINE: cosine_mu,
        }
        for kind, fn in scalar.items():
            sim = pairwise(a, b, kind)
            expect = [[fn(x, y) for y in b] for x in a]
            np.testing.assert_allclose(sim, expect, atol=1e-12)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            pairwise([emb(0, 1)], [emb([0, 0], [1, 1])], SimilarityKind.HELLINGER)

    def test_graph_route_matches_numpy_route(self):
        rng = np.random.default_rng(10)
        mu_a, lv_a = rng.normal(size=(4, 6)), rng.uniform(-1, 1, (4, 6))
        mu_b, lv_b = rng.normal(size=(5, 6)), rng.uniform(-1, 1, (5, 6))
        for kind in SimilarityKind:
            g = pairwise_similarity_graph(
                GaussianBatch(Tensor(mu_a), Tensor(lv_a)),
                GaussianBatch(Tensor(mu_b), Tensor(lv_b)),
                kind,
            )
            n = pairwise_similarity_arrays(mu_a, lv_a, mu_b, lv_b, kind)
            if kind is SimilarityKind.COSINE:
                np.testing.assert_allclose(g.data, n, atol=1e-12)
            else:  # the fused ops take their forward from the numpy kernels
                np.testing.assert_array_equal(g.data, n)

    @pytest.mark.parametrize("budget", [1, 2 * 9 * 4, 3 * 9 * 4], ids=["1-row", "2-rows-partial", "3-rows-partial"])
    def test_block_budget_invariance(self, monkeypatch, budget):
        # 7 rows of A against 9 of B in D = 4: the default budget makes one
        # block of the whole matrix, a budget of 1 term gives 1-row blocks,
        # and 72 or 108 terms 2- or 3-row blocks with a partial last one.
        # S and the kept terms stay bit for bit.
        rng = np.random.default_rng(12)
        mu_a, lv_a = rng.normal(size=(7, 4)), rng.uniform(-1, 1, (7, 4))
        mu_b, lv_b = rng.normal(size=(9, 4)), rng.uniform(-1, 1, (9, 4))
        va, vb = _variances(lv_a), _variances(lv_b)
        kinds = (SimilarityKind.HELLINGER, SimilarityKind.BHATTACHARYYA)
        full = [pairwise_similarity_arrays(mu_a, lv_a, mu_b, lv_b, kind) for kind in kinds]
        terms = _log_affinity(mu_a, va, mu_b, vb, keep_terms=True)
        monkeypatch.setattr(gaussians, "AFFINITY_TERMS", budget)
        for kind, expect in zip(kinds, full):
            blocked = pairwise_similarity_arrays(mu_a, lv_a, mu_b, lv_b, kind)
            assert blocked.tobytes() == expect.tobytes(), kind.value
        for name, got, expect in zip(("S", "m", "dm"), _log_affinity(mu_a, va, mu_b, vb, keep_terms=True), terms):
            assert got.tobytes() == expect.tobytes(), name
        assert terms[0].tobytes() == full[1].tobytes()

    @pytest.mark.parametrize("kind", [SimilarityKind.HELLINGER, SimilarityKind.BHATTACHARYYA], ids=lambda k: k.value)
    def test_peak_memory_near_the_result(self, kind):
        # The blocked kernel finishes S block by block, so S is the only
        # |A| x |B| array it allocates; the block buffers and per-row terms
        # add about a third of S at this size.
        rng = np.random.default_rng(14)
        mu_a, lv_a = rng.normal(size=(600, 32)), rng.uniform(-3, 3, (600, 32))
        mu_b, lv_b = rng.normal(size=(600, 32)), rng.uniform(-3, 3, (600, 32))
        tracemalloc.start()
        try:
            out = pairwise_similarity_arrays(mu_a, lv_a, mu_b, lv_b, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the result"

    def test_identical_rows_score_exactly(self):
        # The separable kernel keeps the exact zero distance of identical pairs.
        rng = np.random.default_rng(13)
        mu, lv = rng.normal(size=(20, 32)), rng.uniform(-3, 3, (20, 32))
        bhatt = pairwise_similarity_arrays(mu, lv, mu, lv, SimilarityKind.BHATTACHARYYA)
        hell = pairwise_similarity_arrays(mu, lv, mu, lv, SimilarityKind.HELLINGER)
        assert np.all(np.diag(bhatt) == 0.0)
        assert np.all(np.diag(hell) == 1.0)
        assert np.all(bhatt <= 0.0) and np.all((hell >= 0.0) & (hell <= 1.0))


LOG_AFFINITY_KINDS = (SimilarityKind.HELLINGER, SimilarityKind.BHATTACHARYYA)
RETRIEVAL_CASES = retrieval_cases.cases()


class TestLogAffinityPairs:
    """The pairs entry and the row bound used by the exact retrieval ranking."""

    @pytest.mark.parametrize("kind", LOG_AFFINITY_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("d", [1, 3, 32, 33, 128])
    def test_pairs_equal_the_matrix_bit_for_bit(self, kind, d):
        # Every pair, in a shuffled order, through chunks that end off the row
        # boundaries: each value is the matrix kernel's entry, bit for bit.
        rng = np.random.default_rng(d)
        mu_a, lv_a = rng.normal(size=(23, d)), rng.uniform(-3, 3, (23, d))
        mu_b, lv_b = rng.normal(size=(29, d)), rng.uniform(-3, 3, (29, d))
        matrix = pairwise_similarity_arrays(mu_a, lv_a, mu_b, lv_b, kind)
        order = rng.permutation(matrix.size)
        rows, cols = np.divmod(order, 29)
        pairs = LogAffinityPairs(mu_a, lv_a, mu_b, lv_b, kind)
        assert pairs.chunk * d <= gaussians.AFFINITY_TERMS
        assert pairs.similarity(rows, cols).tobytes() == matrix.ravel()[order].tobytes()

    @pytest.mark.parametrize("kind", LOG_AFFINITY_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("case", sorted(RETRIEVAL_CASES))
    def test_bound_covers_every_pair(self, kind, case):
        mu_a, lv_a, mu_b, lv_b, _, _ = RETRIEVAL_CASES[case]
        matrix = pairwise_similarity_arrays(mu_a, lv_a, mu_b, lv_b, kind)
        pairs = LogAffinityPairs(mu_a, lv_a, mu_b, lv_b, kind)
        bound = np.vstack([pairs.bound(slice(s, s + 7)) for s in range(0, len(mu_a), 7)])
        assert np.all(bound >= matrix)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=-4.0, max_value=3.0),
        st.floats(min_value=-40.0, max_value=3.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_bound_holds_across_scales(self, d, log10_scale, lv_center, seed):
        # Means from 1e-4 to 1e3 and log-variances down to far below the floor,
        # with near-duplicate pairs, where the bound is nearly tight.
        rng = np.random.default_rng(seed)
        mu_a = 10.0**log10_scale * rng.normal(size=(6, d))
        mu_b = np.vstack([mu_a + 1e-3 * 10.0**log10_scale * rng.normal(size=(6, d)), mu_a])
        lv_a = lv_center + rng.uniform(-1, 1, (6, d))
        lv_b = np.vstack([lv_a, lv_center + rng.uniform(-1, 1, (6, d))])
        for kind in LOG_AFFINITY_KINDS:
            pairs = LogAffinityPairs(mu_a, lv_a, mu_b, lv_b, kind)
            assert np.all(pairs.bound(slice(0, 6)) >= pairwise_similarity_arrays(mu_a, lv_a, mu_b, lv_b, kind))

    @pytest.mark.parametrize("kind", [SimilarityKind.COSINE, SimilarityKind.CSD], ids=lambda k: k.value)
    def test_other_kinds_rejected(self, kind):
        with pytest.raises(ValueError, match="not a log-affinity similarity"):
            LogAffinityPairs(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)), kind)


class TestFusedOps:
    """The fused similarity ops against the composed-graph oracle in tests/."""

    B, D = 64, 32
    FUSED_KINDS = (SimilarityKind.HELLINGER, SimilarityKind.BHATTACHARYYA, SimilarityKind.CSD)

    def params(self, seed):
        rng = np.random.default_rng(seed)
        # Spreads that keep exp(S) near 1/2, where the Hellinger gradient is large.
        mu_a, lv_a = rng.normal(0, 0.2, (self.B, self.D)), rng.uniform(-0.5, 0.5, (self.B, self.D))
        mu_b, lv_b = rng.normal(0, 0.2, (self.B, self.D)), rng.uniform(-0.5, 0.5, (self.B, self.D))
        # Rows 0-3 of A sit below the variance floor in half their dimensions.
        lv_a[:4, ::2] = math.log(VAR_FLOOR) - rng.uniform(1, 5, (4, self.D // 2))
        # Rows 10-13 of A and B are identical, so their H^2 is under _H2_FLOOR.
        mu_b[10:14], lv_b[10:14] = mu_a[10:14], lv_a[10:14]
        weights = rng.normal(size=(self.B, self.B))
        return [mu_a, lv_a, mu_b, lv_b], weights

    @staticmethod
    def run(graph, arrays, weights, kind):
        params = [Tensor(x.copy()) for x in arrays]
        sim = graph(GaussianBatch(params[0], params[1]), GaussianBatch(params[2], params[3]), kind)
        ad.mean_all(sim * Tensor(weights * weights.size)).backward()
        return sim.data, [p.grad for p in params]

    @pytest.mark.parametrize("kind", FUSED_KINDS, ids=lambda k: k.value)
    def test_forward_and_gradients_match_composed_graph(self, kind):
        arrays, weights = self.params(31)
        value, grads = self.run(pairwise_similarity_graph, arrays, weights, kind)
        ref_value, ref_grads = self.run(composed_similarity_graph, arrays, weights, kind)
        np.testing.assert_allclose(value, ref_value, rtol=0, atol=1e-12)
        for name, g, ref in zip(("mu_a", "lv_a", "mu_b", "lv_b"), grads, ref_grads):
            np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("kind", FUSED_KINDS, ids=lambda k: k.value)
    def test_floored_variance_has_zero_gradient(self, kind):
        arrays, weights = self.params(32)
        _, grads = self.run(pairwise_similarity_graph, arrays, weights, kind)
        below = arrays[1] <= math.log(VAR_FLOOR)
        assert below.sum() == 4 * self.D // 2
        assert np.all(grads[1][below] == 0.0)
        assert np.all(grads[1][~below] != 0.0)

    def test_identical_rows_hit_the_h2_floor(self):
        arrays, weights = self.params(33)
        value, grads = self.run(pairwise_similarity_graph, arrays, weights, SimilarityKind.HELLINGER)
        np.testing.assert_array_equal(np.diag(value)[10:14], 1.0 - math.sqrt(1e-12))
        # Only row i of A meets row i of B at the floor: zeroing that one
        # upstream entry leaves every gradient unchanged.
        masked = weights.copy()
        masked[np.arange(10, 14), np.arange(10, 14)] = 0.0
        _, masked_grads = self.run(pairwise_similarity_graph, arrays, masked, SimilarityKind.HELLINGER)
        for g, m in zip(grads, masked_grads):
            np.testing.assert_array_equal(g, m)

    @pytest.mark.parametrize("rows", [1, 17, 33])
    def test_log_affinity_op_forward_equals_eval_kernel(self, rows):
        # Row counts off the 16-row blocks of this size's term budget: the op
        # keeps whole (A, B, D) terms and finishes S once, the eval kernel
        # reuses one block buffer and finishes S per block, and S is the same
        # bit for bit.
        rng = np.random.default_rng(rows)
        mu_a, lv_a = rng.normal(size=(rows, 8)), rng.uniform(-3, 3, (rows, 8))
        mu_b, lv_b = rng.normal(size=(rows + 2, 8)), rng.uniform(-3, 3, (rows + 2, 8))
        op = _log_affinity_op(GaussianBatch(mu_a, lv_a), GaussianBatch(mu_b, lv_b))
        va, vb = _variances(lv_a), _variances(lv_b)
        assert op.data.tobytes() == _log_affinity(mu_a, va, mu_b, vb).tobytes()
        _, m, dm = _log_affinity(mu_a, va, mu_b, vb, keep_terms=True)
        np.testing.assert_array_equal(m, 0.5 * va[:, None, :] + 0.5 * vb[None, :, :])
        np.testing.assert_array_equal(dm, mu_a[:, None, :] - mu_b[None, :, :])

    def test_dimension_mismatch_rejected(self):
        a = GaussianBatch(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        b = GaussianBatch(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))))
        with pytest.raises(ValueError, match="dimensions differ"):
            pairwise_similarity_graph(a, b, SimilarityKind.HELLINGER)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_symmetry_and_bounds_property(dim, seed):
    rng = np.random.default_rng(seed)
    a = GaussianEmbedding(rng.normal(0, 2, dim), rng.uniform(-3, 3, dim))
    b = GaussianEmbedding(rng.normal(0, 2, dim), rng.uniform(-3, 3, dim))
    h2 = hellinger_sq(a, b)
    assert 0.0 <= h2 <= 1.0
    assert hellinger_sq(b, a) == h2
    ps = hellinger_similarity(a, b)
    assert 0.0 <= ps <= 1.0
    db = bhattacharyya_distance(a, b)
    assert db >= 0.0
    assert bhattacharyya_distance(b, a) == db
    assert csd(a, b) == csd(b, a)


def test_all_similarities_pass_grad_check_at_100_points():
    rng = np.random.default_rng(21)
    worst = {kind: 0.0 for kind in SimilarityKind}
    for kind in SimilarityKind:
        for _ in range(100):
            params = [
                Tensor(rng.normal(0, 1, (2, 4))),
                Tensor(rng.uniform(-1, 1, (2, 4))),
                Tensor(rng.normal(0, 1, (2, 4))),
                Tensor(rng.uniform(-1, 1, (2, 4))),
            ]

            def f(p, kind=kind):
                return ad.mean_all(
                    pairwise_similarity_graph(GaussianBatch(p[0], p[1]), GaussianBatch(p[2], p[3]), kind)
                )

            worst[kind] = max(worst[kind], grad_check(f, params))
    assert all(err < 1e-4 for err in worst.values()), worst


def test_hellinger_similarity_grad_check_single_pair():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(20):
        params = [
            Tensor(rng.normal(0, 1, (1, 8))),
            Tensor(rng.uniform(-1, 1, (1, 8))),
            Tensor(rng.normal(0, 1, (1, 8))),
            Tensor(rng.uniform(-1, 1, (1, 8))),
        ]

        def f(p):
            return ad.mean_all(
                pairwise_similarity_graph(
                    GaussianBatch(p[0], p[1]), GaussianBatch(p[2], p[3]), SimilarityKind.HELLINGER
                )
            )

        worst = max(worst, grad_check(f, params))
    assert worst < 1e-4


class TestEmbeddingValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths differ"):
            GaussianEmbedding(np.zeros(3), np.zeros(4))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            GaussianEmbedding(np.array([np.nan]), np.array([0.0]))

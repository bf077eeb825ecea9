"""Loss tests: frozen scalar-oracle values, Monte Carlo KL, gradient checks."""

import math

import numpy as np
import pytest

from composed_graph import composed_sis_loss

import probalign.autodiff as ad
from probalign.autodiff import Tensor, grad_check
from probalign.gaussians import GaussianBatch, GaussianEmbedding, SimilarityKind, pairwise_similarity_arrays
from probalign.losses import (
    LossWeights,
    pair_loss,
    sis_loss,
    vib_loss,
)


def batch(mu, log_var):
    return GaussianBatch(Tensor(np.asarray(mu, dtype=float)), Tensor(np.asarray(log_var, dtype=float)))


def random_batch(rng, n, d, mu_scale=1.0):
    return batch(rng.normal(0, mu_scale, (n, d)), rng.uniform(-1, 1, (n, d)))


def info_nce(b1, b2, kind, tau):
    """The InfoNCE-only pair objective (beta = gamma = 0): (total node, components)."""
    return pair_loss(b1, b2, LossWeights(alpha=1.0, beta=0.0, gamma=0.0, tau=tau), kind)


def nce_reference(sim, tau):
    """Mean over rows of logsumexp(row / tau) - diagonal / tau, in float64 numpy."""
    logits = np.asarray(sim) / tau
    peak = logits.max(axis=1, keepdims=True)
    lse = (peak + np.log(np.exp(logits - peak).sum(axis=1, keepdims=True))).ravel()
    return float((lse - np.diag(logits)).mean())


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.alpha, w.beta, w.gamma, w.tau) == (1.0, 0.5, 1e-4, 0.07)

    def test_tau_positive(self):
        with pytest.raises(ValueError):
            LossWeights(tau=0.0)

    def test_nonnegative_weights(self):
        with pytest.raises(ValueError):
            LossWeights(alpha=-1.0)


class TestInfoNce:
    """InfoNCE through ``pair_loss`` with beta = gamma = 0, per direction."""

    def test_self_pair_is_near_zero(self):
        # Each embedding paired with itself, the others far away: similarity 1 on
        # the diagonal (1 - 1e-6 under the graph's H^2 floor) and 0 off it, so
        # each row loses log(1 + exp(-1/tau)).
        b = batch([[100.0, 0.0], [-100.0, 0.0]], np.zeros((2, 2)))
        total, parts = info_nce(b, b, SimilarityKind.HELLINGER, 0.07)
        expected = math.log1p(math.exp(-1.0 / 0.07))
        assert parts["mod_f"] == parts["mod_b"] == pytest.approx(expected, rel=1e-4)
        assert total.item() == pytest.approx(0.0, abs=1e-5)

    def test_uniform_similarities_give_ln_n(self):
        # Identical embeddings everywhere: all pairwise similarities equal.
        mu = np.tile([0.5, -0.5], (2, 1))
        b = batch(mu, np.zeros((2, 2)))
        _, parts = info_nce(b, b, SimilarityKind.HELLINGER, 0.07)
        assert parts["mod_f"] == pytest.approx(math.log(2.0), abs=1e-12)
        assert parts["mod_b"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_ln_n_at_larger_batch(self):
        mu = np.tile([0.3, 0.7, -0.2], (5, 1))
        b = batch(mu, np.zeros((5, 3)))
        _, parts = info_nce(b, b, SimilarityKind.COSINE, 0.2)
        assert parts["mod_f"] == pytest.approx(math.log(5.0), abs=1e-12)
        assert parts["mod_b"] == pytest.approx(math.log(5.0), abs=1e-12)

    def test_strong_diagonal_hand_value(self):
        # Scalar recomputation oracle: s_ii = 1, s_ij = 0, tau = 0.07 gives
        # per-row loss log(1 + exp(-1/0.07)).
        expected = math.log(1.0 + math.exp(-1.0 / 0.07))
        logits = Tensor(np.eye(2) / 0.07)
        from probalign.losses import _nce_from_logits

        assert _nce_from_logits(logits).item() == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(6.2e-7, abs=1e-7)

    def test_increasing_positive_similarity_decreases_loss(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(0, 1, (4, 4))
        from probalign.losses import _nce_from_logits

        base = _nce_from_logits(Tensor(logits.copy())).item()
        boosted = logits.copy()
        np.fill_diagonal(boosted, np.diag(boosted) + 0.5)
        assert _nce_from_logits(Tensor(boosted)).item() < base

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q = random_batch(rng, 5, 3)
            k = random_batch(rng, 5, 3)
            _, parts = info_nce(q, k, SimilarityKind.HELLINGER, 0.07)
            assert parts["mod_f"] >= 0.0 and parts["mod_b"] >= 0.0

    def test_validation_errors(self):
        b = random_batch(np.random.default_rng(0), 2, 3)
        with pytest.raises(ValueError, match="tau"):
            info_nce(b, b, SimilarityKind.HELLINGER, 0.0)
        with pytest.raises(ValueError, match="batch sizes"):
            info_nce(b, random_batch(np.random.default_rng(0), 3, 3), SimilarityKind.HELLINGER, 0.07)


class TestSisLoss:
    def test_orthogonal_siblings_hand_value(self):
        # 4 samples: sibling pairs identical, cross pairs orthogonal, tau = 1.
        # Per anchor: -log(e / (e + 2)).
        mu = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        lv = np.full((2, 4), -80.0)  # sigma ~ 4e-18: samples coincide with mu
        eps = np.zeros((2, 2, 4))
        value = sis_loss(batch(mu, lv), tau=1.0, eps=eps).item()
        expected = -math.log(math.e / (math.e + 2.0))
        assert value == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(0.5514, abs=1e-4)

    def test_degenerate_variance_limit(self):
        # Near-deterministic embeddings with orthogonal means: positives have
        # cosine ~ 1, negatives ~ 0 even with nonzero noise draws.
        rng = np.random.default_rng(3)
        mu = np.eye(3)
        lv = np.full((3, 3), -40.0)
        eps = rng.standard_normal((2, 3, 3))
        z_sigma = np.exp(0.5 * lv[0, 0])
        assert z_sigma < 1e-8
        value = sis_loss(batch(mu, lv), tau=1.0, eps=eps).item()
        expected = -math.log(math.e / (math.e + 4.0))  # 6 anchors, 4 negatives each
        assert value == pytest.approx(expected, abs=1e-6)

    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(4)
        mu = rng.normal(0, 1, (5, 6))
        lv = rng.uniform(-1, 1, (5, 6))
        eps = rng.standard_normal((2, 5, 6))
        base = sis_loss(batch(mu, lv), tau=0.07, eps=eps).item()
        perm = rng.permutation(5)
        permuted = sis_loss(batch(mu[perm], lv[perm]), tau=0.07, eps=eps[:, perm]).item()
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_needs_two_items(self):
        with pytest.raises(ValueError, match="at least 2"):
            sis_loss(batch([[0.0]], [[0.0]]), tau=1.0, eps=np.zeros((2, 1, 1)))

    def test_fresh_noise_from_rng(self):
        rng = np.random.default_rng(5)
        b = random_batch(rng, 3, 4)
        v1 = sis_loss(b, 0.07, rng=np.random.default_rng(1)).item()
        v2 = sis_loss(b, 0.07, rng=np.random.default_rng(1)).item()
        v3 = sis_loss(b, 0.07, rng=np.random.default_rng(2)).item()
        assert v1 == v2 and v1 != v3


class TestFusedSis:
    """The one-node sis_loss against the composed graph in tests/composed_graph.py."""

    @staticmethod
    def run(loss_fn, mu, lv, tau, eps):
        params = [Tensor(mu.copy()), Tensor(lv.copy())]
        loss = loss_fn(GaussianBatch(*params), tau, eps=eps)
        (3.0 * loss).backward()
        return loss.item(), [p.grad for p in params]

    @pytest.mark.parametrize("tau", [0.07, 1.0])
    @pytest.mark.parametrize("d", [1, 32])
    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_value_bitwise_and_gradients_match_composed_graph(self, n, d, tau):
        rng = np.random.default_rng([n, d, int(100 * tau)])
        mu, lv = rng.normal(0, 1, (n, d)), rng.uniform(-3, 3, (n, d))
        eps = rng.standard_normal((2, n, d))
        value, grads = self.run(sis_loss, mu, lv, tau, eps)
        ref_value, ref_grads = self.run(composed_sis_loss, mu, lv, tau, eps)
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        for name, g, ref in zip(("mu", "log_var"), grads, ref_grads):
            assert g.shape == ref.shape
            assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    def test_rng_path_draws_the_same_noise(self):
        rng = np.random.default_rng(21)
        b = random_batch(rng, 5, 4)
        drawn, ref = np.random.default_rng(3), np.random.default_rng(3)
        value = sis_loss(b, 0.07, rng=drawn).item()
        expected = composed_sis_loss(b, 0.07, eps=ref.standard_normal((2, 5, 4))).item()
        assert value == expected
        assert drawn.standard_normal() == ref.standard_normal()

    def test_one_node_over_mu_and_log_var(self):
        b = random_batch(np.random.default_rng(22), 4, 3)
        loss = sis_loss(b, 0.07, eps=np.zeros((2, 4, 3)))
        assert len(loss._parents) == 2
        assert loss._parents[0] is b.mu and loss._parents[1] is b.log_var

    def test_eps_shape_checked(self):
        b = random_batch(np.random.default_rng(23), 4, 3)
        with pytest.raises(ValueError, match=r"eps must have shape \(2, 4, 3\)"):
            sis_loss(b, 0.07, eps=np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="pass rng or explicit eps"):
            sis_loss(b, 0.07)
        with pytest.raises(ValueError, match="tau must be positive"):
            sis_loss(b, 0.0, eps=np.zeros((2, 4, 3)))


class TestVibLoss:
    def test_zero_at_prior(self):
        assert vib_loss(batch(np.zeros((3, 4)), np.zeros((3, 4)))).item() == 0.0

    def test_unit_mean_shift(self):
        # KL(N(1,1) || N(0,1)) = 0.5; cross-checked by Monte Carlo below.
        assert vib_loss(batch([[1.0]], [[0.0]])).item() == pytest.approx(0.5, abs=1e-12)

    def test_wide_variance(self):
        expected = 0.5 * (4.0 - 1.0 - math.log(4.0))
        assert vib_loss(batch([[0.0]], [[math.log(4.0)]])).item() == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.8069, abs=1e-4)

    @pytest.mark.parametrize(
        "mu,var",
        [(1.0, 1.0), (0.0, 4.0), (-0.5, 0.25)],
        ids=["shifted", "wide", "narrow"],
    )
    def test_monte_carlo_kl(self, mu, var):
        rng = np.random.default_rng(17)
        lv = math.log(var)
        closed = vib_loss(batch([[mu]], [[lv]])).item()
        z = mu + math.sqrt(var) * rng.standard_normal(1_000_000)
        log_q = -0.5 * ((z - mu) ** 2 / var + lv + math.log(2 * math.pi))
        log_p = -0.5 * (z**2 + math.log(2 * math.pi))
        assert closed == pytest.approx(float(np.mean(log_q - log_p)), abs=1e-2)

    def test_nonnegative_with_equality_iff_prior(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            b = random_batch(rng, 4, 3)
            assert vib_loss(b).item() > 0.0
        assert vib_loss(batch(np.zeros((2, 5)), np.zeros((2, 5)))).item() == 0.0


class TestPairLoss:
    def test_weight_zeroing_reduces_to_symmetric_info_nce(self):
        rng = np.random.default_rng(7)
        b1 = random_batch(rng, 4, 3, mu_scale=0.3)
        b2 = random_batch(rng, 4, 3, mu_scale=0.3)
        w = LossWeights(alpha=1.0, beta=0.0, gamma=0.0)
        total, parts = pair_loss(b1, b2, w, SimilarityKind.HELLINGER)
        sim = pairwise_similarity_arrays(b1.mu.data, b1.log_var.data, b2.mu.data, b2.log_var.data, "hellinger")
        assert parts["mod_f"] == pytest.approx(nce_reference(sim, w.tau), rel=1e-12)
        assert parts["mod_b"] == pytest.approx(nce_reference(sim.T, w.tau), rel=1e-12)
        assert total.item() == parts["mod_f"] + parts["mod_b"]
        assert parts["sis1"] == parts["sis2"] == 0.0
        assert parts["vib1"] == parts["vib2"] == 0.0

    def test_vib_only_at_prior_is_zero(self):
        b = batch(np.zeros((3, 4)), np.zeros((3, 4)))
        w = LossWeights(alpha=0.0, beta=0.0, gamma=1.0)
        total, _ = pair_loss(b, b, w, SimilarityKind.HELLINGER)
        assert total.item() == 0.0

    def test_default_weights_match_component_recomputation(self):
        rng = np.random.default_rng(8)
        b1 = random_batch(rng, 4, 5, mu_scale=0.4)
        b2 = random_batch(rng, 4, 5, mu_scale=0.4)
        eps = (rng.standard_normal((2, 4, 5)), rng.standard_normal((2, 4, 5)))
        w = LossWeights()  # alpha 1.0, beta 0.5, gamma 1e-4, tau 0.07
        total, bd = pair_loss(b1, b2, w, SimilarityKind.HELLINGER, sis_eps=eps)

        _, nce = info_nce(b1, b2, SimilarityKind.HELLINGER, w.tau)
        mod_f, mod_b = nce["mod_f"], nce["mod_b"]
        sis1 = sis_loss(b1, w.tau, eps=eps[0]).item()
        sis2 = sis_loss(b2, w.tau, eps=eps[1]).item()
        vib1 = vib_loss(b1).item()
        vib2 = vib_loss(b2).item()
        expect = w.alpha * (mod_f + mod_b) + w.beta * (sis1 + sis2) + w.gamma * (vib1 + vib2)
        assert total.item() == pytest.approx(expect, abs=1e-12)
        assert bd["mod_f"] == pytest.approx(mod_f)
        assert bd["sis1"] == pytest.approx(sis1)
        assert bd["vib2"] == pytest.approx(vib2)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(9)
        w = LossWeights(alpha=0.7, beta=0.2, gamma=0.05, tau=0.1)
        for _ in range(10):
            b1 = random_batch(rng, 3, 4)
            b2 = random_batch(rng, 3, 4)
            total, bd = pair_loss(b1, b2, w, SimilarityKind.HELLINGER, rng=rng)
            recombined = (
                w.alpha * (bd["mod_f"] + bd["mod_b"])
                + w.beta * (bd["sis1"] + bd["sis2"])
                + w.gamma * (bd["vib1"] + bd["vib2"])
            )
            assert abs(bd["total"] - recombined) < 1e-10
            assert bd["total"] == total.item()

    def test_unequal_batches_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match="batch sizes differ"):
            pair_loss(
                random_batch(rng, 3, 4), random_batch(rng, 4, 4), LossWeights(), SimilarityKind.CSD
            )


class TestLossGradients:
    @pytest.mark.parametrize("kind", list(SimilarityKind), ids=[k.value for k in SimilarityKind])
    def test_info_nce_grad_check(self, kind):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(50):
            params = [
                Tensor(rng.normal(0, 0.5, (3, 4))),
                Tensor(rng.uniform(-1, 1, (3, 4))),
                Tensor(rng.normal(0, 0.5, (3, 4))),
                Tensor(rng.uniform(-1, 1, (3, 4))),
            ]

            def f(p):
                return info_nce(GaussianBatch(p[0], p[1]), GaussianBatch(p[2], p[3]), kind, 0.07)[0]

            worst = max(worst, grad_check(f, params))
        assert worst < 1e-4

    def test_sis_grad_check_fixed_noise(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(50):
            eps = rng.standard_normal((2, 3, 4))
            params = [Tensor(rng.normal(0, 1, (3, 4))), Tensor(rng.uniform(-1, 1, (3, 4)))]

            def f(p):
                return sis_loss(GaussianBatch(p[0], p[1]), 0.07, eps=eps)

            worst = max(worst, grad_check(f, params))
        assert worst < 1e-4

    def test_vib_grad_check(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(50):
            params = [Tensor(rng.normal(0, 1, (3, 4))), Tensor(rng.uniform(-1, 1, (3, 4)))]
            worst = max(worst, grad_check(lambda p: vib_loss(GaussianBatch(p[0], p[1])), params))
        assert worst < 1e-4

    def test_pair_loss_grad_check(self):
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(10):
            eps = (rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3, 4)))
            params = [
                Tensor(rng.normal(0, 0.5, (3, 4))),
                Tensor(rng.uniform(-1, 1, (3, 4))),
                Tensor(rng.normal(0, 0.5, (3, 4))),
                Tensor(rng.uniform(-1, 1, (3, 4))),
            ]

            def f(p):
                total, _ = pair_loss(
                    GaussianBatch(p[0], p[1]),
                    GaussianBatch(p[2], p[3]),
                    LossWeights(),
                    SimilarityKind.HELLINGER,
                    sis_eps=eps,
                )
                return total

            worst = max(worst, grad_check(f, params))
        assert worst < 1e-4

"""The oracle suite: blocked Monte Carlo estimators, the concurrent runner, and
one mutation per oracle showing that it sees the code it checks."""

import math
import tracemalloc

import numpy as np
import pytest

from probalign import autodiff as ad
from probalign import gaussians, losses, verification
from probalign.cli import main
from probalign.gaussians import GaussianEmbedding
from probalign.verification import MC_BLOCK_ROWS, csd_monte_carlo, kl_monte_carlo, run_oracle_suite

# -- one-shot references: the estimators as written before they were blocked ----


def kl_monte_carlo_one_shot(mu, log_var, n, rng):
    sigma = np.exp(0.5 * log_var)
    z = mu + sigma * rng.standard_normal((n, len(mu)))
    log_q = -0.5 * np.sum((z - mu) ** 2 / np.exp(log_var) + log_var + math.log(2 * math.pi), axis=1)
    log_p = -0.5 * np.sum(z**2 + math.log(2 * math.pi), axis=1)
    return float(np.mean(log_q - log_p))


def csd_monte_carlo_one_shot(a, b, n, rng):
    za = gaussians.sample(a, n, rng)
    zb = gaussians.sample(b, n, rng)
    return float(np.mean(np.sum((za - zb) ** 2, axis=1)))


def csd_monte_carlo_held(a, b, n, rng):
    """The blocked estimator with ``a``'s whole draw held: the same sums in the same order."""
    za = np.concatenate([gaussians.sample(a, stop - start, rng) for start, stop in verification._blocks(n)])
    total = 0.0
    for start, stop in verification._blocks(n):
        total += float(np.sum((za[start:stop] - gaussians.sample(b, stop - start, rng)) ** 2))
    return total / n


SIZES = [1000, MC_BLOCK_ROWS, 2 * MC_BLOCK_ROWS + 123]


class TestBlockedEstimators:
    def test_blocked_draws_continue_one_stream(self):
        whole = np.random.default_rng(9).standard_normal((1000, 3))
        rng = np.random.default_rng(9)
        blocks = [rng.standard_normal((k, 3)) for k in (300, 300, 400)]
        np.testing.assert_array_equal(np.concatenate(blocks), whole)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("d", [1, 3])
    def test_kl_matches_one_shot(self, n, d):
        rng = np.random.default_rng([d, n])
        mu, lv = rng.normal(0, 1, d), rng.uniform(-1, 1, d)
        blocked = kl_monte_carlo(mu, lv, n, np.random.default_rng(11))
        reference = kl_monte_carlo_one_shot(mu, lv, n, np.random.default_rng(11))
        assert blocked == pytest.approx(reference, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("d", [1, 2])
    def test_csd_matches_one_shot(self, n, d):
        rng = np.random.default_rng([d, n, 1])
        a = GaussianEmbedding(rng.normal(0, 0.7, d), rng.uniform(-1.5, 0.0, d))
        b = GaussianEmbedding(rng.normal(0, 0.7, d), rng.uniform(-1.5, 0.0, d))
        blocked = csd_monte_carlo(a, b, n, np.random.default_rng(12))
        reference = csd_monte_carlo_one_shot(a, b, n, np.random.default_rng(12))
        assert blocked == pytest.approx(reference, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", SIZES)
    def test_csd_equals_the_held_draw_bitwise(self, n):
        a = GaussianEmbedding([0.3, -0.2], [-0.5, -1.0])
        b = GaussianEmbedding([0.1, 0.4], [-1.2, -0.3])
        ours, theirs = np.random.default_rng(15), np.random.default_rng(15)
        assert csd_monte_carlo(a, b, n, ours) == csd_monte_carlo_held(a, b, n, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_csd_peak_memory_below_half_a_draw(self):
        a = GaussianEmbedding([0.3, -0.2], [-0.5, -1.0])
        b = GaussianEmbedding([0.1, 0.4], [-1.2, -0.3])
        n = 16 * MC_BLOCK_ROWS
        whole_draw = n * a.dim * 8  # bytes of one (n, d) float64 draw
        tracemalloc.start()
        try:
            csd_monte_carlo(a, b, n, np.random.default_rng(14))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < whole_draw / 2, f"peak {peak} bytes, one draw {whole_draw}"

    def test_estimators_leave_the_stream_where_a_whole_draw_does(self):
        a = GaussianEmbedding([0.3, -0.2], [-0.5, -1.0])
        b = GaussianEmbedding([0.1, 0.4], [-1.2, -0.3])
        n = MC_BLOCK_ROWS + 7
        blocked, reference = np.random.default_rng(13), np.random.default_rng(13)
        kl_monte_carlo(a.mu, a.log_var, n, blocked)
        csd_monte_carlo(a, b, n, blocked)
        kl_monte_carlo_one_shot(a.mu, a.log_var, n, reference)
        csd_monte_carlo_one_shot(a, b, n, reference)
        assert blocked.standard_normal() == reference.standard_normal()


class TestSuite:
    def test_concurrent_errors_equal_serial_calls(self):
        serial = [
            verification.check_hellinger_quadrature(n_pairs=25),
            verification.check_vib_monte_carlo(n_cases=3, n_samples=200_000),
            verification.check_csd_monte_carlo(n_cases=2, n_samples=200_000),
            verification.check_gaussian_identity(n_pairs=120),
            verification.check_similarity_gradients(n_points=3),
            verification.check_pair_loss_gradient(),
        ]
        concurrent = run_oracle_suite(fast=True)
        assert [r.name for r in concurrent] == [r.name for r in serial]
        assert [r.error for r in concurrent] == [r.error for r in serial]

    def test_raising_oracle_propagates(self, monkeypatch):
        def broken(**kwargs):
            raise RuntimeError("oracle broke")

        monkeypatch.setattr(verification, "check_gaussian_identity", broken)
        with pytest.raises(RuntimeError, match="oracle broke"):
            run_oracle_suite(fast=True)

    def test_fast_labels_name_the_fast_sizes(self):
        names = [r.name for r in run_oracle_suite(fast=True)]
        assert "(25 random 1-D pairs)" in names[0]
        assert "(3 cases, 2e5 samples)" in names[1]
        assert "(120 pairs, D in {1,8,64})" in names[3]

    def test_count_label(self):
        assert [verification._count(n) for n in (1_000_000, 200_000, 25, 1000, 1500)] == [
            "1e6",
            "2e5",
            "25",
            "1e3",
            "1500",
        ]


# -- mutations: each corrupts one checked function on its defining module ------

ORACLE_TOKENS = [
    "hellinger_sq vs quadrature",
    "vib_loss vs Monte Carlo KL",
    "csd vs Monte Carlo",
    "identity",
    "similarity gradients",
    "pair_loss gradient",
]


def _doubled_backward(t):
    """``t``'s value behind a node that doubles the gradient flowing back."""
    return ad.custom(t.data, (t,), lambda g: (2.0 * g,))


def _corrupt_vib_loss(monkeypatch):
    real = losses.vib_loss
    monkeypatch.setattr(losses, "vib_loss", lambda batch: 2.0 * real(batch))


def _corrupt_csd(monkeypatch):
    real = gaussians.csd
    monkeypatch.setattr(gaussians, "csd", lambda a, b: real(a, b) + 0.1)


def _corrupt_bhattacharyya(monkeypatch):
    real = gaussians.bhattacharyya_distance
    monkeypatch.setattr(gaussians, "bhattacharyya_distance", lambda a, b: 1.01 * real(a, b))


def _corrupt_similarity_backward(monkeypatch):
    real = gaussians.pairwise_similarity_graph
    monkeypatch.setattr(
        gaussians, "pairwise_similarity_graph", lambda a, b, kind: _doubled_backward(real(a, b, kind))
    )


def _corrupt_pair_loss_backward(monkeypatch):
    real = losses.pair_loss

    def corrupted(*args, **kwargs):
        total, breakdown = real(*args, **kwargs)
        return _doubled_backward(total), breakdown

    monkeypatch.setattr(losses, "pair_loss", corrupted)


def _corrupt_sis_backward(monkeypatch):
    real = losses._sis_backward
    monkeypatch.setattr(losses, "_sis_backward", lambda *args: tuple(2.0 * g for g in real(*args)))


MUTATIONS = [
    ("vib_loss", _corrupt_vib_loss, 1),
    ("csd", _corrupt_csd, 2),
    ("bhattacharyya_distance", _corrupt_bhattacharyya, 3),
    ("pairwise_similarity_graph_backward", _corrupt_similarity_backward, 4),
    ("pair_loss_backward", _corrupt_pair_loss_backward, 5),
    ("sis_backward", _corrupt_sis_backward, 5),
]


@pytest.mark.parametrize("corrupt,oracle", [m[1:] for m in MUTATIONS], ids=[m[0] for m in MUTATIONS])
def test_mutation_fails_exactly_its_oracle(corrupt, oracle, monkeypatch, capsys):
    corrupt(monkeypatch)
    assert main(["verify", "--fast"]) == 2
    lines = capsys.readouterr().out.splitlines()[: len(ORACLE_TOKENS)]
    failed = [i for i, line in enumerate(lines) if line.startswith("[FAIL]")]
    assert failed == [oracle]
    assert ORACLE_TOKENS[oracle] in lines[oracle]

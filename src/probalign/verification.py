"""Self-contained oracle suite behind the ``verify`` command.

Each oracle recomputes a quantity by an independent route (composite-Simpson
quadrature of the density overlap, Monte Carlo expectations, central finite
differences) and compares it against the closed-form/analytic implementation
at a fixed tolerance. The similarity functions are resolved through the
module object at call time, so a corrupted implementation is caught rather
than a stale reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussians
from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .gaussians import GaussianBatch, GaussianEmbedding, SimilarityKind, pairwise_similarity_graph
from .losses import LossWeights, pair_loss, vib_loss


@dataclass
class OracleResult:
    name: str
    error: float
    tolerance: float

    def __post_init__(self):
        # Oracles compute errors in numpy; reports need plain JSON numbers.
        self.error = float(self.error)

    @property
    def passed(self) -> bool:
        return self.error < self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: error {self.error:.3e} (tolerance {self.tolerance:.0e})"


def _simpson(f, lo: float, hi: float, n: int = 4001) -> float:
    # n must be odd for composite Simpson.
    xs = np.linspace(lo, hi, n)
    ys = f(xs)
    h = (hi - lo) / (n - 1)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()))


def hellinger_sq_quadrature(mu_a, var_a, mu_b, var_b) -> float:
    """(1/2) integral of (sqrt(p) - sqrt(q))^2 for two 1-D normal densities."""
    sd_a, sd_b = math.sqrt(var_a), math.sqrt(var_b)
    lo = min(mu_a - 12 * sd_a, mu_b - 12 * sd_b)
    hi = max(mu_a + 12 * sd_a, mu_b + 12 * sd_b)

    def integrand(x):
        p = np.exp(-0.5 * (x - mu_a) ** 2 / var_a) / math.sqrt(2 * math.pi * var_a)
        q = np.exp(-0.5 * (x - mu_b) ** 2 / var_b) / math.sqrt(2 * math.pi * var_b)
        return 0.5 * (np.sqrt(p) - np.sqrt(q)) ** 2

    return _simpson(integrand, lo, hi, n=8001)


def check_hellinger_quadrature(n_pairs: int = 100, seed: int = 0) -> OracleResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        mu = rng.normal(0, 2, size=2)
        lv = rng.uniform(-2, 2, size=2)
        a = GaussianEmbedding([mu[0]], [lv[0]])
        b = GaussianEmbedding([mu[1]], [lv[1]])
        closed = gaussians.hellinger_sq(a, b)
        numeric = hellinger_sq_quadrature(mu[0], math.exp(lv[0]), mu[1], math.exp(lv[1]))
        worst = max(worst, abs(closed - numeric))
    return OracleResult("hellinger_sq vs quadrature (100 random 1-D pairs)", worst, 1e-6)


def kl_monte_carlo(mu: np.ndarray, log_var: np.ndarray, n: int, rng) -> float:
    """MC estimate of KL(N(mu, diag var) || N(0, I)) from n samples."""
    sigma = np.exp(0.5 * log_var)
    z = mu + sigma * rng.standard_normal((n, len(mu)))
    log_q = -0.5 * np.sum((z - mu) ** 2 / np.exp(log_var) + log_var + math.log(2 * math.pi), axis=1)
    log_p = -0.5 * np.sum(z**2 + math.log(2 * math.pi), axis=1)
    return float(np.mean(log_q - log_p))


def check_vib_monte_carlo(n_cases: int = 10, n_samples: int = 1_000_000, seed: int = 1) -> OracleResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        d = int(rng.integers(1, 4))
        mu = rng.normal(0, 1, size=d)
        lv = rng.uniform(-1, 1, size=d)
        closed = vib_loss(GaussianBatch(Tensor(mu[None, :]), Tensor(lv[None, :]))).item()
        estimate = kl_monte_carlo(mu, lv, n_samples, rng)
        worst = max(worst, abs(closed - estimate))
    return OracleResult("vib_loss vs Monte Carlo KL (10 cases, 1e6 samples)", worst, 1e-2)


def check_csd_monte_carlo(n_cases: int = 6, n_samples: int = 2_000_000, seed: int = 2) -> OracleResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        d = int(rng.integers(1, 3))
        a = GaussianEmbedding(rng.normal(0, 0.7, d), rng.uniform(-1.5, 0.0, d))
        b = GaussianEmbedding(rng.normal(0, 0.7, d), rng.uniform(-1.5, 0.0, d))
        za = gaussians.sample(a, n_samples, rng)
        zb = gaussians.sample(b, n_samples, rng)
        estimate = float(np.mean(np.sum((za - zb) ** 2, axis=1)))
        worst = max(worst, abs(gaussians.csd(a, b) - estimate))
    return OracleResult("csd vs Monte Carlo expected squared distance", worst, 1e-2)


def check_gaussian_identity(n_pairs: int = 1000, seed: int = 3) -> OracleResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    per_dim = n_pairs // 3 + 1
    for d in (1, 8, 64):
        for _ in range(per_dim):
            a = GaussianEmbedding(rng.normal(0, 1, d), rng.uniform(-2, 2, d))
            b = GaussianEmbedding(rng.normal(0, 1, d), rng.uniform(-2, 2, d))
            h2 = gaussians.hellinger_sq(a, b)
            db = gaussians.bhattacharyya_distance(a, b)
            worst = max(worst, abs(h2 - (1.0 - math.exp(-db))))
    return OracleResult("H^2 = 1 - exp(-D_B) identity (1000 pairs, D in {1,8,64})", worst, 1e-10)


def _similarity_scalar(kind: SimilarityKind):
    def f(params):
        a = GaussianBatch(params[0], params[1])
        b = GaussianBatch(params[2], params[3])
        return ad.mean_all(pairwise_similarity_graph(a, b, kind))

    return f


def check_similarity_gradients(n_points: int = 20, d: int = 8, seed: int = 4) -> OracleResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for kind in SimilarityKind:
        f = _similarity_scalar(kind)
        for _ in range(n_points):
            params = [
                Tensor(rng.normal(0, 1, (2, d))),
                Tensor(rng.uniform(-1, 1, (2, d))),
                Tensor(rng.normal(0, 1, (2, d))),
                Tensor(rng.uniform(-1, 1, (2, d))),
            ]
            worst = max(worst, grad_check(f, params, h=1e-5))
    return OracleResult("similarity gradients vs central differences", worst, 1e-4)


def check_pair_loss_gradient(seed: int = 5, n: int = 3, d: int = 4) -> OracleResult:
    rng = np.random.default_rng(seed)
    eps = (rng.standard_normal((2, n, d)), rng.standard_normal((2, n, d)))
    w = LossWeights()

    def f(params):
        b1 = GaussianBatch(params[0], params[1])
        b2 = GaussianBatch(params[2], params[3])
        total, _ = pair_loss(b1, b2, w, SimilarityKind.HELLINGER, sis_eps=eps)
        return total

    params = [
        Tensor(rng.normal(0, 1, (n, d))),
        Tensor(rng.uniform(-1, 1, (n, d))),
        Tensor(rng.normal(0, 1, (n, d))),
        Tensor(rng.uniform(-1, 1, (n, d))),
    ]
    err = grad_check(f, params, h=1e-5)
    return OracleResult("pair_loss gradient vs central differences", err, 1e-4)


def run_oracle_suite(fast: bool = False) -> list[OracleResult]:
    """All oracles; ``fast`` shrinks Monte Carlo sample counts for smoke runs."""
    n_mc = 200_000 if fast else 1_000_000
    return [
        check_hellinger_quadrature(n_pairs=25 if fast else 100),
        check_vib_monte_carlo(n_cases=3 if fast else 10, n_samples=n_mc),
        check_csd_monte_carlo(n_cases=2 if fast else 6, n_samples=n_mc),
        check_gaussian_identity(n_pairs=120 if fast else 1000),
        check_similarity_gradients(n_points=3 if fast else 20),
        check_pair_loss_gradient(),
    ]

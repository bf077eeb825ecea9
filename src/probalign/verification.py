"""Self-contained oracle suite behind the ``verify`` command.

Each oracle recomputes a quantity by an independent route (composite-Simpson
quadrature of the density overlap, Monte Carlo expectations, central finite
differences) and compares it against the closed-form/analytic implementation
at a fixed tolerance. Every checked function is resolved through its
defining module (``gaussians.``, ``losses.``) at call time, so a corrupted
implementation is caught rather than a stale reference.

The oracles share no state (each seeds its own generator, and the autodiff
engine has no global tape), so :func:`run_oracle_suite` runs them on a thread
pool. The Monte Carlo oracles draw and reduce their samples in blocks of
``MC_BLOCK_ROWS`` rows; one generator's consecutive draws continue its stream,
so the blocked estimates use exactly the samples of one whole draw.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import gaussians, losses
from .autodiff import Tensor, grad_check
from .gaussians import GaussianBatch, GaussianEmbedding, SimilarityKind
from .losses import LossWeights

MC_BLOCK_ROWS = 1 << 16  # samples per Monte Carlo block: (64K, d) temporaries, not (n, d)


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


def _count(n: int) -> str:
    """``n`` for an oracle label: 1000000 -> "1e6", 200000 -> "2e5", 25 -> "25"."""
    mantissa, exponent = n, 0
    while mantissa and mantissa % 10 == 0:
        mantissa, exponent = mantissa // 10, exponent + 1
    return f"{mantissa}e{exponent}" if exponent >= 3 else str(n)


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
    return OracleResult(f"hellinger_sq vs quadrature ({n_pairs} random 1-D pairs)", worst, 1e-6)


def _blocks(n: int):
    """``(start, stop)`` of consecutive blocks of MC_BLOCK_ROWS rows covering ``range(n)``."""
    for start in range(0, n, MC_BLOCK_ROWS):
        yield start, min(start + MC_BLOCK_ROWS, n)


def kl_monte_carlo(mu: np.ndarray, log_var: np.ndarray, n: int, rng) -> float:
    """MC estimate of KL(N(mu, diag var) || N(0, I)) from n samples.

    The mean of ``log q(z) - log p(z)``. With ``z = mu + sigma * eps`` that is
    ``0.5 * (|z|^2 - |eps|^2 - sum(log_var))``: the ``|z|^2 - |eps|^2`` terms
    are summed over whole blocks of samples and divided by n once.
    """
    sigma = np.exp(0.5 * log_var)
    total = 0.0
    for start, stop in _blocks(n):
        eps = rng.standard_normal((stop - start, len(mu)))
        z = mu + sigma * eps
        total += float(np.sum(z * z - eps * eps))
    return 0.5 * (total / n - float(np.sum(log_var)))


def check_vib_monte_carlo(n_cases: int = 10, n_samples: int = 1_000_000, seed: int = 1) -> OracleResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        d = int(rng.integers(1, 4))
        mu = rng.normal(0, 1, size=d)
        lv = rng.uniform(-1, 1, size=d)
        closed = losses.vib_loss(GaussianBatch(Tensor(mu[None, :]), Tensor(lv[None, :]))).item()
        estimate = kl_monte_carlo(mu, lv, n_samples, rng)
        worst = max(worst, abs(closed - estimate))
    label = f"vib_loss vs Monte Carlo KL ({n_cases} cases, {_count(n_samples)} samples)"
    return OracleResult(label, worst, 1e-2)


def csd_monte_carlo(a: GaussianEmbedding, b: GaussianEmbedding, n: int, rng) -> float:
    """MC estimate of E||za - zb||^2 from n samples of each embedding.

    All n draws of ``a`` come before those of ``b`` in ``rng``'s stream, as
    with one ``sample(a, n)`` followed by one ``sample(b, n)``. ``rng`` skips
    ``a``'s draws, and a copy taken before them replays them block by block
    beside ``b``'s blocks, so neither draw is held whole.
    """
    replay = copy.deepcopy(rng)
    for start, stop in _blocks(n):
        rng.standard_normal((stop - start, a.dim))
    total = 0.0
    for start, stop in _blocks(n):
        za = gaussians.sample(a, stop - start, replay)
        total += float(np.sum((za - gaussians.sample(b, stop - start, rng)) ** 2))
    return total / n


def check_csd_monte_carlo(n_cases: int = 6, n_samples: int = 2_000_000, seed: int = 2) -> OracleResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        d = int(rng.integers(1, 3))
        a = GaussianEmbedding(rng.normal(0, 0.7, d), rng.uniform(-1.5, 0.0, d))
        b = GaussianEmbedding(rng.normal(0, 0.7, d), rng.uniform(-1.5, 0.0, d))
        estimate = csd_monte_carlo(a, b, n_samples, rng)
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
    label = f"H^2 = 1 - exp(-D_B) identity ({n_pairs} pairs, D in {{1,8,64}})"
    return OracleResult(label, worst, 1e-10)


# The two graph functions the gradient oracles check, called through names of
# this module (which wrappers installed here, such as the benchmark's tracer,
# can hook) and resolved on their defining module at each call.
def pairwise_similarity_graph(a: GaussianBatch, b: GaussianBatch, kind: SimilarityKind) -> Tensor:
    return gaussians.pairwise_similarity_graph(a, b, kind)


def pair_loss(*args, **kwargs):
    return losses.pair_loss(*args, **kwargs)


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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def run_oracle_suite(fast: bool = False) -> list[OracleResult]:
    """All oracles, run concurrently, in print order.

    ``fast`` shrinks sample counts for smoke runs. An oracle that raises
    propagates out of this call.
    """
    # Imported here: every probalign command imports this module, only verify runs the pool.
    from concurrent.futures import ThreadPoolExecutor

    n_mc = 200_000 if fast else 1_000_000
    suite = [
        (check_hellinger_quadrature, {"n_pairs": 25 if fast else 100}),
        (check_vib_monte_carlo, {"n_cases": 3 if fast else 10, "n_samples": n_mc}),
        (check_csd_monte_carlo, {"n_cases": 2 if fast else 6, "n_samples": n_mc}),
        (check_gaussian_identity, {"n_pairs": 120 if fast else 1000}),
        (check_similarity_gradients, {"n_points": 3 if fast else 20}),
        (check_pair_loss_gradient, {}),
    ]
    longest_first = (1, 2, 4, 3, 5, 0)  # by measured run time: the short ones fill in behind
    with ThreadPoolExecutor(max_workers=min(len(suite), _usable_cpus())) as pool:
        futures = {i: pool.submit(suite[i][0], **suite[i][1]) for i in longest_first}
        return [futures[i].result() for i in range(len(suite))]

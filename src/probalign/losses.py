"""Training objectives for cross-modal alignment of Gaussian embeddings.

Three losses combine into the per-pair objective:

* a temperature-scaled InfoNCE over the pairwise similarity matrix, applied
  symmetrically (query->key and key->query);
* a within-modality consistency loss that draws two reparameterized samples
  per embedding and runs NT-Xent over the 2N samples with cosine similarity
  (each anchor's positive is its sibling sample, the anchor itself is excluded
  from the denominator);
* a KL regularizer to the standard-normal prior that keeps variances from
  collapsing.

All row-wise softmax normalizations go through max-subtracted logsumexp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import bounded, check_fields
from .gaussians import GaussianBatch, SimilarityKind, pairwise_similarity_graph

_MASK = -1e9  # additive mask removing self-similarity from NT-Xent rows


@dataclass
class LossWeights:
    """Component weights and the shared softmax temperature."""

    alpha: float = bounded(1.0, least=0)
    beta: float = bounded(0.5, least=0)
    gamma: float = bounded(1e-4, least=0)
    tau: float = bounded(0.07, above=0)

    def __post_init__(self):
        check_fields(self)


def _nce_from_logits(logits: Tensor) -> Tensor:
    """Mean over rows of (logsumexp(row) - diagonal entry)."""
    return ad.mean_all(ad.logsumexp(logits) - ad.diagonal(logits))


def sis_loss(
    batch: GaussianBatch,
    tau: float,
    rng: np.random.Generator | None = None,
    eps: np.ndarray | None = None,
) -> Tensor:
    """Sampled-instance NT-Xent: two reparameterized draws per embedding.

    ``eps`` fixes the (2, N, D) noise (used by gradient checks and
    evaluation-mode passes); otherwise fresh noise is drawn from ``rng``.

    One autodiff node over ``(batch.mu, batch.log_var)``. The forward runs
    the operations of the composed graph in ``tests/composed_graph.py`` in
    the same order, so the value is the same bit for bit; the backward is
    analytic (:func:`_sis_backward`).
    """
    n, d = batch.n, batch.dim
    if n < 2:
        raise ValueError("sis_loss: need a batch of at least 2 (no negatives otherwise)")
    if tau <= 0:
        raise ValueError("sis_loss: tau must be positive")
    if eps is None:
        if rng is None:
            raise ValueError("sis_loss: pass rng or explicit eps")
        eps = rng.standard_normal((2, n, d))
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != (2, n, d):
        raise ValueError(f"sis_loss: eps must have shape (2, {n}, {d}), got {eps.shape}")

    mu = batch.mu.data
    sigma = np.exp(0.5 * batch.log_var.data)
    z = np.concatenate([mu + sigma * eps[0], mu + sigma * eps[1]])
    norm = np.sqrt((z * z).sum(axis=-1, keepdims=True))
    zn = z / norm
    # A plain product with a transposed copy, as the graph's matmul computes it.
    logits = ad.matmul_values(zn, zn.T.copy()) * (1.0 / tau)

    idx = np.arange(2 * n)
    sibling = (idx + n) % (2 * n)
    logits[idx, idx] += _MASK
    peak = logits.max(axis=-1, keepdims=True)
    shifted = np.exp(logits - peak)
    total = shifted.sum(axis=-1, keepdims=True)
    lse = (peak + np.log(total)).reshape(2 * n)
    value = (lse - logits[idx, sibling]).mean()
    softmax = shifted / total

    def vjp(g):
        return _sis_backward(g, tau, eps, sigma, zn, norm, softmax, sibling)

    return ad.custom(value, (batch.mu, batch.log_var), vjp)


def _sis_backward(g, tau, eps, sigma, zn, norm, softmax, sibling):
    """Gradients of :func:`sis_loss` with respect to (mu, log_var).

    g_logits = (softmax - onehot(sibling)) g / 2N,  G = g_logits / tau,
    g_zn = (G + G^T) zn,  g_z = (g_zn - zn <g_zn, zn>) / |z|,
    g_mu = g_z[:N] + g_z[N:],  g_lv = sigma/2 (g_z[:N] eps_0 + g_z[N:] eps_1).
    """
    two_n = zn.shape[0]
    n = two_n // 2
    row = g / two_n
    g_logits = softmax * row
    g_logits[np.arange(two_n), sibling] -= row
    g_logits *= 1.0 / tau
    g_zn = ad.matmul_values(g_logits + g_logits.T, zn)
    g_z = (g_zn - zn * (g_zn * zn).sum(axis=-1, keepdims=True)) / norm
    g_mu = g_z[:n] + g_z[n:]
    g_lv = 0.5 * sigma * (g_z[:n] * eps[0] + g_z[n:] * eps[1])
    return g_mu, g_lv


def vib_loss(batch: GaussianBatch) -> Tensor:
    """Mean KL(N(mu, diag sigma^2) || N(0, I)) over the batch; always >= 0."""
    if batch.n < 1:
        raise ValueError("vib_loss: empty batch")
    kl_rows = 0.5 * ad.sum_last(ad.exp(batch.log_var) + batch.mu * batch.mu - 1.0 - batch.log_var)
    return ad.mean_all(kl_rows)


def pair_loss(
    batch_m1: GaussianBatch,
    batch_m2: GaussianBatch,
    w: LossWeights,
    kind: SimilarityKind,
    rng: np.random.Generator | None = None,
    sis_eps: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[Tensor, dict[str, float]]:
    """Weighted pair objective; returns the scalar graph node and its
    components as floats, keyed by their ``metrics.csv`` columns: ``total``,
    ``mod_f``, ``mod_b``, ``sis1``, ``sis2``, ``vib1``, ``vib2``.

    total = alpha*(nce(m1->m2) + nce(m2->m1)) + beta*(sis(m1) + sis(m2))
            + gamma*(vib(m1) + vib(m2))

    Components with a zero weight are skipped (their entries are 0, and no
    sampling noise is consumed for a zero beta).
    """
    if batch_m1.n != batch_m2.n:
        raise ValueError(f"pair_loss: batch sizes differ ({batch_m1.n} vs {batch_m2.n})")
    if batch_m1.n < 2:
        raise ValueError("pair_loss: need batches of at least 2")

    zero = ad.constant(0.0)
    if w.alpha > 0:
        sim = pairwise_similarity_graph(batch_m1, batch_m2, kind)
        mod_f = _nce_from_logits(sim * (1.0 / w.tau))
        mod_b = _nce_from_logits(ad.transpose(sim) * (1.0 / w.tau))
    else:
        mod_f = mod_b = zero
    if w.beta > 0:
        eps1, eps2 = sis_eps if sis_eps is not None else (None, None)
        sis1 = sis_loss(batch_m1, w.tau, rng=rng, eps=eps1)
        sis2 = sis_loss(batch_m2, w.tau, rng=rng, eps=eps2)
    else:
        sis1 = sis2 = zero
    if w.gamma > 0:
        vib1 = vib_loss(batch_m1)
        vib2 = vib_loss(batch_m2)
    else:
        vib1 = vib2 = zero

    total = w.alpha * (mod_f + mod_b) + w.beta * (sis1 + sis2) + w.gamma * (vib1 + vib2)
    parts = {"total": total, "mod_f": mod_f, "mod_b": mod_b, "sis1": sis1, "sis2": sis2, "vib1": vib1, "vib2": vib2}
    return total, {name: node.item() for name, node in parts.items()}

"""Reference oracle: the pairwise similarities and the SIS loss as composed
autodiff graphs.

Each similarity is built from elementwise autodiff nodes over (A, B, D)
pairwise tensors, with no hand-written pairwise backward: the gradients come
from the engine's chain rule alone. The fused ops of
``probalign.gaussians.pairwise_similarity_graph`` are checked against it, and
the one-node ``probalign.losses.sis_loss`` against ``composed_sis_loss``.
"""

import numpy as np

import probalign.autodiff as ad
from probalign.gaussians import _H2_FLOOR, VAR_FLOOR, GaussianBatch, SimilarityKind
from probalign.losses import _MASK

LN2 = float(np.log(2.0))


def outer_add(a, b):
    """out[i, j, :] = a[i, :] + b[j, :] for (N, D) and (M, D) operands."""
    value = a.data[:, None, :] + b.data[None, :, :]
    return ad.custom(value, (a, b), lambda g: (g.sum(axis=1), g.sum(axis=0)))


def outer_sub(a, b):
    """out[i, j, :] = a[i, :] - b[j, :] for (N, D) and (M, D) operands."""
    value = a.data[:, None, :] - b.data[None, :, :]
    return ad.custom(value, (a, b), lambda g: (g.sum(axis=1), -g.sum(axis=0)))


def composed_similarity_graph(a: GaussianBatch, b: GaussianBatch, kind: SimilarityKind):
    """Differentiable |A| x |B| similarity matrix (distances negated)."""
    kind = SimilarityKind(kind)
    dmu = outer_sub(a.mu, b.mu)
    va = ad.clamp_min(ad.exp(a.log_var), VAR_FLOOR)
    vb = ad.clamp_min(ad.exp(b.log_var), VAR_FLOOR)
    if kind is SimilarityKind.CSD:
        return ad.neg(ad.sum_last(dmu * dmu + outer_add(va, vb)))

    s2 = outer_add(va, vb)
    quad = (dmu * dmu) / (4.0 * s2)
    log_sigma_sum = outer_add(0.5 * ad.log(va), 0.5 * ad.log(vb))
    if kind is SimilarityKind.BHATTACHARYYA:
        log_ratio = ad.log(0.5 * s2) - log_sigma_sum
        return ad.neg(ad.sum_last(quad + 0.5 * log_ratio))

    log_term = 0.5 * (LN2 + (log_sigma_sum - ad.log(s2)))
    h2 = 1.0 - ad.exp(ad.sum_last(log_term - quad))
    return 1.0 - ad.sqrt(ad.clamp_min(h2, _H2_FLOOR))


def composed_sis_loss(batch: GaussianBatch, tau: float, eps):
    """Sampled-instance NT-Xent built from elementwise nodes, with the
    (2, N, D) noise, the self mask and the sibling mask as constants."""
    n = batch.n
    eps = np.asarray(eps, dtype=np.float64)
    sigma = ad.exp(0.5 * batch.log_var)
    z = ad.concat([batch.mu + sigma * ad.constant(eps[0]), batch.mu + sigma * ad.constant(eps[1])])
    zn = ad.l2_normalize(z)
    logits = ad.matmul(zn, ad.transpose(zn)) * (1.0 / tau)

    two_n = 2 * n
    idx = np.arange(two_n)
    sibling = (idx + n) % two_n
    self_mask = np.zeros((two_n, two_n))
    self_mask[idx, idx] = _MASK
    positive_mask = np.zeros((two_n, two_n))
    positive_mask[idx, sibling] = 1.0

    lse = ad.logsumexp(logits + ad.constant(self_mask))
    pos = ad.sum_last(logits * ad.constant(positive_mask))
    return ad.mean_all(lse - pos)

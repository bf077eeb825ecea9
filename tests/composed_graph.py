"""Reference oracle: the pairwise similarities as composed autodiff graphs.

Each similarity is built from elementwise autodiff nodes over (A, B, D)
pairwise tensors, with no hand-written pairwise backward: the gradients come
from the engine's chain rule alone. The fused ops of
``probalign.gaussians.pairwise_similarity_graph`` are checked against it.
"""

import numpy as np

import probalign.autodiff as ad
from probalign.gaussians import _H2_FLOOR, VAR_FLOOR, GaussianBatch, SimilarityKind

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

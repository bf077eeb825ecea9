"""Zero-shot scoring in its list form: the reference for the array form of
``probalign.evaluation``.

Each embedding is one ``GaussianEmbedding`` and each class a list of them;
prototypes and prompt uncertainties are computed one embedding at a time and
stacked only for the similarity kernel. The array form must give the same
(items, classes) score matrix bit for bit.
"""

import numpy as np

from probalign.encoders import Modality
from probalign.gaussians import GaussianEmbedding, pairwise_similarity_arrays


def embeddings_of(rows) -> list[GaussianEmbedding]:
    """One ``GaussianEmbedding`` per row of ``(mu, log_var)`` arrays."""
    return [GaussianEmbedding(m.copy(), v.copy()) for m, v in zip(*rows)]


def stack(embeddings) -> tuple[np.ndarray, np.ndarray]:
    return np.stack([e.mu for e in embeddings]), np.stack([e.log_var for e in embeddings])


def prompt_uncertainty(e: GaussianEmbedding) -> float:
    """Mean predicted standard deviation across embedding dimensions."""
    return float(np.mean(np.exp(0.5 * e.log_var)))


def _mean_exact(rows: np.ndarray) -> np.ndarray:
    if np.all(rows == rows[0]):
        return rows[0].copy()
    return rows[0] + (rows - rows[0]).mean(axis=0)


def class_prototype(embeddings: list[GaussianEmbedding]) -> GaussianEmbedding:
    """Average the means and the variances of a class's prompt embeddings."""
    mus, lvs = stack(embeddings)
    mu = _mean_exact(mus)
    if np.all(lvs == lvs[0]):
        log_var = lvs[0].copy()
    else:
        log_var = np.log(_mean_exact(np.exp(lvs)))
    return GaussianEmbedding(mu, log_var)


def encode_prompts(model, prompts) -> dict:
    """``{class: [GaussianEmbedding, ...]}`` of ``{class: (n, dim) prompt rows}``."""
    return {cls: embeddings_of(model.encode(Modality.TEXT, prompts[cls])) for cls in sorted(prompts)}


def zero_shot_from_encoded(items, encoded_prompts: dict, kind) -> np.ndarray:
    """Score ``(mu, log_var)`` items against the prototype of each class's list."""
    prototypes = [class_prototype(encoded_prompts[cls]) for cls in sorted(encoded_prompts)]
    return pairwise_similarity_arrays(*stack(embeddings_of(items)), *stack(prototypes), kind)


def zero_shot(model, items, prompts, kind) -> np.ndarray:
    return zero_shot_from_encoded(items, encode_prompts(model, prompts), kind)


def filtered_zero_shot(model, items, prompts, k, kind) -> np.ndarray:
    filtered = {}
    for cls, embeddings in encode_prompts(model, prompts).items():
        uncertainties = np.array([prompt_uncertainty(e) for e in embeddings])
        keep = np.sort(np.argsort(uncertainties, kind="mergesort")[:k])
        filtered[cls] = [embeddings[i] for i in keep]
    return zero_shot_from_encoded(items, filtered, kind)


def assert_same(got: np.ndarray, want: np.ndarray) -> None:
    """Score matrices equal in shape and bit for bit."""
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()

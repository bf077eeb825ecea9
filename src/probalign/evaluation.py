"""Downstream protocols over frozen encoders.

Covers cross-modal retrieval (Recall@K / RSUM), zero-shot scoring against
class prototypes built from synthetic text prompts (optionally filtered to
the k least-uncertain prompts per class), few-shot linear probing on the mean
embeddings with an optional sampling-augmented support set, multimodal
concatenated classification, rank statistics (Mann-Whitney AUROC with the
half-tie convention, Spearman correlation), a permutation-null significance
helper, and an input-noise vs mean predicted-uncertainty probe over a batch of
items.

Everything here is read-only over the model and takes explicit rngs.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from .encoders import AlignmentModel, Modality
from .gaussians import SimilarityKind, pairwise_similarity_arrays

PROBE_ITERS = 500
PROBE_LR = 0.1
PROBE_L2 = 1e-4


# -- rank statistics -----------------------------------------------------------


def tied_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned their average rank (each NaN ranks alone)."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    n = len(values)
    # Run boundaries in sorted order, with sentinels at 0 and n.
    boundary = np.ones(n + 1, dtype=bool)
    boundary[1:-1] = ordered[1:] != ordered[:-1]
    edges = np.flatnonzero(boundary)
    starts, stops = edges[:-1], edges[1:]
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (starts + stops - 1) + 1.0, stops - starts)
    return ranks


def auroc(scores, labels) -> float:
    """Mann-Whitney AUROC: (#concordant + 0.5 * #ties) / (n_pos * n_neg)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("auroc: scores and labels must be equal-length vectors")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = int(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc: both classes must be present")
    ranks = tied_ranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def macro_ovr_auroc(scores: np.ndarray, labels, classes) -> float:
    """Macro average of one-vs-rest AUROCs over the score matrix columns."""
    labels = np.asarray(labels)
    per_class = []
    for col, cls in enumerate(classes):
        binary = (labels == cls).astype(int)
        if binary.min() == binary.max():
            continue
        per_class.append(auroc(scores[:, col], binary))
    if not per_class:
        raise ValueError("macro_ovr_auroc: no class has both positives and negatives")
    return float(np.mean(per_class))


def _class_auroc(scores: np.ndarray, labels: np.ndarray, classes) -> float:
    """AUROC of a score matrix whose columns follow ``classes``: the binary
    AUROC of the second column for two classes, else the macro one-vs-rest."""
    if len(classes) == 2:
        return auroc(scores[:, 1], (labels == classes[1]).astype(int))
    return macro_ovr_auroc(scores, labels, classes)


def spearman(x, y) -> float:
    """Spearman rank correlation (average ranks for ties); 0 if degenerate."""
    rx = tied_ranks(np.asarray(x, dtype=np.float64))
    ry = tied_ranks(np.asarray(y, dtype=np.float64))
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)


def permutation_pvalue(
    scores, labels, rng: np.random.Generator, n_permutations: int = 500
) -> dict:
    """One-sided permutation test of AUROC against label shuffling."""
    labels = np.asarray(labels)
    observed = auroc(scores, labels)
    null = np.empty(n_permutations)
    for i in range(n_permutations):
        null[i] = auroc(scores, rng.permutation(labels))
    p = (1.0 + float((null >= observed).sum())) / (n_permutations + 1.0)
    return {
        "observed": observed,
        "p_value": p,
        "null_mean": float(null.mean()),
        "null_std": float(null.std()),
    }


# -- retrieval ------------------------------------------------------------------


def recall_at_k(sim: np.ndarray, ground_truth, ks) -> dict[int, float]:
    """Recall@K in percent over a query x gallery similarity matrix, as
    ``{k: recall}`` in ascending k; RSUM is the sum of its values.

    ``ground_truth`` holds each query row's single correct gallery column.
    Ranking is by descending similarity with ties broken in favor of the
    lower gallery index.
    """
    sim = np.asarray(sim, dtype=np.float64)
    n_q, n_g = sim.shape
    gt = np.asarray(ground_truth, dtype=int)
    if gt.shape != (n_q,):
        raise ValueError("recall_at_k: need one ground-truth index per query")
    if n_q and (gt.min() < 0 or gt.max() >= n_g):
        raise ValueError(f"recall_at_k: ground-truth indices must lie in [0, {n_g})")
    ks = sorted(int(k) for k in ks)
    if ks[0] < 1 or ks[-1] > n_g:
        raise ValueError(f"recall_at_k: K must lie in [1, {n_g}], got {ks}")

    target = sim[np.arange(n_q), gt]
    better = (sim > target[:, None]).sum(axis=1)
    tie_before = ((sim == target[:, None]) & (np.arange(n_g) < gt[:, None])).sum(axis=1)
    rank = 1 + better + tie_before
    return {k: float(100.0 * (rank <= k).mean()) for k in ks}


# -- zero-shot ---------------------------------------------------------------------


def prompt_uncertainty(log_var: np.ndarray) -> np.ndarray:
    """Mean predicted standard deviation of each row of an (n, D) log-variance."""
    return np.exp(0.5 * log_var).mean(axis=1)


def _mean_exact(rows: np.ndarray) -> np.ndarray:
    # Centered mean so that identical rows average to themselves bitwise.
    if np.all(rows == rows[0]):
        return rows[0].copy()
    return rows[0] + (rows - rows[0]).mean(axis=0)


def class_prototype(mu: np.ndarray, log_var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average the means and the variances of a class's (n, D) embedding rows."""
    if np.all(log_var == log_var[0]):
        return _mean_exact(mu), log_var[0].copy()
    return _mean_exact(mu), np.log(_mean_exact(np.exp(log_var)))


def encode_prompts(model: AlignmentModel, prompts: dict) -> dict:
    """Each class's ``(n, dim)`` text prompt rows as embeddings, ``{class: (mu, log_var)}``."""
    return {cls: model.encode(Modality.TEXT, prompts[cls]) for cls in sorted(prompts)}


def score_prototypes(items: tuple, by_class: dict, kind: SimilarityKind) -> np.ndarray:
    """The (items, classes) similarities of ``(mu, log_var)`` items to the
    prototype of each class's ``(mu, log_var)`` rows, classes in sorted order."""
    mu_p, lv_p = map(np.stack, zip(*(class_prototype(*by_class[cls]) for cls in sorted(by_class))))
    return pairwise_similarity_arrays(*items, mu_p, lv_p, kind)


def zero_shot(items: tuple, encoded_prompts: dict, kind: SimilarityKind) -> np.ndarray:
    """Score items against the class prototypes of prompt rows from ``encode_prompts``.

    Kept beside ``score_prototypes`` as the zero-shot patch point that
    ``perfbench/spans.py`` times."""
    return score_prototypes(items, encoded_prompts, kind)


def filtered_zero_shot(items: tuple, encoded_prompts: dict, k: int, kind: SimilarityKind) -> np.ndarray:
    """Zero-shot over only the k lowest-uncertainty prompt rows of each class.

    Selected rows keep their original order, so k equal to the full prompt
    count reproduces ``zero_shot`` bit for bit.
    """
    per_class = min(len(mu) for mu, _ in encoded_prompts.values())
    if not 1 <= k <= per_class:
        raise ValueError(f"filtered_zero_shot: k must lie in [1, {per_class}], got {k}")
    filtered = {}
    for cls, (mu, log_var) in encoded_prompts.items():
        keep = np.sort(np.argsort(prompt_uncertainty(log_var), kind="mergesort")[:k])
        filtered[cls] = (mu[keep], log_var[keep])
    return score_prototypes(items, filtered, kind)


# -- few-shot probing -----------------------------------------------------------------


def logistic_probe(
    x: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    iters: int = PROBE_ITERS,
    lr: float = PROBE_LR,
    l2: float = PROBE_L2,
) -> np.ndarray:
    """Softmax regression by full-batch gradient descent; returns (d+1, C).

    Stacked problems fit at once: ``x`` of shape (..., n, d) with labels ``y``
    of shape (..., n) gives (..., d+1, C). The softmax runs on a transposed
    copy of the logits, classes along rows, so its max and sum reduce whole
    rows rather than a short axis per sample. With fewer than 8 classes every
    slice equals its own 2-D fit bit for bit; from 8 classes on, the class sum
    adds in row order where numpy's per-sample sum adds pairwise.
    """
    *batch, n, d = x.shape
    xb = np.concatenate([x, np.ones((*batch, n, 1))], axis=-1)
    xb_t = xb.swapaxes(-1, -2)
    one_hot_t = (np.arange(n_classes)[:, None] == np.asarray(y)[..., None, :]).astype(np.float64)
    w = np.zeros((*batch, d + 1, n_classes))
    for _ in range(iters):
        p_t = (xb @ w).swapaxes(-1, -2).copy()  # (..., C, n)
        p_t -= p_t.max(axis=-2, keepdims=True)
        np.exp(p_t, out=p_t)
        p_t /= p_t.sum(axis=-2, keepdims=True)
        p_t -= one_hot_t
        grad = xb_t @ p_t.swapaxes(-1, -2) / n
        grad[..., :-1, :] += l2 * w[..., :-1, :]  # bias row not decayed
        w -= lr * grad
    return w


def probe_scores(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Class probabilities (m, C) of a probe (d+1, C) on items (m, d); a stack
    of probes (..., d+1, C) gives (..., m, C)."""
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    logits = xb @ w
    logits -= logits.max(axis=-1, keepdims=True)
    p = np.exp(logits)
    return p / p.sum(axis=-1, keepdims=True)


def _select_support(labels: np.ndarray, classes, k_shot: int, rng: np.random.Generator):
    if k_shot < 1:
        raise ValueError(f"few_shot: k_shot must be >= 1, got {k_shot}")
    support_idx = []
    for cls in classes:
        pool = np.flatnonzero(labels == cls)
        if len(pool) < k_shot:
            raise ValueError(f"few_shot: class {cls} has only {len(pool)} examples, need {k_shot}")
        support_idx.extend(pool[rng.permutation(len(pool))[:k_shot]])
    return np.array(support_idx)


def _sample_rows(
    mu: np.ndarray, log_var: np.ndarray, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Expand each of k rows (k, d) into ``n_samples`` draws mu + sigma * eps,
    giving (k * n_samples, d), row after row.

    One (k, n_samples, d) standard-normal draw gives the values and leaves the
    stream where one ``gaussians.sample`` call per row, in row order, does.
    """
    eps = rng.standard_normal((mu.shape[0], n_samples, mu.shape[1]))
    sigma = np.exp(0.5 * log_var)
    return (mu[:, None, :] + sigma[:, None, :] * eps).reshape(-1, mu.shape[1])


def few_shot(
    train_labels,
    embed_train,
    test_mu: np.ndarray,
    test_labels,
    k_shot: int,
    mode: str = "mu_only",
    n_samples: int = 16,
    rngs=(),
) -> list[float]:
    """Linear-probe AUROCs, one per generator in ``rngs``, each from its own
    k-shot support set drawn from the train pool.

    ``embed_train`` maps an ascending array of train row indices to the
    ``(mu, log_var)`` arrays of their embeddings, in that order. It is called once,
    with the union of the support sets, so no other train row is embedded.
    ``mu_only`` trains the probe on the support items' mean embeddings;
    ``sampled`` expands every support item into ``n_samples``
    reparameterized draws and trains on those. Each generator
    draws its support set and then, in ``sampled`` mode, that set's draws, so
    every AUROC equals a run with that generator alone. The probes of all
    generators fit as one stack. Test items are scored on their means ``test_mu``.
    """
    if mode not in ("mu_only", "sampled"):
        raise ValueError(f"few_shot: unknown mode {mode!r}")
    if mode == "sampled" and n_samples < 1:
        raise ValueError("few_shot: n_samples must be >= 1")
    rngs = list(rngs)
    if not rngs:
        raise ValueError("few_shot: rngs must hold at least one generator")

    train_labels = np.asarray(train_labels)
    test_labels = np.asarray(test_labels)
    classes = sorted(set(int(c) for c in train_labels))
    class_index = {cls: i for i, cls in enumerate(classes)}
    supports = [_select_support(train_labels, classes, k_shot, rng) for rng in rngs]
    # The sorted distinct support rows, and where each support entry sits in them.
    rows, where = np.unique(np.concatenate(supports), return_inverse=True)
    mu_train, lv_train = embed_train(rows)

    xs, ys = [], []
    for rng, support, at in zip(rngs, supports, where.reshape(len(rngs), -1)):
        x = mu_train[at]
        y = np.array([class_index[int(c)] for c in train_labels[support]])
        if mode == "sampled":
            x = _sample_rows(x, lv_train[at], n_samples, rng)
            y = np.repeat(y, n_samples)
        xs.append(x)
        ys.append(y)

    w = logistic_probe(np.stack(xs), np.stack(ys), len(classes))
    return [_class_auroc(scores, test_labels, classes) for scores in probe_scores(w, test_mu)]


# -- multimodal classification -----------------------------------------------------


# The two modalities the multimodal protocol combines.
MULTIMODAL_PAIR = (Modality.MOD_A, Modality.MOD_B)


def multimodal_classify(
    model: AlignmentModel,
    train_labels,
    embedders,
    test_views: tuple[np.ndarray, np.ndarray],
    test_labels,
    k_shot: int,
    prompts: dict,
    kind: SimilarityKind,
    rng: np.random.Generator,
    fusion: str = "mean",
) -> dict:
    """ZS and FS AUROCs for each modality of ``MULTIMODAL_PAIR`` and their combination.

    ``embedders`` holds one ``few_shot`` embedder and ``test_views`` one
    feature array per modality of the pair. FS is one ``few_shot`` probe
    each for the two modalities and for their concatenated embeddings, each
    drawing from its own copy of ``rng``, so all three fit the same support
    rows. ZS fuses the two per-modality prototype-similarity scores of the
    test items with the configured rule (mean or max).
    """
    if fusion not in ("mean", "max"):
        raise ValueError(f"multimodal_classify: unknown fusion {fusion!r}")
    test_labels = np.asarray(test_labels)
    names = [m.value for m in MULTIMODAL_PAIR] + ["both"]
    enc_test = [model.encode(m, x) for m, x in zip(MULTIMODAL_PAIR, test_views)]

    # Zero-shot: per-modality prototype similarities, then fused.
    encoded_prompts = encode_prompts(model, prompts)
    zs_scores = [score_prototypes(enc, encoded_prompts, kind) for enc in enc_test]
    fused = 0.5 * (zs_scores[0] + zs_scores[1]) if fusion == "mean" else np.maximum(*zs_scores)
    zs = {name: _class_auroc(s, test_labels, sorted(prompts)) for name, s in zip(names, [*zs_scores, fused])}

    def embed_both(rows):
        return tuple(map(np.hstack, zip(*(embed(rows) for embed in embedders))))

    mu_test = [mu for mu, _ in enc_test]
    fs = {
        name: few_shot(train_labels, embed, x_test, test_labels, k_shot, rngs=[copy.deepcopy(rng)])[0]
        for name, embed, x_test in zip(names, [*embedders, embed_both], [*mu_test, np.hstack(mu_test)])
    }
    return {"zs": zs, "fs": fs}


# -- uncertainty probes ----------------------------------------------------------------


def mean_uncertainty_by_noise(
    model: AlignmentModel,
    modality: Modality,
    items: np.ndarray,
    noise_levels,
    rng: np.random.Generator,
) -> tuple[list[tuple[float, float]], float]:
    """Average the per-level uncertainty over many items, then correlate:
    ``(series, rho)``, the series as (noise level, mean uncertainty) pairs."""
    levels = [float(v) for v in noise_levels]
    if levels != sorted(levels) or levels[0] != 0.0:
        raise ValueError("mean_uncertainty_by_noise: levels must ascend and start at 0")
    items = np.asarray(items, dtype=np.float64)
    means = []
    for level in levels:
        noisy = items + rng.standard_normal(items.shape) * level
        _, log_var = model.encode(modality, noisy)
        means.append(float(prompt_uncertainty(log_var).mean()))
    return list(zip(levels, means)), spearman(levels, means)


# -- report container --------------------------------------------------------------------


@dataclass
class EvalReport:
    """Named metrics of one protocol run, serializable to JSON."""

    protocol: str
    metrics: dict
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {"protocol": self.protocol, "metrics": self.metrics, "details": self.details}
        return json.dumps(doc, sort_keys=True, indent=2, default=_jsonable)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")

"""Meta-sampled pair training: one modality pair per gradient step.

Each step draws a pair type from the configured sampling weights, pulls a
batch of records having that pair, computes the weighted pair objective and
updates only the two involved encoders with AdamW (decoupled weight decay on
weight matrices only) under a cosine-annealed learning rate and global
gradient-norm clipping. Validation passes run the encoders in eval mode and
track a symmetric contrastive loss plus text->modality retrieval RSUM; the
best-RSUM parameters are restored into the returned model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Corpus, PairBatch, PairType, TRAINABLE_PAIRS, eligible_records, make_pair_batches
from .encoders import (
    AlignmentModel,
    Modality,
    decayable,
    save_checkpoint,
)
from .gaussians import SimilarityKind, pairwise_similarity_arrays
from .losses import LossBreakdown, LossWeights, pair_loss

ADAM_EPS = 1e-8

METRICS_COLUMNS = ["step", "pair", "total", "mod_f", "mod_b", "sis1", "sis2", "vib1", "vib2", "lr"]


class TrainingAbort(RuntimeError):
    """Raised when a step produces a non-finite loss."""


@dataclass
class TrainConfig:
    loss_weights: LossWeights = field(default_factory=LossWeights)
    similarity: SimilarityKind = SimilarityKind.HELLINGER
    batch_size: int = 64
    total_steps: int = 2000
    lr: float = 1e-4
    weight_decay: float = 1e-5
    betas: tuple[float, float] = (0.9, 0.95)
    grad_clip: float = 1.0
    bn_enabled: bool = True
    sis_enabled: bool = True
    seed: int = 0
    pair_sampling_weights: dict[PairType, float] | None = None
    hidden_dim: int = 64
    embed_dim: int = 32
    eval_every: int = 500

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("TrainConfig: lr must be positive")
        if self.grad_clip <= 0:
            raise ValueError("TrainConfig: grad_clip must be positive")
        if self.batch_size < 2:
            raise ValueError("TrainConfig: batch_size must be at least 2")
        if self.pair_sampling_weights is not None:
            if any(w < 0 for w in self.pair_sampling_weights.values()):
                raise ValueError("TrainConfig: pair sampling weights must be nonnegative")
            total = sum(self.pair_sampling_weights.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"TrainConfig: pair sampling weights sum to {total}, expected 1")

    def effective_weights(self) -> LossWeights:
        w = self.loss_weights
        beta = w.beta if self.sis_enabled else 0.0
        return LossWeights(alpha=w.alpha, beta=beta, gamma=w.gamma, tau=w.tau)


def cosine_lr(step: int, total_steps: int, lr_max: float) -> float:
    """Cosine annealing from lr_max at step 0 to 0 at step == total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"cosine_lr: step {step} outside [0, {total_steps}]")
    if total_steps == 0:
        return lr_max
    return lr_max * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


@dataclass
class AdamWState:
    """First/second moments and the update count for one encoder."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


class TrainerState:
    """Everything the step loop mutates: model, optimizer moments, rng."""

    def __init__(self, cfg: TrainConfig, model: AlignmentModel):
        self.cfg = cfg
        self.model = model
        self.optimizer: dict[Modality, AdamWState] = {m: AdamWState() for m in model.encoders}
        self.step = 0
        self.rng = np.random.default_rng([cfg.seed, 3])


def _clip_gradients(grads: list[np.ndarray], grad_clip: float) -> float:
    """Scale the listed gradients to a global norm of at most grad_clip.

    Scaled entries replace the list's arrays rather than being written into
    them: gradient arrays may alias each other and the parameters' ``.grad``.
    """
    total = math.sqrt(sum(float((g * g).sum()) for g in grads))
    if total > grad_clip:
        scale = grad_clip / total
        grads[:] = [g * scale for g in grads]
    return min(total, grad_clip)


def _adamw_update(
    encoder, state: AdamWState, grads: dict[str, np.ndarray], lr: float, cfg: TrainConfig
) -> None:
    beta1, beta2 = cfg.betas
    state.step += 1
    t = state.step
    for name, tensor in encoder.params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        state.m[name] = beta1 * state.m[name] + (1 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1 - beta2) * g * g
        m_hat = state.m[name] / (1 - beta1**t)
        v_hat = state.v[name] / (1 - beta2**t)
        update = m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if decayable(name):
            update = update + cfg.weight_decay * tensor.data
        tensor.data = tensor.data - lr * update


def train_step(state: TrainerState, pair: PairType, batch: PairBatch) -> LossBreakdown:
    """One gradient update on the two encoders of ``pair``."""
    cfg = state.cfg
    enc1 = state.model.encoders[pair[0]]
    enc2 = state.model.encoders[pair[1]]
    b1 = enc1.encode(batch.x_first, train=True)
    b2 = enc2.encode(batch.x_second, train=True)
    total, breakdown = pair_loss(
        b1,
        b2,
        state.cfg.effective_weights(),
        cfg.similarity,
        rng=state.rng,
    )
    if not math.isfinite(breakdown.total):
        raise TrainingAbort(
            f"non-finite loss {breakdown.total} at step {state.step} on pair "
            f"{tuple(m.value for m in pair)}, record ids {batch.record_ids[:8]}..."
        )

    involved = [(pair[0], enc1), (pair[1], enc2)]
    for _, enc in involved:
        for p in enc.params.values():
            p.zero_grad()
    total.backward()

    flat = [
        np.zeros_like(p.data) if p.grad is None else p.grad
        for _, enc in involved
        for p in enc.params.values()
    ]
    _clip_gradients(flat, cfg.grad_clip)

    lr = cosine_lr(state.step, cfg.total_steps, cfg.lr)
    clipped = iter(flat)
    for modality, enc in involved:
        grads = {name: next(clipped) for name in enc.params}
        _adamw_update(enc, state.optimizer[modality], grads, lr, cfg)
    for _, enc in involved:
        for p in enc.params.values():
            p.zero_grad()
    state.step += 1
    return breakdown


def choose_pairs(
    pairs: list[PairType], weights: list[float], rng: np.random.Generator, n: int
) -> list[PairType]:
    """Draw n pair types by weighted sampling (one per training step)."""
    idx = rng.choice(len(pairs), size=n, p=np.asarray(weights) / np.sum(weights))
    return [pairs[i] for i in idx]


# -- validation ---------------------------------------------------------------


def _encode_eval(model: AlignmentModel, modality: Modality, x: np.ndarray):
    batch = model.encode(modality, x, train=False)
    return batch.mu.data, batch.log_var.data


def validation_retrieval(
    model: AlignmentModel,
    records,
    kind: SimilarityKind,
    ks: tuple[int, ...] = (1, 5),
    max_gallery: int = 1000,
) -> dict:
    """Text->modality recall for each text pair; queries are first variants."""
    from .evaluation import recall_at_k

    out = {"rsum": 0.0, "tasks": {}}
    for pair in TRAINABLE_PAIRS:
        if Modality.TEXT not in pair:
            continue
        modality = pair[0]
        pool = eligible_records(records, pair)[:max_gallery]
        if len(pool) <= max(ks):
            continue
        texts = np.stack([r.text_variants[0] for r in pool])
        views = np.stack([r.views[modality] for r in pool])
        mu_q, lv_q = _encode_eval(model, Modality.TEXT, texts)
        mu_g, lv_g = _encode_eval(model, modality, views)
        sim = pairwise_similarity_arrays(mu_q, lv_q, mu_g, lv_g, kind)
        result = recall_at_k(sim, list(range(len(pool))), list(ks))
        out["tasks"][f"text->{modality.value}"] = {f"r@{k}": result.recall_at[k] for k in ks}
        out["rsum"] += result.rsum
    return out


def validation_info_nce(
    model: AlignmentModel,
    records,
    cfg: TrainConfig,
    n_batches: int = 2,
) -> float:
    """Symmetric contrastive loss on seeded eval-mode batches, all pairs."""
    from .gaussians import GaussianBatch
    from .losses import info_nce_prob

    values = []
    for i, pair in enumerate(TRAINABLE_PAIRS):
        pool = eligible_records(records, pair)
        if len(pool) < cfg.batch_size:
            continue
        rng = np.random.default_rng([cfg.seed, 7, i])
        stream = make_pair_batches(records, pair, cfg.batch_size, rng)
        for _ in range(n_batches):
            batch = next(stream)
            b1 = model.encode(pair[0], batch.x_first, train=False)
            b2 = model.encode(pair[1], batch.x_second, train=False)
            forward = info_nce_prob(b1, b2, cfg.similarity, cfg.loss_weights.tau).item()
            backward = info_nce_prob(b2, b1, cfg.similarity, cfg.loss_weights.tau).item()
            values.append(0.5 * (forward + backward))
    return float(np.mean(values)) if values else float("nan")


@dataclass
class TrainResult:
    model: AlignmentModel
    history: list[dict]
    validation_history: list[dict]
    best_step: int
    best_rsum: float


def _snapshot(model: AlignmentModel) -> dict:
    snap = {}
    for modality, enc in model.encoders.items():
        snap[modality] = (
            {name: p.data.copy() for name, p in enc.params.items()},
            enc.bn_running_mean.copy(),
            enc.bn_running_var.copy(),
        )
    return snap


def _restore(model: AlignmentModel, snap: dict) -> None:
    for modality, (params, rm, rv) in snap.items():
        enc = model.encoders[modality]
        for name, arr in params.items():
            enc.params[name].data = arr.copy()
        enc.bn_running_mean = rm.copy()
        enc.bn_running_var = rv.copy()


def train(
    cfg: TrainConfig,
    corpus: Corpus,
    metrics_path=None,
    checkpoint_path=None,
) -> TrainResult:
    """Run the full meta-sampling loop; returns the best-validation model."""
    input_dims = dict(corpus.config.view_dims)
    model = AlignmentModel.build(
        cfg.seed, input_dims, cfg.hidden_dim, cfg.embed_dim, bn_enabled=cfg.bn_enabled
    )
    state = TrainerState(cfg, model)

    if cfg.pair_sampling_weights is None:
        pairs = [p for p in TRAINABLE_PAIRS if len(eligible_records(corpus.train, p)) >= cfg.batch_size]
        weights = [1.0 / len(pairs)] * len(pairs)
    else:
        pairs = [p for p, w in cfg.pair_sampling_weights.items() if w > 0]
        weights = [cfg.pair_sampling_weights[p] for p in pairs]
        for pair in pairs:
            if len(eligible_records(corpus.train, pair)) < cfg.batch_size:
                raise ValueError(
                    f"train: pair {tuple(m.value for m in pair)} has nonzero sampling weight "
                    "but too few records for one batch"
                )
    if not pairs:
        raise ValueError("train: no trainable pair has enough records for a batch")

    streams = {
        pair: make_pair_batches(
            corpus.train, pair, cfg.batch_size, np.random.default_rng([cfg.seed, 4, i])
        )
        for i, pair in enumerate(pairs)
    }
    pair_rng = np.random.default_rng([cfg.seed, 5])

    history: list[dict] = []
    validation_history: list[dict] = []
    metrics_file = open(metrics_path, "w", encoding="utf-8") if metrics_path else None
    if metrics_file:
        metrics_file.write(",".join(METRICS_COLUMNS) + "\n")

    def run_validation():
        retrieval = validation_retrieval(model, corpus.valid, cfg.similarity)
        nce = validation_info_nce(model, corpus.valid, cfg)
        entry = {"step": state.step, "rsum": retrieval["rsum"], "info_nce": nce, "tasks": retrieval["tasks"]}
        validation_history.append(entry)
        return entry

    best = run_validation()
    best_snapshot = _snapshot(model)
    try:
        for step in range(cfg.total_steps):
            pair = choose_pairs(pairs, weights, pair_rng, 1)[0]
            batch = next(streams[pair])
            lr = cosine_lr(state.step, cfg.total_steps, cfg.lr)
            breakdown = train_step(state, pair, batch)
            row = {
                "step": step,
                "pair": "+".join(m.value for m in pair),
                **dict(zip(METRICS_COLUMNS[2:-1], breakdown.as_row())),
                "lr": lr,
            }
            history.append(row)
            if metrics_file:
                metrics_file.write(
                    ",".join(str(row[c]) if c in ("step", "pair") else repr(row[c]) for c in METRICS_COLUMNS)
                    + "\n"
                )
            due = (step + 1) % cfg.eval_every == 0 or (step + 1) == cfg.total_steps
            if due:
                entry = run_validation()
                if entry["rsum"] >= best["rsum"]:
                    best = entry
                    best_snapshot = _snapshot(model)
    finally:
        if metrics_file:
            metrics_file.close()

    _restore(model, best_snapshot)
    if checkpoint_path:
        save_checkpoint(model, checkpoint_path)
    return TrainResult(
        model=model,
        history=history,
        validation_history=validation_history,
        best_step=best["step"],
        best_rsum=best["rsum"],
    )

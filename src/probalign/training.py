"""Meta-sampled pair training: one modality pair per gradient step.

Each step draws a pair type uniformly from the trainable pairs whose train
records can fill a batch, pulls a batch of records having that pair,
computes the weighted pair objective and updates only the two involved
encoders with AdamW (decoupled weight decay on weight matrices only) under a
cosine-annealed learning rate and global gradient-norm clipping. Validation passes run the encoders in eval mode and
track a symmetric contrastive loss plus text->modality retrieval RSUM; the
best-RSUM model is kept as its checkpoint document and rebuilt from it at
the end.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .data import TRAINABLE_PAIRS, Corpus, PairBatch, PairType, Split, check_int_fields, json_number, make_pair_batches
from .encoders import (
    PARAM_ORDER,
    AlignmentModel,
    Modality,
    checkpoint_document,
    decayable,
    model_from_document,
    save_checkpoint,
)
from .gaussians import GaussianBatch, SimilarityKind, pairwise_similarity_arrays
from .losses import LossWeights, pair_loss

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
    seed: int = 0
    hidden_dim: int = 64
    embed_dim: int = 32
    eval_every: int = 500

    def __post_init__(self):
        if type(self.bn_enabled) is not bool:
            raise ValueError(f"TrainConfig: bn_enabled must be true or false, got {self.bn_enabled!r}")
        if json_number("TrainConfig: lr", self.lr) <= 0:
            raise ValueError("TrainConfig: lr must be positive")
        if json_number("TrainConfig: grad_clip", self.grad_clip) <= 0:
            raise ValueError("TrainConfig: grad_clip must be positive")
        least = {"batch_size": 2, "total_steps": 0, "eval_every": 1, "hidden_dim": 1, "embed_dim": 1, "seed": 0}
        check_int_fields(self, least)
        if json_number("TrainConfig: weight_decay", self.weight_decay) < 0:
            raise ValueError("TrainConfig: weight_decay must be nonnegative")
        if len(self.betas) != 2 or not all(0 <= json_number("TrainConfig: each betas entry", b) < 1 for b in self.betas):
            raise ValueError(f"TrainConfig: betas must be two values in [0, 1), got {self.betas}")


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


def _adamw_update(encoder, state: AdamWState, grads: Iterator[np.ndarray], lr: float, cfg: TrainConfig) -> None:
    """Update ``encoder``'s parameters, taking their gradients from ``grads`` in PARAM_ORDER."""
    beta1, beta2 = cfg.betas
    state.step += 1
    t = state.step
    for name, g in zip(PARAM_ORDER, grads):
        tensor = encoder.params[name]
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


def train_step(state: TrainerState, pair: PairType, batch: PairBatch) -> dict:
    """One gradient update on the two encoders of ``pair``; returns the step's
    ``metrics.csv`` row, keyed by METRICS_COLUMNS."""
    cfg = state.cfg
    enc1, enc2 = (state.model.encoders[m] for m in pair)
    b1 = enc1.encode(batch.x_first, train=True)
    b2 = enc2.encode(batch.x_second, train=True)
    total, parts = pair_loss(b1, b2, cfg.loss_weights, cfg.similarity, rng=state.rng)
    if not math.isfinite(parts["total"]):
        raise TrainingAbort(
            f"non-finite loss {parts['total']} at step {state.step} on pair "
            f"{tuple(m.value for m in pair)}, record ids {batch.record_ids[:8]}..."
        )

    # One list, enc1's parameters then enc2's, from backward through clipping into AdamW.
    params = [enc.params[name] for enc in (enc1, enc2) for name in PARAM_ORDER]
    for p in params:
        p.zero_grad()
    total.backward()
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
    _clip_gradients(grads, cfg.grad_clip)

    lr = cosine_lr(state.step, cfg.total_steps, cfg.lr)
    clipped = iter(grads)
    _adamw_update(enc1, state.optimizer[pair[0]], clipped, lr, cfg)
    _adamw_update(enc2, state.optimizer[pair[1]], clipped, lr, cfg)
    for p in params:
        p.zero_grad()
    row = {"step": state.step, "pair": "+".join(m.value for m in pair), **parts, "lr": lr}
    state.step += 1
    return row


def choose_pairs(pairs: list[PairType], rng: np.random.Generator, n: int) -> list[PairType]:
    """Draw n pair types uniformly (one per training step)."""
    # An explicit uniform p: numpy's stream differs without it.
    idx = rng.choice(len(pairs), size=n, p=np.full(len(pairs), 1.0 / len(pairs)))
    return [pairs[i] for i in idx]


# -- validation ---------------------------------------------------------------


def validation_retrieval(
    model: AlignmentModel,
    split: Split,
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
        pool = split.pair_rows(pair)[:max_gallery]
        if len(pool) <= max(ks):
            continue
        mu_q, lv_q = model.encode(Modality.TEXT, split.text[pool, 0])
        mu_g, lv_g = model.encode(modality, split.views[modality][pool])
        sim = pairwise_similarity_arrays(mu_q, lv_q, mu_g, lv_g, kind)
        recall = recall_at_k(sim, list(range(len(pool))), list(ks))
        out["tasks"][f"text->{modality.value}"] = {f"r@{k}": recall[k] for k in ks}
        out["rsum"] += sum(recall.values())
    return out


def validation_info_nce(
    model: AlignmentModel,
    split: Split,
    cfg: TrainConfig,
    n_batches: int = 2,
) -> float | None:
    """Symmetric contrastive loss on seeded eval-mode batches, all pairs; None
    when no pair has records for a batch. Each batch is the mean of the two
    directions of an InfoNCE-only ``pair_loss``."""
    weights = LossWeights(alpha=1.0, beta=0.0, gamma=0.0, tau=cfg.loss_weights.tau)
    values = []
    for i, pair in enumerate(TRAINABLE_PAIRS):
        if len(split.pair_rows(pair)) < cfg.batch_size:
            continue
        stream = make_pair_batches(split, pair, cfg.batch_size, np.random.default_rng([cfg.seed, 7, i]))
        for _ in range(n_batches):
            batch = next(stream)
            b1 = GaussianBatch(*model.encode(pair[0], batch.x_first))
            b2 = GaussianBatch(*model.encode(pair[1], batch.x_second))
            _, parts = pair_loss(b1, b2, weights, cfg.similarity)
            values.append(0.5 * (parts["mod_f"] + parts["mod_b"]))
    return float(np.mean(values)) if values else None


@dataclass
class TrainResult:
    model: AlignmentModel
    validation_history: list[dict]
    best_step: int
    best_rsum: float


def sampling_plan(cfg: TrainConfig, corpus: Corpus) -> list[PairType]:
    """The trainable pairs whose train records can fill a batch, which a run
    samples uniformly; raises ValueError when there is none."""
    pairs = [p for p in TRAINABLE_PAIRS if len(corpus.train.pair_rows(p)) >= cfg.batch_size]
    if not pairs:
        raise ValueError("train: no trainable pair has enough records for a batch")
    return pairs


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
    pairs = sampling_plan(cfg, corpus)
    streams = {
        pair: make_pair_batches(
            corpus.train, pair, cfg.batch_size, np.random.default_rng([cfg.seed, 4, i])
        )
        for i, pair in enumerate(pairs)
    }
    pair_rng = np.random.default_rng([cfg.seed, 5])

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
    best_doc = checkpoint_document(model)
    try:
        while state.step < cfg.total_steps:
            pair = choose_pairs(pairs, pair_rng, 1)[0]
            row = train_step(state, pair, next(streams[pair]))
            if metrics_file:
                metrics_file.write(
                    ",".join(str(row[c]) if c in ("step", "pair") else repr(row[c]) for c in METRICS_COLUMNS)
                    + "\n"
                )
            if state.step % cfg.eval_every == 0 or state.step == cfg.total_steps:
                entry = run_validation()
                if entry["rsum"] >= best["rsum"]:
                    best = entry
                    best_doc = checkpoint_document(model)
    finally:
        if metrics_file:
            metrics_file.close()

    model = model_from_document(best_doc)
    if checkpoint_path:
        save_checkpoint(model, checkpoint_path)
    return TrainResult(
        model=model,
        validation_history=validation_history,
        best_step=best["step"],
        best_rsum=best["rsum"],
    )

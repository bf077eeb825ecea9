"""Probabilistic multimodal alignment on diagonal-Gaussian embeddings.

A desk-scale, numpy-only stack: a minimal reverse-mode gradient engine,
closed-form similarities between Gaussian embeddings (Hellinger,
Bhattacharyya, expected squared distance, cosine-on-mean), contrastive and
variational training objectives, per-modality MLP encoders, a synthetic
many-to-many multimodal corpus, a pair-sampling training loop, and the
retrieval / zero-shot / few-shot evaluation protocols, including
uncertainty-based prompt filtering and sampling-augmented few-shot probes.
"""

from .autodiff import Tensor, grad_check
from .encoders import AlignmentModel, Encoder, EncoderDims, Modality, init_encoder
from .gaussians import (
    GaussianBatch,
    GaussianEmbedding,
    SimilarityKind,
    bhattacharyya_distance,
    cosine_mu,
    csd,
    hellinger_similarity,
    hellinger_sq,
    sample,
)
from .losses import LossWeights, pair_loss, sis_loss, vib_loss
from .training import TrainConfig, TrainResult, cosine_lr, train

__version__ = "0.1.0"

__all__ = [
    "AlignmentModel",
    "Encoder",
    "EncoderDims",
    "GaussianBatch",
    "GaussianEmbedding",
    "LossWeights",
    "Modality",
    "SimilarityKind",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "bhattacharyya_distance",
    "cosine_mu",
    "cosine_lr",
    "csd",
    "grad_check",
    "hellinger_similarity",
    "hellinger_sq",
    "init_encoder",
    "pair_loss",
    "sample",
    "sis_loss",
    "train",
    "vib_loss",
]

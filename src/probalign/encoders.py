"""Per-modality feedforward encoders producing Gaussian embeddings.

Each encoder is a two-layer ReLU trunk followed by two parallel affine heads,
one for the mean and one for the log-variance. The log-variance head is
initialized near zero so every embedding starts close to unit variance. An
optional batch-normalization layer sits between the trunk and the heads; in
train mode it normalizes with batch statistics and updates running statistics
with momentum, in eval mode it uses the running statistics so the output of a
single item does not depend on its batch.

Checkpoints are a single JSON document (sorted keys, base64-encoded float64
buffers), which makes save -> load -> save bit-identical.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .gaussians import GaussianBatch

BN_MOMENTUM = 0.1
BN_EPS = 1e-5

# Canonical parameter-dict ordering; checkpoint loads restore it so that
# iteration order (and thus e.g. gradient-norm summation) is stable across a
# save/load round trip.
PARAM_ORDER = ["w1", "b1", "w2", "b2", "w_mu", "b_mu", "w_lv", "b_lv", "bn_scale", "bn_shift"]


class Modality(str, Enum):
    """The four aligned modalities: three feature streams and text."""

    MOD_A = "mod_a"
    MOD_B = "mod_b"
    MOD_C = "mod_c"
    TEXT = "text"


class NonFiniteEmbedding(FloatingPointError):
    """Raised when eval-mode encoding yields a non-finite mean or log-variance."""


@dataclass
class EncoderDims:
    input_dim: int
    hidden_dim: int = 64
    embed_dim: int = 32

    def __post_init__(self):
        if min(self.input_dim, self.hidden_dim, self.embed_dim) < 1:
            raise ValueError(f"EncoderDims: all dims must be positive, got {self}")


class Encoder:
    """Trainable parameters plus batch-norm running state for one modality."""

    def __init__(self, dims: EncoderDims, params: dict[str, Tensor], bn_enabled: bool):
        self.dims = dims
        self.params = params
        self.bn_enabled = bn_enabled
        self.bn_running_mean = np.zeros(dims.hidden_dim)
        self.bn_running_var = np.ones(dims.hidden_dim)

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def encode(self, x: np.ndarray, train: bool = False) -> GaussianBatch:
        """Map raw feature rows to a batch of Gaussian embeddings."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dims.input_dim:
            raise ValueError(
                f"encode: expected (N, {self.dims.input_dim}) features, got {x.shape}"
            )
        p = self.params
        h = ad.relu(ad.matmul(Tensor(x), p["w1"]) + p["b1"])
        h = ad.relu(ad.matmul(h, p["w2"]) + p["b2"])
        if self.bn_enabled:
            h = self._batch_norm(h, train)
        mu = ad.matmul(h, p["w_mu"]) + p["b_mu"]
        log_var = ad.matmul(h, p["w_lv"]) + p["b_lv"]
        return GaussianBatch(mu, log_var)

    def _batch_norm(self, h: Tensor, train: bool) -> Tensor:
        if train:
            n = h.shape[0]
            if n < 2:
                raise ValueError("encode: train-mode batch norm needs a batch of at least 2")
            mean = ad.mean_axis0(h)
            centered = h - mean
            var = ad.mean_axis0(centered * centered)
            normalized = centered / ad.sqrt(var + BN_EPS)
            # Running stats track the unbiased batch variance, torch-style.
            self.bn_running_mean = (1 - BN_MOMENTUM) * self.bn_running_mean + BN_MOMENTUM * mean.data
            self.bn_running_var = (
                1 - BN_MOMENTUM
            ) * self.bn_running_var + BN_MOMENTUM * var.data * n / (n - 1)
        else:
            normalized = (h - self.bn_running_mean) / np.sqrt(self.bn_running_var + BN_EPS)
        return self.params["bn_scale"] * normalized + self.params["bn_shift"]


def init_encoder(seed: int, dims: EncoderDims, bn_enabled: bool = False) -> Encoder:
    """Deterministic initialization.

    The mean head is scaled down (0.1x) so that initial means sit well inside
    the unit-variance distributions: overlap-based similarities then start in
    their responsive range instead of saturated near zero. The log-variance
    head is scaled by 0.01 with zero bias so every embedding starts near unit
    variance.
    """
    rng = np.random.default_rng(seed)

    def affine(fan_in: int, fan_out: int, scale: float = 1.0):
        w = rng.normal(0.0, scale / np.sqrt(fan_in), size=(fan_in, fan_out))
        return Tensor(w), Tensor(np.zeros(fan_out))

    w1, b1 = affine(dims.input_dim, dims.hidden_dim)
    w2, b2 = affine(dims.hidden_dim, dims.hidden_dim)
    w_mu, b_mu = affine(dims.hidden_dim, dims.embed_dim, scale=0.1)
    w_lv, b_lv = affine(dims.hidden_dim, dims.embed_dim, scale=0.01)
    params = {
        "w1": w1,
        "b1": b1,
        "w2": w2,
        "b2": b2,
        "w_mu": w_mu,
        "b_mu": b_mu,
        "w_lv": w_lv,
        "b_lv": b_lv,
        "bn_scale": Tensor(np.ones(dims.hidden_dim)),
        "bn_shift": Tensor(np.zeros(dims.hidden_dim)),
    }
    assert list(params) == PARAM_ORDER
    return Encoder(dims, params, bn_enabled)


def decayable(param_name: str) -> bool:
    """Weight matrices get decoupled weight decay; biases and BN do not."""
    return param_name.startswith("w")


class AlignmentModel:
    """The four per-modality encoders sharing one embedding space."""

    def __init__(self, encoders: dict[Modality, Encoder], embed_dim: int):
        self.encoders = encoders
        self.embed_dim = embed_dim

    @classmethod
    def build(
        cls,
        seed: int,
        input_dims: dict[Modality, int],
        hidden_dim: int = 64,
        embed_dim: int = 32,
        bn_enabled: bool = False,
    ) -> "AlignmentModel":
        encoders = {}
        for offset, modality in enumerate(Modality):
            if modality not in input_dims:
                raise ValueError(f"AlignmentModel.build: missing input dim for {modality.value}")
            dims = EncoderDims(input_dims[modality], hidden_dim, embed_dim)
            encoders[modality] = init_encoder(seed + offset, dims, bn_enabled)
        return cls(encoders, embed_dim)

    def encode(self, modality: Modality, x: np.ndarray, train: bool = False) -> GaussianBatch:
        """Encode with one modality's encoder. In eval mode a non-finite mean or
        log-variance raises NonFiniteEmbedding (training checks its loss instead)."""
        batch = self.encoders[modality].encode(x, train=train)
        if not train and not all(np.isfinite(t.data).all() for t in (batch.mu, batch.log_var)):
            raise NonFiniteEmbedding(
                f"the {modality.value} encoder produced a non-finite embedding; "
                f"check the checkpoint and the inputs for NaN or inf"
            )
        return batch

    def named_parameters(self):
        for modality in Modality:
            for name, p in self.encoders[modality].params.items():
                yield f"{modality.value}.{name}", p


# -- checkpoint serialization ---------------------------------------------------

CHECKPOINT_FORMAT = "probalign-checkpoint-v1"


def encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def decode_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype=np.float64).reshape(obj["shape"]).copy()


def checkpoint_document(model: AlignmentModel) -> dict:
    encoders = {}
    for modality, enc in model.encoders.items():
        encoders[modality.value] = {
            "input_dim": enc.dims.input_dim,
            "hidden_dim": enc.dims.hidden_dim,
            "embed_dim": enc.dims.embed_dim,
            "bn_enabled": enc.bn_enabled,
            "params": {name: encode_array(t.data) for name, t in enc.params.items()},
            "bn_running_mean": encode_array(enc.bn_running_mean),
            "bn_running_var": encode_array(enc.bn_running_var),
        }
    return {
        "format": CHECKPOINT_FORMAT,
        "embed_dim": model.embed_dim,
        "encoders": encoders,
    }


def save_checkpoint(model: AlignmentModel, path) -> None:
    doc = checkpoint_document(model)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path) -> AlignmentModel:
    """The model of a checkpoint; an ``optimizer`` block older files carry is ignored."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"load_checkpoint: unrecognized format {doc.get('format')!r}")
    encoders = {}
    for key, entry in doc["encoders"].items():
        modality = Modality(key)
        dims = EncoderDims(entry["input_dim"], entry["hidden_dim"], entry["embed_dim"])
        params = {name: Tensor(decode_array(entry["params"][name])) for name in PARAM_ORDER}
        enc = Encoder(dims, params, entry["bn_enabled"])
        enc.bn_running_mean = decode_array(entry["bn_running_mean"])
        enc.bn_running_var = decode_array(entry["bn_running_var"])
        encoders[modality] = enc
    return AlignmentModel(encoders, doc["embed_dim"])

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
from pathlib import Path

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

    def encode(self, x: np.ndarray, train: bool = False) -> GaussianBatch:
        """Map raw feature rows to a batch of Gaussian embeddings. Train mode
        builds a graph over the parameters; eval mode runs the same expressions
        on their arrays, so its mu and log_var are leaves with no graph behind them."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.dims.input_dim:
            raise ValueError(
                f"encode: expected (N, {self.dims.input_dim}) features, got {x.shape}"
            )
        if train:
            p, h, relu, matmul = self.params, ad.constant(x), ad.relu, ad.matmul
        else:
            p, h = {name: t.data for name, t in self.params.items()}, x
            relu, matmul = ad.relu_values, ad.matmul_values
        h = relu(matmul(h, p["w1"]) + p["b1"])
        h = relu(matmul(h, p["w2"]) + p["b2"])
        if self.bn_enabled:
            h = p["bn_scale"] * self._normalize(h, train) + p["bn_shift"]
        mu = matmul(h, p["w_mu"]) + p["b_mu"]
        log_var = matmul(h, p["w_lv"]) + p["b_lv"]
        return GaussianBatch(mu, log_var)

    def _normalize(self, h, train: bool):
        """Batch norm before its affine: batch statistics in train mode, which
        also update the running ones, and the running statistics in eval mode."""
        if not train:
            return (h - self.bn_running_mean) / np.sqrt(self.bn_running_var + BN_EPS)
        n = h.shape[0]
        if n < 2:
            raise ValueError("encode: train-mode batch norm needs a batch of at least 2")
        mean = ad.mean_axis0(h)
        centered = h - mean
        var = ad.mean_axis0(centered * centered)
        # Running stats track the unbiased batch variance, torch-style.
        self.bn_running_mean = (1 - BN_MOMENTUM) * self.bn_running_mean + BN_MOMENTUM * mean.data
        self.bn_running_var = (
            1 - BN_MOMENTUM
        ) * self.bn_running_var + BN_MOMENTUM * var.data * n / (n - 1)
        return centered / ad.sqrt(var + BN_EPS)


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

    def encode(self, modality: Modality, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode ``(mu, log_var)`` arrays of one modality's feature rows; a
        non-finite entry raises NonFiniteEmbedding (training checks its loss instead)."""
        batch = self.encoders[modality].encode(x)
        mu, log_var = batch.mu.data, batch.log_var.data
        if not (np.isfinite(mu).all() and np.isfinite(log_var).all()):
            raise NonFiniteEmbedding(
                f"the {modality.value} encoder produced a non-finite embedding; "
                f"check the checkpoint and the inputs for NaN or inf"
            )
        return mu, log_var

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


def model_from_document(doc: dict) -> AlignmentModel:
    """The model of a checkpoint document; an ``optimizer`` block older files carry is ignored.
    A missing key or modality, a ``bn_enabled`` that is not a JSON bool, or a
    top-level ``embed_dim`` other than each encoder's raises ValueError naming it."""
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"checkpoint: unrecognized format {doc.get('format')!r}")
    for key in ("encoders", "embed_dim"):
        if key not in doc:
            raise ValueError(f"checkpoint: no {key!r} entry")
    if not isinstance(doc["encoders"], dict):
        raise ValueError(f"checkpoint: 'encoders' must be an object, got {type(doc['encoders']).__name__}")
    missing = [m.value for m in Modality if m.value not in doc["encoders"]]
    if missing:
        raise ValueError(f"checkpoint: no encoder for {', '.join(missing)}")
    encoders = {}
    for key, entry in doc["encoders"].items():
        modality = Modality(key)
        try:
            dims = EncoderDims(entry["input_dim"], entry["hidden_dim"], entry["embed_dim"])
            params = {name: Tensor(decode_array(entry["params"][name])) for name in PARAM_ORDER}
            bn = entry["bn_enabled"]
            if type(bn) is not bool:
                raise ValueError(f"checkpoint: the {key} encoder's bn_enabled must be true or false, got {bn!r}")
            enc = Encoder(dims, params, bn)
            enc.bn_running_mean = decode_array(entry["bn_running_mean"])
            enc.bn_running_var = decode_array(entry["bn_running_var"])
        except KeyError as exc:
            raise ValueError(f"checkpoint: the {key} encoder has no {exc.args[0]!r} entry") from exc
        except TypeError as exc:
            raise ValueError(f"checkpoint: the {key} encoder entry is malformed: {exc}") from exc
        # Eval mode runs on numpy arrays, which would broadcast a mis-shaped bias instead of failing.
        i, h, e = dims.input_dim, dims.hidden_dim, dims.embed_dim
        if type(doc["embed_dim"]) is not int or doc["embed_dim"] != e:
            raise ValueError(f"checkpoint: the top-level embed_dim {doc['embed_dim']!r} is not the {key} encoder's {e}")
        shapes = [(i, h), (h,), (h, h), (h,), (h, e), (e,), (h, e), (e,), (h,), (h,), (h,), (h,)]
        names = [*PARAM_ORDER, "bn_running_mean", "bn_running_var"]
        arrays = [*(t.data for t in params.values()), enc.bn_running_mean, enc.bn_running_var]
        wrong = [f"{n} {a.shape}, expected {s}" for n, a, s in zip(names, arrays, shapes) if a.shape != s]
        if wrong:
            raise ValueError(f"checkpoint: the {key} encoder's shapes do not match its dims: {'; '.join(wrong)}")
        encoders[modality] = enc
    return AlignmentModel(encoders, doc["embed_dim"])


def load_checkpoint(path) -> AlignmentModel:
    path = Path(path)
    if path.exists() and not path.is_file():
        raise ValueError(f"checkpoint path {path} is not a file")
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint {path} must be a JSON object, got {type(doc).__name__}")
    return model_from_document(doc)

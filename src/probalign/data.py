"""Synthetic many-to-many multimodal corpus.

Each record is a "patient": a latent concept projected into per-modality
feature views through fixed random linear maps plus Gaussian noise. The
config's ``label_rule`` picks the concept: drawn from its class's mixture
cluster (``cluster``), or from one Gaussian and labelled by the sign of its sum
(``sum_sign``, where mod_a and mod_b each see one factor of that sum; see
``complementary_config``). Text gets several variants per record (distinct
noise draws plus a small variant-specific offset), so one concept maps to many
texts and many texts map to nearby concepts. Records carry an
availability subset of the four trainable modality pairs; the two held-out
pairs, mod_a+mod_c and mod_b+mod_c, never appear, which is what the
emergent-alignment evaluations rely on.

The corpus serializes to one JSONL file per split plus a manifest with the
config, seed, per-split counts and the sha256 of each split file (format
``probalign-corpus-v2``). A record line holds its structure as plain JSON
(``record_id``, ``class_label``, ``available_pairs``) and all its floats in one
``floats`` field: the base64 of the little-endian float64 values of the
concept, then each view in ``Modality`` order, then the text variants. The
reader slices that buffer back using the config's dimensions, so the round
trip is exact bit for bit and no decimal float is formatted or parsed.
``read_corpus`` checks every split file against its manifest checksum and
returns each split as a ``SplitIndex``, parsed on first use: as a sequence it
decodes every record, and its row accessors parse only each line's structure
(record id, label, pairs), so a caller that needs a few rows of a large split,
such as a few-shot support set, decodes just those. Latent generator parameters
(cluster centers, projections, variant offsets) are derived from dedicated
seed streams, the projections from the fixed ``PROJECTION_SEEDS``, so a
corpus read back from disk can rebuild them exactly.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .encoders import Modality

PairType = tuple[Modality, Modality]

TRAINABLE_PAIRS: tuple[PairType, ...] = (
    (Modality.MOD_A, Modality.TEXT),
    (Modality.MOD_B, Modality.TEXT),
    (Modality.MOD_C, Modality.TEXT),
    (Modality.MOD_A, Modality.MOD_B),
)

# The seed of each modality's projection stream.
PROJECTION_SEEDS = {Modality.MOD_A: 101, Modality.MOD_B: 102, Modality.MOD_C: 103, Modality.TEXT: 104}

CORPUS_FORMAT = "probalign-corpus-v2"

SPLITS = ("train", "valid", "test")


class CorpusFormatError(ValueError):
    """Raised when a corpus file cannot be parsed or fails its checksum."""


def _default_view_dims() -> dict[Modality, int]:
    return {Modality.MOD_A: 48, Modality.MOD_B: 40, Modality.MOD_C: 56, Modality.TEXT: 24}


def _default_noise() -> dict[Modality, float]:
    return {m: 0.3 for m in Modality}


def _default_pair_probs() -> dict[PairType, float]:
    return {
        (Modality.MOD_A, Modality.TEXT): 0.9,
        (Modality.MOD_B, Modality.TEXT): 0.9,
        (Modality.MOD_C, Modality.TEXT): 0.15,
        (Modality.MOD_A, Modality.MOD_B): 0.5,
    }


@dataclass
class CorpusConfig:
    n_records: int = 10_000
    n_classes: int = 5
    latent_dim: int = 16
    cluster_std: float = 0.4
    view_dims: dict[Modality, int] = field(default_factory=_default_view_dims)
    noise_scales: dict[Modality, float] = field(default_factory=_default_noise)
    n_text_variants: int = 3
    pair_probs: dict[PairType, float] = field(default_factory=_default_pair_probs)
    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    label_rule: str = "cluster"

    def __post_init__(self):
        check_int_fields(self, {"n_records": 0, "n_classes": 1, "latent_dim": 1, "n_text_variants": 2})
        if type(self.cluster_std) not in (int, float) or self.cluster_std < 0:
            raise ValueError(f"CorpusConfig: cluster_std must be a number >= 0, got {self.cluster_std!r}")
        not_int = [f"{m.value} {dim!r}" for m, dim in self.view_dims.items() if type(dim) is not int]
        if not_int:
            raise ValueError(f"CorpusConfig: view dims must be integers, got {', '.join(not_int)}")
        too_small = [f"{m.value} {dim}" for m, dim in self.view_dims.items() if dim < 1]
        if too_small:
            raise ValueError(f"CorpusConfig: view dims must be >= 1, got {', '.join(too_small)}")
        for name in ("view_dims", "noise_scales"):
            missing = [m.value for m in Modality if m not in getattr(self, name)]
            if missing:
                raise ValueError(f"CorpusConfig: {name} must name every modality; missing {', '.join(missing)}")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9 or min(self.split_fractions) < 0:
            raise ValueError(f"CorpusConfig: split fractions must be >= 0 and sum to 1, got {self.split_fractions}")
        if any(s <= 0 for s in self.noise_scales.values()):
            raise ValueError("CorpusConfig: noise scales must be positive")
        untrainable = [p for p in self.pair_probs if p not in TRAINABLE_PAIRS]
        if untrainable:
            names = ", ".join("+".join(m.value for m in p) for p in untrainable)
            raise ValueError(f"CorpusConfig: pair_probs may name only trainable pairs, not {names}")
        if not all(0.0 <= w <= 1.0 for w in self.pair_probs.values()):
            raise ValueError("CorpusConfig: pair probabilities must lie in [0, 1]")
        if not any(w > 0.0 for w in self.pair_probs.values()):
            raise ValueError("CorpusConfig: at least one trainable pair needs a positive probability")
        if self.label_rule not in ("cluster", "sum_sign"):
            raise ValueError(f"CorpusConfig: label_rule must be 'cluster' or 'sum_sign', not {self.label_rule!r}")
        if self.label_rule == "sum_sign" and not (self.n_classes == 2 and self.latent_dim >= 2):
            raise ValueError("CorpusConfig: label_rule 'sum_sign' needs n_classes 2 and latent_dim >= 2")


@dataclass
class SyntheticRecord:
    record_id: int
    class_label: int
    concept: np.ndarray
    views: dict[Modality, np.ndarray]
    text_variants: list[np.ndarray]
    available_pairs: tuple[PairType, ...]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SyntheticRecord)
            and self.record_id == other.record_id
            and self.class_label == other.class_label
            and np.array_equal(self.concept, other.concept)
            and set(self.views) == set(other.views)
            and all(np.array_equal(self.views[m], other.views[m]) for m in self.views)
            and len(self.text_variants) == len(other.text_variants)
            and all(np.array_equal(a, b) for a, b in zip(self.text_variants, other.text_variants))
            and self.available_pairs == other.available_pairs
        )


@dataclass
class LatentSpace:
    """Generator parameters, reconstructible from (config, seed)."""

    centers: np.ndarray  # (C, K)
    projections: dict[Modality, np.ndarray]  # modality -> (dim, K)
    variant_offsets: np.ndarray  # (V, text_dim)


@dataclass
class Corpus:
    """A generated or read-back corpus. The splits of a generated corpus are
    lists; ``read_corpus`` gives each split as a ``SplitIndex``, parsed when
    first used."""

    config: CorpusConfig
    seed: int
    latent: LatentSpace
    train: list[SyntheticRecord]
    valid: list[SyntheticRecord]
    test: list[SyntheticRecord]

    @property
    def splits(self) -> dict[str, list[SyntheticRecord]]:
        return {"train": self.train, "valid": self.valid, "test": self.test}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Corpus)
            and self.seed == other.seed
            and self.config == other.config
            and all(self.splits[k] == other.splits[k] for k in SPLITS)
        )


def build_latent_space(cfg: CorpusConfig, seed: int) -> LatentSpace:
    """Derive the fixed generator parameters from their dedicated streams."""
    projections = {}
    for modality, proj_seed in PROJECTION_SEEDS.items():
        rng = np.random.default_rng(proj_seed)
        projections[modality] = rng.normal(
            0.0, 1.0 / np.sqrt(cfg.latent_dim), size=(cfg.view_dims[modality], cfg.latent_dim)
        )
    rng_latent = np.random.default_rng([seed, 1])
    centers = rng_latent.normal(0.0, 1.0, size=(cfg.n_classes, cfg.latent_dim))
    offsets = rng_latent.normal(size=(cfg.n_text_variants, cfg.view_dims[Modality.TEXT]))
    offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
    offsets *= cfg.noise_scales[Modality.TEXT] / 2.0
    if cfg.label_rule == "sum_sign":
        # mod_a sees only the first factor of the label and mod_b only the second.
        projections[Modality.MOD_A][:, 1] = 0.0
        projections[Modality.MOD_B][:, 0] = 0.0
    return LatentSpace(centers, projections, offsets)


def _record_modalities(pairs) -> list[Modality]:
    seen: list[Modality] = []
    for pair in pairs:
        for m in pair:
            if m not in seen:
                seen.append(m)
    return [m for m in Modality if m in seen]


def generate(cfg: CorpusConfig, seed: int) -> Corpus:
    """Generate a record-disjoint train/valid/test corpus, deterministically."""
    latent = build_latent_space(cfg, seed)
    rng = np.random.default_rng([seed, 2])
    # Labels are drawn with an explicit uniform p: numpy's stream differs without it.
    uniform = np.full(cfg.n_classes, 1.0 / cfg.n_classes)
    pair_list = [p for p in TRAINABLE_PAIRS if cfg.pair_probs.get(p, 0.0) > 0.0]
    probs = np.array([cfg.pair_probs[p] for p in pair_list])

    records: list[SyntheticRecord] = []
    for record_id in range(cfg.n_records):
        if cfg.label_rule == "sum_sign":
            concept = rng.normal(0.0, cfg.cluster_std, size=cfg.latent_dim)
            label = int(concept.sum() > 0.0)
        else:
            label = int(rng.choice(cfg.n_classes, p=uniform))
            concept = latent.centers[label] + rng.normal(0.0, cfg.cluster_std, size=cfg.latent_dim)
        while True:
            mask = rng.random(len(pair_list)) < probs
            if mask.any():
                break
        pairs = tuple(p for p, keep in zip(pair_list, mask) if keep)

        views: dict[Modality, np.ndarray] = {}
        text_variants: list[np.ndarray] = []
        for modality in _record_modalities(pairs):
            clean = latent.projections[modality] @ concept
            if modality is Modality.TEXT:
                for v in range(cfg.n_text_variants):
                    noise = rng.normal(0.0, cfg.noise_scales[modality], size=clean.shape)
                    text_variants.append(clean + latent.variant_offsets[v] + noise)
            else:
                noise = rng.normal(0.0, cfg.noise_scales[modality], size=clean.shape)
                views[modality] = clean + noise
        records.append(SyntheticRecord(record_id, label, concept, views, text_variants, pairs))

    order = rng.permutation(cfg.n_records)
    n_train = int(round(cfg.split_fractions[0] * cfg.n_records))
    n_valid = int(round(cfg.split_fractions[1] * cfg.n_records))
    train = [records[i] for i in order[:n_train]]
    valid = [records[i] for i in order[n_train : n_train + n_valid]]
    test = [records[i] for i in order[n_train + n_valid :]]
    return Corpus(cfg, seed, latent, train, valid, test)


# -- batching ---------------------------------------------------------------------


@dataclass
class PairBatch:
    pair: PairType
    record_ids: tuple[int, ...]
    x_first: np.ndarray  # (B, dim of pair[0])
    x_second: np.ndarray  # (B, dim of pair[1])


def eligible_records(records, pair: PairType) -> list[SyntheticRecord]:
    return [r for r in records if pair in r.available_pairs]


def make_pair_batches(records, pair: PairType, batch_size: int, rng: np.random.Generator):
    """Endless stream of batches of records having the requested pair.

    Text sides pick a variant uniformly at random per record per batch, which
    is what realizes the many-to-many text mapping during training. Record ids
    within one batch are distinct.
    """
    if pair not in TRAINABLE_PAIRS:
        raise ValueError(f"make_pair_batches: pair {tuple(m.value for m in pair)} is not trainable")
    pool = eligible_records(records, pair)
    if len(pool) < batch_size:
        raise ValueError(
            f"make_pair_batches: only {len(pool)} records have pair "
            f"{tuple(m.value for m in pair)}, need {batch_size}"
        )

    def side(record: SyntheticRecord, modality: Modality) -> np.ndarray:
        if modality is Modality.TEXT:
            return record.text_variants[rng.integers(len(record.text_variants))]
        return record.views[modality]

    def stream():
        while True:
            idx = rng.choice(len(pool), size=batch_size, replace=False)
            chosen = [pool[i] for i in idx]
            x1 = np.stack([side(r, pair[0]) for r in chosen])
            x2 = np.stack([side(r, pair[1]) for r in chosen])
            yield PairBatch(pair, tuple(r.record_id for r in chosen), x1, x2)

    return stream()


# -- serialization ------------------------------------------------------------------


def _pair_to_json(pair: PairType) -> list[str]:
    return [pair[0].value, pair[1].value]


def _pair_from_json(obj) -> PairType:
    return (Modality(obj[0]), Modality(obj[1]))


def _record_layout(cfg: CorpusConfig, pairs) -> tuple[list[Modality], list[int]]:
    """View modalities and float segment sizes of a record with these pairs.

    The segments are the concept, then each view in ``Modality`` order, then
    the text variants: the order of a record's ``floats`` blob.
    """
    modalities = _record_modalities(pairs)
    views = [m for m in modalities if m is not Modality.TEXT]
    n_text = cfg.n_text_variants if Modality.TEXT in modalities else 0
    sizes = [cfg.latent_dim, *(cfg.view_dims[m] for m in views)]
    return views, sizes + [cfg.view_dims[Modality.TEXT]] * n_text


def _record_to_json(r: SyntheticRecord, cfg: CorpusConfig) -> str:
    views, sizes = _record_layout(cfg, r.available_pairs)
    parts = [r.concept, *(r.views[m] for m in views if m in r.views), *r.text_variants]
    if set(r.views) != set(views) or [p.size for p in parts] != sizes:
        raise ValueError(
            f"write_corpus: record {r.record_id} does not have the views and dimensions "
            f"its available pairs and the corpus config call for"
        )
    floats = np.concatenate(parts).astype("<f8", copy=False)
    doc = {
        "record_id": r.record_id,
        "class_label": r.class_label,
        "floats": base64.b64encode(floats.tobytes()).decode("ascii"),
        "available_pairs": [_pair_to_json(p) for p in r.available_pairs],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _record_head(doc: dict, cfg: CorpusConfig, layouts: dict) -> tuple:
    """A record line's structure: (record_id, class_label, layout), its floats
    blob left encoded. ``layouts`` caches the parsed pairs and blob layout by
    the pairs' JSON form, since a corpus has only a few distinct pair sets."""
    key = tuple(tuple(p) for p in doc["available_pairs"])
    if key not in layouts:
        pairs = tuple(_pair_from_json(p) for p in key)
        views, sizes = _record_layout(cfg, pairs)
        ends = np.cumsum(sizes).tolist()
        layouts[key] = (pairs, views, list(zip([0, *ends[:-1]], ends)), 8 * ends[-1])
    return doc["record_id"], doc["class_label"], layouts[key]


def _record_from_json(head: tuple, blob: str) -> SyntheticRecord:
    """Decode a record's floats blob into the record ``head`` describes."""
    record_id, class_label, (pairs, views, bounds, n_bytes) = head
    raw = base64.b64decode(blob, validate=True)
    if len(raw) != n_bytes:
        names = [tuple(m.value for m in p) for p in pairs]
        raise ValueError(f"floats holds {len(raw)} bytes, expected {n_bytes} for pairs {names}")
    # A bytearray, not bytes, so the arrays are writable like freshly generated ones.
    floats = np.frombuffer(bytearray(raw), dtype="<f8").astype(np.float64, copy=False)
    segments = [floats[a:b] for a, b in bounds]
    return SyntheticRecord(
        record_id=record_id,
        class_label=class_label,
        concept=segments[0],
        views=dict(zip(views, segments[1:])),
        text_variants=segments[1 + len(views) :],
        available_pairs=pairs,
    )


def _config_to_json(cfg: CorpusConfig) -> dict:
    return {
        "n_records": cfg.n_records,
        "n_classes": cfg.n_classes,
        "latent_dim": cfg.latent_dim,
        "cluster_std": cfg.cluster_std,
        "view_dims": {m.value: d for m, d in cfg.view_dims.items()},
        "noise_scales": {m.value: s for m, s in cfg.noise_scales.items()},
        "n_text_variants": cfg.n_text_variants,
        "pair_probs": [[_pair_to_json(p), w] for p, w in cfg.pair_probs.items()],
        "split_fractions": list(cfg.split_fractions),
        "label_rule": cfg.label_rule,
    }


def _modality_map(name: str, doc: dict, cast) -> dict[Modality, object]:
    return {Modality(k): cast(v) for k, v in json_object(f"corpus.{name}", doc).items()}


def _real(section: str, value) -> float:
    """``value`` as a float; only a JSON number (an int or a float, not a bool) is accepted."""
    if type(value) not in (int, float):
        raise ValueError(f"{section} values must be numbers, got {value!r}")
    return float(value)


_CONFIG_CASTS = {
    "view_dims": lambda v: _modality_map("view_dims", v, lambda dim: dim),
    "noise_scales": lambda v: _modality_map("noise_scales", v, lambda s: _real("corpus.noise_scales", s)),
    "pair_probs": lambda v: {_pair_from_json(p): _real("corpus.pair_probs", w) for p, w in v},
    "split_fractions": tuple,
}


def json_object(section: str, value) -> dict:
    """``value``, which must be a JSON object; raises ValueError naming ``section`` otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{section} must be a JSON object, got {type(value).__name__}")
    return value


def check_int_fields(obj, least: dict[str, int]) -> None:
    """Raise ValueError unless each named field of ``obj`` is an int (not a bool) >= its bound."""
    for name, bound in least.items():
        value = getattr(obj, name)
        if type(value) is not int:
            raise ValueError(f"{type(obj).__name__}: {name} must be an integer, got {value!r}")
        if value < bound:
            raise ValueError(f"{type(obj).__name__}: {name} must be >= {bound}, got {value}")


def from_json(section: str, cls, doc: dict, casts: dict, **defaults):
    """Dataclass ``cls`` from the JSON object ``doc`` over ``defaults``, each value
    passed through its entry in ``casts``, if any. Unknown keys and values of the
    wrong type raise ValueError naming ``section``."""
    unknown = sorted(set(json_object(section, doc)) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {section} key(s): {', '.join(unknown)}")
    try:
        return cls(**{**defaults, **{k: casts.get(k, lambda v: v)(v) for k, v in doc.items()}})
    except TypeError as exc:
        raise ValueError(f"{section}: {exc}") from exc


def config_from_json(doc: dict) -> CorpusConfig:
    """CorpusConfig from its JSON form (a config file's ``corpus`` section or a
    manifest's ``config``); absent keys take the defaults."""
    return from_json("corpus", CorpusConfig, doc, _CONFIG_CASTS)


def corpus_manifest(corpus: Corpus, checksums: dict[str, str]) -> dict:
    pair_counts = {}
    for split, records in corpus.splits.items():
        counts = {}
        for pair in TRAINABLE_PAIRS:
            counts["+".join(m.value for m in pair)] = sum(
                1 for r in records if pair in r.available_pairs
            )
        pair_counts[split] = counts
    return {
        "format": CORPUS_FORMAT,
        "config": _config_to_json(corpus.config),
        "seed": corpus.seed,
        "counts": {split: len(records) for split, records in corpus.splits.items()},
        "pair_counts": pair_counts,
        "checksums": checksums,
    }


def write_corpus(corpus: Corpus, path) -> dict:
    """Write one JSONL file per split plus manifest.json; returns the manifest."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    checksums = {}
    for split, records in corpus.splits.items():
        body = "".join(_record_to_json(r, corpus.config) + "\n" for r in records).encode("ascii")
        (out / f"{split}.jsonl").write_bytes(body)
        checksums[split] = hashlib.sha256(body).hexdigest()
    manifest = corpus_manifest(corpus, checksums)
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return manifest


class SplitIndex:
    """A split of a read-back corpus, parsed when first used.

    Made, it checks its file's sha256, read in 1 MiB chunks. First used, it
    reads the file, checks those bytes against the same digest and parses
    them. As a sequence (``len``, iteration, indexing, ``==``) it decodes
    every record once and keeps no floats blob. ``labels``,
    ``rows_with_views`` and ``records(rows)`` parse only each line's
    structure, in file order, and decode just the rows asked for, such as a
    few-shot support set.
    """

    def __init__(self, path: Path, sha256: str | None, cfg: CorpusConfig, layouts: dict):
        self.path = path
        self._sha256 = sha256
        self._cfg = cfg
        self._layouts = layouts
        self._lines: list[tuple] | None = None  # (line number, head, floats blob) per row, until decoded
        self._records: list[SyntheticRecord] | None = None
        digest = hashlib.sha256()
        with path.open("rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
        self._check(digest)

    def _check(self, digest) -> None:
        if digest.hexdigest() != self._sha256:
            raise CorpusFormatError(
                f"{self.path}: sha256 does not match the checksum in manifest.json; "
                f"the file changed after it was written"
            )

    def _parse(self):
        body = self.path.read_bytes()
        self._check(hashlib.sha256(body))
        return _split_lines(self.path, body, self._cfg, self._layouts)

    def _index(self) -> list[tuple]:
        if self._lines is None:
            self._lines = list(self._parse())
        return self._lines

    def _all(self) -> list[SyntheticRecord]:
        if self._records is None:
            # Decoding as the file is parsed builds no list of undecoded blobs.
            lines = self._parse() if self._lines is None else self._lines
            self._records = [_decode_line(self.path, *line) for line in lines]
            self._lines = None
        return self._records

    def _heads(self) -> list[tuple]:
        """(record id, class label, (pairs, view modalities, ...)) per row."""
        if self._records is not None:
            return [(r.record_id, r.class_label, (r.available_pairs, r.views)) for r in self._records]
        return [head for _, head, _ in self._index()]

    def __len__(self) -> int:
        return len(self._all())

    def __iter__(self):
        return iter(self._all())

    def __getitem__(self, item):
        return self._all()[item]

    def __eq__(self, other) -> bool:
        return self._all() == other

    @property
    def labels(self) -> np.ndarray:
        return np.array([head[1] for head in self._heads()], dtype=int)

    def rows_with_views(self, *modalities: Modality) -> np.ndarray:
        """Indices of the rows whose records have a view of every given modality."""
        views = (head[2][1] for head in self._heads())
        return np.array([i for i, v in enumerate(views) if all(m in v for m in modalities)], dtype=int)

    def records(self, rows) -> list[SyntheticRecord]:
        """Decode the given rows, in the given order. A blob that does not
        decode raises CorpusFormatError naming the file and line."""
        if self._records is not None:
            return [self._records[i] for i in rows]
        lines = self._index()
        return [_decode_line(self.path, *lines[i]) for i in rows]


def _decode_line(path: Path, lineno: int, head: tuple, blob: str) -> SyntheticRecord:
    try:
        return _record_from_json(head, blob)
    except (TypeError, ValueError) as exc:
        raise CorpusFormatError(f"{path} line {lineno}: {exc}") from exc


def _split_lines(path: Path, body: bytes, cfg: CorpusConfig, layouts: dict):
    """Yield (line number, head, floats blob) for each record line of a split
    file; a line whose structure does not parse raises CorpusFormatError."""
    for lineno, line in enumerate(body.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line.decode())
            head, blob = _record_head(doc, cfg, layouts), doc["floats"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusFormatError(f"{path} line {lineno}: {exc}") from exc
        yield lineno, head, blob


def read_corpus(path) -> Corpus:
    """Read a corpus written by ``write_corpus``: every split file is checked
    against its sha256 in the manifest and comes back as a ``SplitIndex``,
    parsed when first used.

    Raises CorpusFormatError for a missing manifest, a manifest of another
    format, a manifest whose projection seeds are not ``PROJECTION_SEEDS`` or
    a split file whose sha256 differs from the manifest's. A line that does
    not parse raises it, naming the file and line, when its split is first
    used.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise CorpusFormatError(f"read_corpus: no manifest.json under {root}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("format") != CORPUS_FORMAT:
        raise CorpusFormatError(
            f"{manifest_path}: corpus format {manifest.get('format')!r} is not {CORPUS_FORMAT!r}; "
            f"regenerate the corpus with `probalign gen`"
        )
    try:
        # A manifest written before the label rule was a config field has it at the top level.
        # One written before holdout_pair, class_weights and projection_seeds left the config
        # carries them, at the values the generator now fixes.
        doc = {"label_rule": manifest.get("label_rule", "cluster"), **manifest["config"]}
        for key in ("holdout_pair", "class_weights"):
            doc.pop(key, None)
        seeds = doc.pop("projection_seeds", None)
        fixed = {m.value: s for m, s in PROJECTION_SEEDS.items()}
        if seeds not in (None, fixed):
            raise CorpusFormatError(f"projection_seeds {seeds} are not {fixed}; the projections cannot be rebuilt")
        cfg = config_from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusFormatError(f"{manifest_path}: bad corpus config: {exc}") from exc
    seed = manifest["seed"]
    checksums = manifest.get("checksums", {})
    layouts: dict = {}
    splits = [SplitIndex(root / f"{split}.jsonl", checksums.get(split), cfg, layouts) for split in SPLITS]
    latent = build_latent_space(cfg, seed)
    return Corpus(cfg, seed, latent, *splits)


# -- constructed corpora and prompt synthesis ---------------------------------------


def complementary_config(n_records: int) -> CorpusConfig:
    """Config of a corpus where the two factors of the label live in different modalities.

    The latent is (u, v) with label = 1 if u + v > 0. Modality A observes only
    u, modality B only v, text observes both. Either modality alone supports a
    mediocre linear read-out of the label; concatenating both recovers u + v.
    """
    return CorpusConfig(
        n_records=n_records,
        n_classes=2,
        latent_dim=2,
        cluster_std=1.0,
        view_dims={m: 24 for m in Modality},
        noise_scales={m: 0.2 for m in Modality},
        pair_probs={
            (Modality.MOD_A, Modality.TEXT): 1.0,
            (Modality.MOD_B, Modality.TEXT): 1.0,
            (Modality.MOD_C, Modality.TEXT): 0.0,
            (Modality.MOD_A, Modality.MOD_B): 1.0,
        },
        label_rule="sum_sign",
    )


# A noisy prompt's text noise, as a multiple of the corpus's text noise scale.
NOISY_PROMPT_SCALE = 8.0


def synth_text_prompts(
    corpus: Corpus,
    n_per_class: int,
    noise_scale: float | None = None,
    rng: np.random.Generator | None = None,
) -> dict[int, list[np.ndarray]]:
    """Synthetic text feature vectors describing each class.

    A prompt is the text projection of a latent drawn near the class (cluster
    center jitter for the mixture corpus, rejection sampling for constructed
    label rules) plus text noise at ``noise_scale``.
    """
    cfg = corpus.config
    rng = rng if rng is not None else np.random.default_rng(0)
    scale = cfg.noise_scales[Modality.TEXT] if noise_scale is None else noise_scale
    proj = corpus.latent.projections[Modality.TEXT]
    prompts: dict[int, list[np.ndarray]] = {}
    for label in range(cfg.n_classes):
        rows = []
        for _ in range(n_per_class):
            if cfg.label_rule == "sum_sign":
                while True:
                    latent = rng.normal(0.0, cfg.cluster_std, size=cfg.latent_dim)
                    if int(latent.sum() > 0.0) == label:
                        break
            else:
                latent = corpus.latent.centers[label] + rng.normal(
                    0.0, cfg.cluster_std / 2.0, size=cfg.latent_dim
                )
            rows.append(proj @ latent + rng.normal(0.0, scale, size=proj.shape[0]))
        prompts[label] = rows
    return prompts

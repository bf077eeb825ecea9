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

``generate`` draws each column whole: labels and concepts as one (n, K) draw,
the pairs mask as one (n, 4) draw with only the rows left without a pair
redrawn, and each modality's view as one noise array plus the projection of
the rows whose pairs call for it. ``synth_text_prompts`` draws all prompts at
once the same way. Projections go through ``_project``, which calls no BLAS
routine, so a corpus and its prompts are bit-identical on every machine.

A split, generated or read back, is one ``Split`` of columns: record ids,
labels, concepts, one ``(n, dim)`` array per feature modality, the text
variants as ``(n, V, dim)`` and an ``(n, 4)`` mask of the available pairs. A
view or text a record lacks is NaN. Callers select rows with index arrays
(``split.pair_rows``, ``split.rows_with_views``) and ``split[rows]``.

The corpus serializes to one binary file per split plus a manifest with the
config, seed, per-split counts and the sha256 of each split file (format
``probalign-corpus-v3``). A split file ``{split}.bin`` holds the ``Split``
columns back to back, row-major and little-endian: ``record_ids`` and
``labels`` (int64), ``concept`` (float64, (n, K)), ``mod_a``, ``mod_b`` and
``mod_c`` (float64, (n, dim)), ``text`` (float64, (n, V, dim)), then
``pairs`` (uint8 0 or 1, (n, 4)). The manifest's config and count fix every
offset, so the file has no header, and a cell the record's pairs do not call
for is NaN; the round trip is exact bit for bit. ``read_corpus`` checks every
split file against its manifest checksum; a split's first use checks the
file's size against the count, reads each column into its array, hashing
the same buffers, and rejects a pairs byte other than 0 or 1, a label outside
``[0, n_classes)``, NaN or inf in a cell the pairs call for and anything but
NaN in one they do not. Latent generator parameters (cluster centers,
projections, variant offsets) are derived from dedicated seed streams, the
projections from the fixed ``PROJECTION_SEEDS``, so a corpus read back from
disk can rebuild them exactly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
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

CORPUS_FORMAT = "probalign-corpus-v3"

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
        if json_number("CorpusConfig: cluster_std", self.cluster_std) < 0:
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


FEATURE_MODALITIES = tuple(m for m in Modality if m is not Modality.TEXT)


@dataclass(eq=False)
class Split:
    """One split as columns; row i holds one record. A view or the text a
    record lacks is NaN in its row, so reading it by accident fails the
    finite checks downstream. Indexing with a slice or an index array gives
    a ``Split`` of those rows; there is no per-record view."""

    record_ids: np.ndarray  # (n,) int64
    labels: np.ndarray  # (n,) int64
    concept: np.ndarray  # (n, K)
    views: dict[Modality, np.ndarray]  # feature modality -> (n, dim)
    text: np.ndarray  # (n, V, text dim)
    pairs: np.ndarray  # (n, len(TRAINABLE_PAIRS)) bool; column j is TRAINABLE_PAIRS[j]

    def _columns(self) -> list[np.ndarray]:
        """The columns in the order a split file holds them."""
        views = [self.views[m] for m in FEATURE_MODALITIES]
        return [self.record_ids, self.labels, self.concept, *views, self.text, self.pairs]

    def __len__(self) -> int:
        return len(self.record_ids)

    def pair_rows(self, pair: PairType) -> np.ndarray:
        """Indices of the rows whose records have ``pair`` available."""
        return np.flatnonzero(self.pairs[:, TRAINABLE_PAIRS.index(pair)])

    def calls_for(self, modality: Modality) -> np.ndarray:
        """(n,) bool: the rows with an available pair naming ``modality``."""
        return self.pairs[:, [modality in p for p in TRAINABLE_PAIRS]].any(axis=1)

    def rows_with_views(self, *modalities: Modality) -> np.ndarray:
        """Indices of the rows whose records have a view of every given
        modality. Text is no view: naming it selects no row."""
        keep = np.ones(len(self), dtype=bool)
        for m in modalities:
            keep &= m is not Modality.TEXT and self.calls_for(m)
        return np.flatnonzero(keep)

    def _float_cells(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """(name, column, rows whose pairs call for it) of each float column,
        in file order: the concept belongs to every row."""
        cells = [("concept", self.concept, np.ones(len(self), dtype=bool))]
        for m in Modality:
            cells.append((m.value, self.text if m is Modality.TEXT else self.views[m], self.calls_for(m)))
        return cells

    def __getitem__(self, rows) -> Split:
        if isinstance(rows, (int, np.integer)):
            raise TypeError("a Split takes a slice or an index array of rows, not an int")
        return Split(
            self.record_ids[rows], self.labels[rows], self.concept[rows],
            {m: v[rows] for m, v in self.views.items()}, self.text[rows], self.pairs[rows],
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Split) and all(
            np.array_equal(a, b, equal_nan=True) for a, b in zip(self._columns(), other._columns())
        )


@dataclass
class LatentSpace:
    """Generator parameters, reconstructible from (config, seed)."""

    centers: np.ndarray  # (C, K)
    projections: dict[Modality, np.ndarray]  # modality -> (dim, K)
    variant_offsets: np.ndarray  # (V, text_dim)


@dataclass(eq=False)
class Corpus:
    """A generated or read-back corpus. ``sources`` holds each split by name:
    its ``Split``, or, as ``read_corpus`` gives it, a function that decodes
    it, called when the split is first used."""

    config: CorpusConfig
    seed: int
    latent: LatentSpace
    sources: dict

    def split(self, name: str) -> Split:
        if callable(self.sources[name]):
            self.sources[name] = self.sources[name]()
        return self.sources[name]

    train = property(lambda self: self.split("train"))
    valid = property(lambda self: self.split("valid"))
    test = property(lambda self: self.split("test"))

    splits = property(lambda self: {name: self.split(name) for name in SPLITS})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Corpus)
            and self.seed == other.seed
            and self.config == other.config
            and self.splits == other.splits
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


def _project(latent: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """``latent @ proj.T`` for latents (n, K) and a projection (dim, K), summed
    over the K factors in order with elementwise ops. No BLAS kernel takes part,
    so the bits are the same on every machine."""
    out = np.zeros((len(latent), len(proj)))
    for j in range(proj.shape[1]):
        out += latent[:, j, None] * proj[:, j]
    return out


def _draw_rows(cfg: CorpusConfig, latent: LatentSpace, rng: np.random.Generator) -> Split:
    """All ``cfg.n_records`` records in generation order, each column drawn whole."""
    n = cfg.n_records
    if cfg.label_rule == "sum_sign":
        concept = rng.normal(0.0, cfg.cluster_std, size=(n, cfg.latent_dim))
        labels = (concept.sum(axis=1) > 0.0).astype(np.int64)
    else:
        labels = rng.integers(cfg.n_classes, size=n)
        concept = latent.centers[labels] + rng.normal(0.0, cfg.cluster_std, size=(n, cfg.latent_dim))
    probs = np.array([cfg.pair_probs.get(p, 0.0) for p in TRAINABLE_PAIRS])
    pairs = rng.random((n, len(probs))) < probs
    while (empty := ~pairs.any(axis=1)).any():  # every record has at least one pair
        pairs[empty] = rng.random((int(empty.sum()), len(probs))) < probs

    views = {m: np.full((n, cfg.view_dims[m]), np.nan) for m in FEATURE_MODALITIES}
    text = np.full((n, cfg.n_text_variants, cfg.view_dims[Modality.TEXT]), np.nan)
    rows = Split(np.arange(n), labels, concept, views, text, pairs)
    for modality in Modality:
        called = rows.calls_for(modality)
        clean = _project(concept[called], latent.projections[modality])
        if modality is Modality.TEXT:
            clean = clean[:, None] + latent.variant_offsets
        column = rows.text if modality is Modality.TEXT else rows.views[modality]
        column[called] = clean + rng.normal(0.0, cfg.noise_scales[modality], size=clean.shape)
    return rows


def generate(cfg: CorpusConfig, seed: int) -> Corpus:
    """Generate a record-disjoint train/valid/test corpus, deterministically."""
    latent = build_latent_space(cfg, seed)
    rng = np.random.default_rng([seed, 2])
    # The draw's temporaries are freed on return, before the splits are copied out.
    rows = _draw_rows(cfg, latent, rng)
    order = rng.permutation(cfg.n_records)
    n_train = int(round(cfg.split_fractions[0] * cfg.n_records))
    n_valid = int(round(cfg.split_fractions[1] * cfg.n_records))
    parts = np.split(order, [n_train, n_train + n_valid])
    return Corpus(cfg, seed, latent, {name: rows[index] for name, index in zip(SPLITS, parts)})


# -- batching ---------------------------------------------------------------------


@dataclass
class PairBatch:
    pair: PairType
    record_ids: tuple[int, ...]
    x_first: np.ndarray  # (B, dim of pair[0])
    x_second: np.ndarray  # (B, dim of pair[1])


def make_pair_batches(split: Split, pair: PairType, batch_size: int, rng: np.random.Generator):
    """Endless stream of batches of the split's records having the requested pair.

    Text sides pick a variant uniformly at random per record per batch, in
    row order, which is what realizes the many-to-many text mapping during
    training. Record ids within one batch are distinct.
    """
    if pair not in TRAINABLE_PAIRS:
        raise ValueError(f"make_pair_batches: pair {tuple(m.value for m in pair)} is not trainable")
    pool = split.pair_rows(pair)
    if len(pool) < batch_size:
        raise ValueError(
            f"make_pair_batches: only {len(pool)} records have pair "
            f"{tuple(m.value for m in pair)}, need {batch_size}"
        )

    def side(rows: np.ndarray, modality: Modality) -> np.ndarray:
        if modality is Modality.TEXT:
            # One draw per record, in row order: the stream of one rng.integers call per record.
            return split.text[rows, rng.integers(split.text.shape[1], size=len(rows))]
        return split.views[modality][rows]

    def stream():
        while True:
            rows = pool[rng.choice(len(pool), size=batch_size, replace=False)]
            yield PairBatch(pair, tuple(split.record_ids[rows].tolist()), side(rows, pair[0]), side(rows, pair[1]))

    return stream()


# -- serialization ------------------------------------------------------------------


def _pair_to_json(pair: PairType) -> list[str]:
    return [pair[0].value, pair[1].value]


def _pair_from_json(obj) -> PairType:
    return (Modality(obj[0]), Modality(obj[1]))


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


def json_number(name: str, value) -> float:
    """``value`` as a float; only a finite JSON number (an int or a float, not a
    bool) is accepted. ``json`` reads ``NaN`` and ``Infinity``, and ``float``
    reads ``nan`` and ``inf``, so each can arrive here."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    # NaN fails the comparison too; an int too large for a float is not converted.
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


_CONFIG_CASTS = {
    "view_dims": lambda v: _modality_map("view_dims", v, lambda dim: dim),
    "noise_scales": lambda v: _modality_map("noise_scales", v, lambda s: json_number("a corpus.noise_scales value", s)),
    "pair_probs": lambda v: {_pair_from_json(p): json_number("a corpus.pair_probs value", w) for p, w in v},
    "split_fractions": lambda v: tuple(json_number("a corpus.split_fractions value", f) for f in v),
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
    names = ["+".join(m.value for m in pair) for pair in TRAINABLE_PAIRS]
    splits = corpus.splits
    return {
        "format": CORPUS_FORMAT,
        "config": _config_to_json(corpus.config),
        "seed": corpus.seed,
        "counts": {name: len(split) for name, split in splits.items()},
        "pair_counts": {
            name: dict(zip(names, split.pairs.sum(axis=0).tolist())) for name, split in splits.items()
        },
        "checksums": checksums,
    }


def _file_layout(cfg: CorpusConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(dtype, row shape) of each column of a split file, in ``Split._columns`` order."""
    views = [("<f8", (cfg.view_dims[m],)) for m in FEATURE_MODALITIES]
    text = ("<f8", (cfg.n_text_variants, cfg.view_dims[Modality.TEXT]))
    return [("<i8", ()), ("<i8", ()), ("<f8", (cfg.latent_dim,)), *views, text, ("u1", (len(TRAINABLE_PAIRS),))]


def _row_axes(column: np.ndarray) -> tuple[int, ...]:
    return tuple(range(1, column.ndim))


def _write_split(split: Split, path: Path, cfg: CorpusConfig) -> str:
    """Write ``split``'s columns back to back to ``path``, a cell its record's
    pairs do not call for as NaN; returns the file's sha256."""
    unfit, floats = np.zeros(len(split), dtype=bool), []
    for _, column, rows in split._float_cells():
        unfit |= rows & ~np.isfinite(column).all(axis=_row_axes(column))
        floats.append(np.array(column, dtype="<f8"))
        floats[-1][~rows] = np.nan
    if unfit.any():
        raise ValueError(
            f"write_corpus: record {split.record_ids[unfit.argmax()]} has NaN or inf in a view or text "
            f"its available pairs call for"
        )
    columns = [split.record_ids, split.labels, *floats, split.pairs]
    digest = hashlib.sha256()
    with path.open("wb") as f:
        for column, (dtype, shape) in zip(columns, _file_layout(cfg)):
            buffer = np.ascontiguousarray(column, dtype=dtype).reshape(len(split), *shape)
            f.write(buffer)
            digest.update(buffer)
    return digest.hexdigest()


def write_corpus(corpus: Corpus, path) -> dict:
    """Write one binary file per split plus manifest.json; returns the manifest."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    checksums = {name: _write_split(split, out / f"{name}.bin", corpus.config) for name, split in corpus.splits.items()}
    manifest = corpus_manifest(corpus, checksums)
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return manifest


def _check_sha256(path: Path, digest, expected: str | None) -> None:
    if digest.hexdigest() != expected:
        raise CorpusFormatError(
            f"{path}: sha256 does not match the checksum in manifest.json; the file changed after it was written"
        )


def _first_bad_row(path: Path, bad: np.ndarray, what: str) -> None:
    """Raise CorpusFormatError naming ``path`` and the first row ``bad`` marks, if any."""
    if bad.any():
        raise CorpusFormatError(f"{path} row {bad.argmax()}: {what}")


def _decode_split(path: Path, sha256: str | None, count: int, cfg: CorpusConfig) -> Split:
    """Read a split file into a ``Split`` of ``count`` rows. A file size other
    than ``count`` rows of the config's layout (checked before any column is
    allocated), then a digest other than ``sha256``, then a pairs byte other
    than 0 or 1, a label outside ``[0, n_classes)``, NaN or inf in a cell the
    row's pairs call for or anything but NaN in one they do not raises
    CorpusFormatError naming the file."""
    layout = _file_layout(cfg)
    row_bytes = sum(np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in layout)
    size = path.stat().st_size
    if size != count * row_bytes:
        raise CorpusFormatError(
            f"{path}: manifest.json counts {count} records of {row_bytes} bytes, the file holds {size} bytes"
        )
    digest, columns = hashlib.sha256(), []
    with path.open("rb") as f:
        for dtype, shape in layout:
            columns.append(np.fromfile(f, dtype=dtype, count=count * math.prod(shape)).reshape(count, *shape))
            digest.update(columns[-1])
    _check_sha256(path, digest, sha256)
    record_ids, labels, concept, *views, text, pairs = columns
    _first_bad_row(path, (pairs > 1).any(axis=1), "a pairs byte is not 0 or 1")
    _first_bad_row(path, (labels < 0) | (labels >= cfg.n_classes), f"label outside [0, {cfg.n_classes})")
    split = Split(record_ids, labels, concept, dict(zip(FEATURE_MODALITIES, views)), text, pairs.view(bool))
    for name, column, rows in split._float_cells():
        finite, nan = np.isfinite(column).all(axis=_row_axes(column)), np.isnan(column).all(axis=_row_axes(column))
        _first_bad_row(path, rows & ~finite, f"NaN or inf in {name}, which the row's pairs call for")
        _first_bad_row(path, ~rows & ~nan, f"{name} is not NaN, but the row's pairs do not call for it")
    return split


def read_corpus(path) -> Corpus:
    """Read a corpus written by ``write_corpus``. Every split file is checked
    against its sha256 in the manifest here; a split is decoded when first used.

    Raises CorpusFormatError for a missing manifest, a manifest that is not
    valid JSON, not a JSON object or of another format, a manifest whose
    config is no valid corpus config, whose seed or counts are not integers
    >= 0 or whose checksums are not an object, or a split file whose
    sha256 differs from the manifest's. A split file that ``_decode_split``
    rejects raises it when the split is first used, naming the file.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise CorpusFormatError(f"read_corpus: no manifest.json under {root}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorpusFormatError(f"{manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CorpusFormatError(f"{manifest_path} must be a JSON object, got {type(manifest).__name__}")
    if manifest.get("format") != CORPUS_FORMAT:
        raise CorpusFormatError(
            f"{manifest_path}: corpus format {manifest.get('format')!r} is not {CORPUS_FORMAT!r}; "
            f"regenerate the corpus with `probalign gen`"
        )
    try:
        cfg = config_from_json(manifest["config"])
    except (KeyError, ValueError) as exc:
        raise CorpusFormatError(f"{manifest_path}: bad corpus config: {exc}") from exc
    seed, checksums, counts = manifest.get("seed"), manifest.get("checksums", {}), manifest.get("counts")
    if type(seed) is not int or seed < 0:
        raise CorpusFormatError(f"{manifest_path}: seed must be an integer >= 0, got {seed!r}")
    if not isinstance(checksums, dict):
        raise CorpusFormatError(f"{manifest_path}: checksums must be a JSON object, got {type(checksums).__name__}")
    sources = {}
    for name in SPLITS:
        file, count = root / f"{name}.bin", counts.get(name) if isinstance(counts, dict) else None
        if type(count) is not int or count < 0:
            raise CorpusFormatError(f"{manifest_path}: counts.{name} must be an integer >= 0, got {count!r}")
        digest = hashlib.sha256()
        with file.open("rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
        _check_sha256(file, digest, checksums.get(name))
        sources[name] = functools.partial(_decode_split, file, checksums.get(name), count, cfg)
    return Corpus(cfg, seed, build_latent_space(cfg, seed), sources)


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
) -> dict[int, np.ndarray]:
    """Synthetic text feature vectors describing each class, ``{class: (n_per_class, text_dim)}``.

    A prompt is the text projection of a latent drawn near the class (cluster
    center jitter for the mixture corpus; for ``sum_sign``, a Gaussian draw
    negated where its sign disagrees with the class, which the symmetric
    Gaussian leaves exact) plus text noise at ``noise_scale``. Each is drawn
    for all prompts at once.
    """
    cfg = corpus.config
    rng = rng if rng is not None else np.random.default_rng(0)
    scale = cfg.noise_scales[Modality.TEXT] if noise_scale is None else noise_scale
    proj = corpus.latent.projections[Modality.TEXT]
    labels = np.repeat(np.arange(cfg.n_classes), n_per_class)
    size = (len(labels), cfg.latent_dim)
    if cfg.label_rule == "sum_sign":
        latent = rng.normal(0.0, cfg.cluster_std, size=size)
        latent[(latent.sum(axis=1) > 0.0) != (labels == 1)] *= -1.0
    else:
        latent = corpus.latent.centers[labels] + rng.normal(0.0, cfg.cluster_std / 2.0, size=size)
    text = _project(latent, proj) + rng.normal(0.0, scale, size=(len(labels), len(proj)))
    return dict(enumerate(text.reshape(cfg.n_classes, n_per_class, len(proj))))

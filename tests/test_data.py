"""Corpus generation, batching, and serialization tests."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from probalign import data
from probalign.data import (
    Corpus,
    CorpusConfig,
    CorpusFormatError,
    Modality,
    SPLITS,
    TRAINABLE_PAIRS,
    Split,
    complementary_config,
    config_from_json,
    generate,
    make_pair_batches,
    read_corpus,
    synth_text_prompts,
    write_corpus,
)
from probalign.evaluation import auroc, logistic_probe, probe_scores

A, B, C, T = Modality.MOD_A, Modality.MOD_B, Modality.MOD_C, Modality.TEXT

SMALL = CorpusConfig(n_records=400, n_classes=3, latent_dim=8)

# A valid value for every CorpusConfig field, other than that of CorpusConfig(n_records=60, n_classes=2).
CHANGED_FIELDS = {
    "n_records": 61,
    "n_classes": 3,
    "latent_dim": 6,
    "cluster_std": 1.0,
    "view_dims": {A: 10, B: 40, C: 56, T: 24},
    "noise_scales": {A: 0.3, B: 0.3, C: 0.3, T: 0.5},
    "n_text_variants": 4,
    "pair_probs": {(A, T): 1.0},
    "split_fractions": (0.6, 0.2, 0.2),
    "label_rule": "sum_sign",
}

# The projection seeds every manifest carried before they became data.PROJECTION_SEEDS.
DEFAULT_PROJECTION_SEEDS = {"mod_a": 101, "mod_b": 102, "mod_c": 103, "text": 104}


@pytest.fixture(scope="module")
def corpus():
    return generate(SMALL, seed=11)


def finite_rows(split, *modalities):
    """Rows whose view of every given modality is finite; text is no view."""
    keep = np.ones(len(split), dtype=bool)
    for m in modalities:
        keep &= m is not T and np.isfinite(split.views[m]).all(axis=1)
    return np.flatnonzero(keep).tolist()


def split_columns(root, split):
    """Writable copies of a split file's columns, in ``Split._columns()`` order."""
    manifest = json.loads((root / "manifest.json").read_text())
    n, raw, columns, offset = manifest["counts"][split], (root / f"{split}.bin").read_bytes(), [], 0
    for dtype, shape in data._file_layout(config_from_json(manifest["config"])):
        columns.append(np.frombuffer(raw, dtype, n * math.prod(shape), offset).reshape(n, *shape).copy())
        offset += columns[-1].nbytes
    return columns


def rewrite_split(root, split, body):
    """Replace a split file's bytes and update its manifest checksum to match."""
    (root / f"{split}.bin").write_bytes(body)
    manifest = json.loads((root / "manifest.json").read_text())
    manifest["checksums"][split] = hashlib.sha256(body).hexdigest()
    (root / "manifest.json").write_text(json.dumps(manifest))


def joined(columns):
    return b"".join(column.tobytes() for column in columns)


def set_cell(column, row, value):
    """An edit of a split file's columns (``split_columns``) that sets the first
    cell of a row of one column; ``row`` is an index or a function of the split."""

    def edit(columns, split):
        at = row(split) if callable(row) else row
        columns[column][at : at + 1].flat[0] = value
        return joined(columns)

    return edit


def corpus_and_probe_digests() -> tuple[str, str]:
    """sha256 of every column of ``generate(CorpusConfig(), 7)`` and of its
    prompts, and of one BLAS matrix-vector product, which tells BLAS kernels apart."""
    corpus, digest = generate(CorpusConfig(), 7), hashlib.sha256()
    for split in corpus.splits.values():
        for column in split._columns():
            digest.update(np.ascontiguousarray(column))
    prompts = synth_text_prompts(corpus, 6, rng=np.random.default_rng(0))
    for label in sorted(prompts):
        digest.update(prompts[label])
    return digest.hexdigest(), blas_probe(corpus)


def blas_probe(corpus) -> str:
    """sha256 of one BLAS matrix-vector product over ``corpus``, which tells BLAS kernels apart."""
    return hashlib.sha256(corpus.latent.projections[A] @ corpus.train.concept[0]).hexdigest()


def under_prescott(statement: str) -> str:
    """stdout of ``statement`` run by a child Python under OPENBLAS_CORETYPE=Prescott,
    with src/ and tests/ importable. The variable picks the kernel of an OpenBLAS built
    with DYNAMIC_ARCH, as numpy's wheels are, and acts only on the child process."""
    src, tests = Path(data.__file__).resolve().parents[1], Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(src), str(tests), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", statement],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": "Prescott"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def first_row(modality, called_for):
    return lambda split: int(np.flatnonzero(split.calls_for(modality) == called_for)[0])


# Edits of a split file that keep it matching a rewritten manifest checksum,
# each with (part of) the error its first use raises. An edit takes the file's
# columns, 0 record_ids, 1 labels, 2 concept, 3-5 mod_a to mod_c, 6 text and
# 7 pairs, and the split, and returns the new file.
BAD_SPLIT_FILES = {
    "truncated": (lambda columns, split: joined(columns)[:-1], "bytes, the file holds"),
    "extended": (lambda columns, split: joined(columns) + bytes(8), "bytes, the file holds"),
    "pairs_byte": (set_cell(7, 3, 2), "row 3: a pairs byte is not 0 or 1"),
    "label_negative": (set_cell(1, 3, -1), "row 3: label outside [0, 3)"),
    "label_too_large": (set_cell(1, 3, 3), "row 3: label outside [0, 3)"),
    "inf_concept": (set_cell(2, 3, np.inf), "row 3: NaN or inf in concept, which the row's pairs call for"),
    "nan_available": (
        set_cell(3, first_row(A, True), np.nan),
        "NaN or inf in mod_a, which the row's pairs call for",
    ),
    "value_unavailable": (
        set_cell(5, first_row(C, False), 0.0),
        "mod_c is not NaN, but the row's pairs do not call for it",
    ),
}


class TestConfig:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            CorpusConfig(split_fractions=(0.5, 0.2, 0.2))

    def test_noise_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            CorpusConfig(noise_scales={m: 0.0 for m in Modality})

    def test_needs_two_text_variants(self):
        with pytest.raises(ValueError, match="n_text_variants must be >= 2, got 1"):
            CorpusConfig(n_text_variants=1)

    def test_fractions_must_not_be_negative(self):
        with pytest.raises(ValueError, match=r">= 0 and sum to 1"):
            CorpusConfig(split_fractions=(1.2, -0.1, -0.1))

    @pytest.mark.parametrize(
        "pair,names",
        [((A, C), "mod_a\\+mod_c"), ((B, C), "mod_b\\+mod_c"), ((T, A), "text\\+mod_a")],
        ids=["holdout", "other-holdout", "reversed"],
    )
    def test_pair_probs_name_only_trainable_pairs(self, pair, names):
        with pytest.raises(ValueError, match=f"only trainable pairs, not {names}"):
            CorpusConfig(pair_probs={(A, T): 0.9, pair: 0.5})

    @pytest.mark.parametrize("prob", [-0.1, 1.5, float("nan")])
    def test_pair_probabilities_lie_in_unit_interval(self, prob):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            CorpusConfig(pair_probs={(A, T): 0.9, (B, T): prob})

    @pytest.mark.parametrize("pair_probs", [{}, {(A, T): 0.0, (A, B): 0.0}], ids=["empty", "all-zero"])
    def test_some_pair_needs_a_positive_probability(self, pair_probs):
        with pytest.raises(ValueError, match="positive probability"):
            CorpusConfig(pair_probs=pair_probs)

    def test_label_rule_must_be_known(self):
        with pytest.raises(ValueError, match="label_rule must be 'cluster' or 'sum_sign', not 'sign'"):
            CorpusConfig(label_rule="sign")

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"n_classes": 3}, "n_classes 2"),
            ({"latent_dim": 1}, "latent_dim >= 2"),
            ({"cluster_std": 0.0}, "label_rule 'sum_sign' needs cluster_std > 0, got 0.0"),
        ],
        ids=["three-classes", "one-factor", "no-spread"],
    )
    def test_invalid_sum_sign_config_rejected(self, change, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(complementary_config(10), **change)

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"n_records": -5}, "n_records must be >= 0, got -5"),
            ({"n_classes": 0}, "n_classes must be >= 1, got 0"),
            ({"latent_dim": 0}, "latent_dim must be >= 1, got 0"),
            ({"view_dims": {A: 48, B: 0, C: 56, T: -1}}, "view dims must be >= 1, got mod_b 0, text -1"),
        ],
        ids=["negative-records", "no-classes", "no-latent", "empty-views"],
    )
    def test_sizes_gen_cannot_use_rejected(self, change, message):
        with pytest.raises(ValueError, match=message):
            CorpusConfig(**change)

    def test_zero_records_stay_valid(self):
        corpus = generate(CorpusConfig(n_records=0), seed=1)
        assert len(corpus.train) == len(corpus.valid) == len(corpus.test) == 0

    def test_from_json_fills_defaults(self):
        assert config_from_json({}) == CorpusConfig()
        dims = {"mod_a": 5, "mod_b": 6, "mod_c": 7, "text": 8}
        assert config_from_json({"n_records": 7, "view_dims": dims}).view_dims == {A: 5, B: 6, C: 7, T: 8}

    @pytest.mark.parametrize(
        "key,value",
        [("view_dims", {"mod_a": 5}), ("noise_scales", {"mod_a": 0.2})],
    )
    def test_partial_modality_map_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must name every modality; missing mod_b, mod_c, text"):
            config_from_json({"n_records": 30, key: value})

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="n_record, noise"):
            config_from_json({"n_record": 100, "noise": 0.1, "n_classes": 3})

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(CorpusConfig)])
    def test_every_field_changes_the_corpus(self, name):
        # A setting that generation never reads is inert: this fails on it, and on a
        # field missing from CHANGED_FIELDS.
        base = CorpusConfig(n_records=60, n_classes=2)
        a = generate(base, seed=3)
        b = generate(dataclasses.replace(base, **{name: CHANGED_FIELDS[name]}), seed=3)
        x, y = a.latent, b.latent
        same_latent = (
            np.array_equal(x.centers, y.centers)
            and np.array_equal(x.variant_offsets, y.variant_offsets)
            and all(np.array_equal(x.projections[m], y.projections[m]) for m in Modality)
        )
        assert not (a.splits == b.splits and same_latent)


class TestGenerate:
    def test_deterministic(self, corpus):
        again = generate(SMALL, seed=11)
        assert corpus == again

    def test_seed_changes_content(self, corpus):
        other = generate(SMALL, seed=12)
        assert corpus != other

    def test_record_disjoint_splits(self, corpus):
        ids = [set(split.record_ids.tolist()) for split in corpus.splits.values()]
        assert ids[0] | ids[1] | ids[2] == set(range(SMALL.n_records))
        assert not (ids[0] & ids[1] or ids[0] & ids[2] or ids[1] & ids[2])

    def test_every_pair_modality_has_a_view(self, corpus):
        # A row's view (or text) is finite when one of its pairs names the modality, NaN otherwise.
        for split in corpus.splits.values():
            for m in Modality:
                has = split.pairs[:, [m in pair for pair in TRAINABLE_PAIRS]].any(axis=1)
                column = (split.text if m is T else split.views[m]).reshape(len(split), -1)
                assert np.isfinite(column[has]).all() and np.isnan(column[~has]).all()

    def test_holdout_pair_never_available(self, corpus):
        assert (A, C) not in TRAINABLE_PAIRS and (B, C) not in TRAINABLE_PAIRS
        for split in corpus.splits.values():
            assert split.pairs.shape == (len(split), len(TRAINABLE_PAIRS)) and split.pairs.any(axis=1).all()

    def test_view_dimensions(self, corpus):
        n = len(corpus.train)
        assert corpus.train.concept.shape == (n, SMALL.latent_dim)
        for m, v in corpus.train.views.items():
            assert v.shape == (n, SMALL.view_dims[m])
        assert corpus.train.text.shape == (n, SMALL.n_text_variants, SMALL.view_dims[T])

    def test_class_balance(self):
        cfg = CorpusConfig(n_records=5000, n_classes=5)
        big = generate(cfg, seed=3)
        labels = np.concatenate([split.labels for split in big.splits.values()])
        hist = np.bincount(labels, minlength=5) / len(labels)
        assert np.abs(hist - 0.2).max() < 0.02  # < 10% of the 0.2 weight

    def test_text_variants_differ_by_offsets_at_tiny_noise(self):
        cfg = CorpusConfig(
            n_records=20, n_classes=2, latent_dim=4, noise_scales={m: 1e-12 for m in Modality}
        )
        tiny = generate(cfg, seed=0)
        text = np.concatenate([s.text for s in tiny.splits.values()])
        text = text[np.isfinite(text).all(axis=(1, 2))] - tiny.latent.variant_offsets
        assert len(text) > 0
        np.testing.assert_allclose(text, np.broadcast_to(text[:, :1], text.shape), atol=1e-9)

    def test_latent_classes_linearly_separable(self):
        cfg = CorpusConfig(n_records=2000, n_classes=5)
        big = generate(cfg, seed=5)
        records = big.train
        x, y = records.concept, records.labels
        w = logistic_probe(x, y, 5)
        scores = probe_scores(w, x)
        aurocs = [auroc(scores[:, c], (y == c).astype(int)) for c in range(5)]
        assert min(aurocs) > 0.95


class TestBatching:
    def test_full_availability_single_batch(self, corpus):
        pool = corpus.train.pair_rows((A, T))
        stream = make_pair_batches(corpus.train, (A, T), len(pool), np.random.default_rng(0))
        batch = next(stream)
        assert sorted(batch.record_ids) == sorted(corpus.train.record_ids[pool].tolist())

    def test_batch_records_have_requested_pair(self, corpus):
        stream = make_pair_batches(corpus.train, (A, B), 16, np.random.default_rng(1))
        row_of = {rid: row for row, rid in enumerate(corpus.train.record_ids.tolist())}
        for _ in range(5):
            batch = next(stream)
            assert len(set(batch.record_ids)) == 16
            rows = [row_of[rid] for rid in batch.record_ids]
            assert corpus.train.pairs[rows, TRAINABLE_PAIRS.index((A, B))].all()

    def test_text_variant_choice_varies_with_rng(self, corpus):
        pool = corpus.train[corpus.train.pair_rows((A, T))[:16]]
        ids = pool.record_ids.tolist()
        s1 = make_pair_batches(pool, (A, T), 16, np.random.default_rng(2))
        s2 = make_pair_batches(pool, (A, T), 16, np.random.default_rng(3))
        b1, b2 = next(s1), next(s2)
        align1 = {rid: row for rid, row in zip(b1.record_ids, b1.x_second)}
        align2 = {rid: row for rid, row in zip(b2.record_ids, b2.x_second)}
        assert any(not np.array_equal(align1[i], align2[i]) for i in ids)

    def test_insufficient_records_rejected(self, corpus):
        with pytest.raises(ValueError, match="only"):
            make_pair_batches(corpus.train[:3], (A, T), 100, np.random.default_rng(0))

    def test_holdout_pair_rejected_by_batcher(self, corpus):
        with pytest.raises(ValueError, match="not trainable"):
            next(make_pair_batches(corpus.train, (A, C), 4, np.random.default_rng(0)))

    def test_batch_feature_sides_match_pair(self, corpus):
        stream = make_pair_batches(corpus.train, (B, T), 8, np.random.default_rng(4))
        batch = next(stream)
        assert batch.x_first.shape == (8, SMALL.view_dims[B])
        assert batch.x_second.shape == (8, SMALL.view_dims[T])


class TestSerialization:
    def test_round_trip_exact(self, corpus, tmp_path):
        write_corpus(corpus, tmp_path / "corpus")
        again = read_corpus(tmp_path / "corpus")
        assert corpus == again

    def test_round_trip_bytes_identical(self, corpus, tmp_path):
        write_corpus(corpus, tmp_path / "c1")
        again = read_corpus(tmp_path / "c1")
        write_corpus(again, tmp_path / "c2")
        for name in ("manifest.json", "train.bin", "valid.bin", "test.bin"):
            assert (tmp_path / "c1" / name).read_bytes() == (tmp_path / "c2" / name).read_bytes()

    @pytest.mark.parametrize(
        "cfg",
        [CorpusConfig(), complementary_config(200), CorpusConfig(n_records=0)],
        ids=["default", "complementary", "empty"],
    )
    def test_round_trip_is_bit_exact(self, tmp_path, cfg):
        # Every column of every split comes back with its dtype, shape and bytes,
        # NaN cells included; the complementary corpus has no mod_c view at all.
        write_corpus(generate(cfg, seed=5), tmp_path / "c")
        again, fresh = read_corpus(tmp_path / "c"), generate(cfg, seed=5)
        assert again == fresh
        for name in SPLITS:
            for got, want in zip(again.split(name)._columns(), fresh.split(name)._columns()):
                assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_empty_corpus_round_trips(self, tmp_path):
        cfg = CorpusConfig(n_records=0, n_classes=2)
        empty = generate(cfg, seed=0)
        write_corpus(empty, tmp_path / "empty")
        again = read_corpus(tmp_path / "empty")
        assert empty == again
        assert all(len(s) == 0 for s in again.splits.values())

    def test_single_record_round_trips(self, tmp_path):
        cfg = CorpusConfig(n_records=1, n_classes=2, split_fractions=(1.0, 0.0, 0.0))
        one = generate(cfg, seed=1)
        write_corpus(one, tmp_path / "one")
        assert read_corpus(tmp_path / "one") == one

    def test_split_counts_preserved(self, tmp_path):
        cfg = CorpusConfig(n_records=1000, n_classes=4)
        corpus = generate(cfg, seed=2)
        manifest = write_corpus(corpus, tmp_path / "k")
        again = read_corpus(tmp_path / "k")
        assert manifest["counts"] == {s: len(r) for s, r in again.splits.items()}
        assert manifest["counts"] == {"train": 800, "valid": 100, "test": 100}

    @pytest.mark.parametrize("edit,message", BAD_SPLIT_FILES.values(), ids=BAD_SPLIT_FILES.keys())
    def test_bad_split_file_names_the_file(self, corpus, tmp_path, edit, message):
        write_corpus(corpus, tmp_path / "bad")
        rewrite_split(tmp_path / "bad", "test", edit(split_columns(tmp_path / "bad", "test"), corpus.test))
        again = read_corpus(tmp_path / "bad")
        with pytest.raises(CorpusFormatError, match=re.escape(f"{tmp_path / 'bad' / 'test.bin'}")) as exc:
            again.test
        assert message in str(exc.value)

    def test_partial_read_parses_only_the_asked_splits(self, corpus, tmp_path, monkeypatch):
        # read_corpus parses no split; each split is parsed when first used.
        write_corpus(corpus, tmp_path / "part")
        parsed = []
        real_decode_split = data._decode_split

        def spy(path, *rest):
            parsed.append(path.name)
            return real_decode_split(path, *rest)

        monkeypatch.setattr(data, "_decode_split", spy)
        part = read_corpus(tmp_path / "part")
        assert parsed == []
        assert part.valid == corpus.valid and part.test == corpus.test
        assert part.config == corpus.config and part.seed == corpus.seed
        assert parsed == ["valid.bin", "test.bin"]

    @pytest.mark.parametrize(
        "use",
        [
            lambda s: s.labels.tolist(),
            len,
            bool,
            lambda s: s[[0, 2]],
            lambda s: s == s[:],
            lambda s: s.pair_rows((A, T)).tolist(),
        ],
        ids=["column", "len", "bool", "index", "equals", "rows"],
    )
    def test_sequence_use_decodes_the_split_once(self, corpus, tmp_path, monkeypatch, use):
        write_corpus(corpus, tmp_path / "part")
        decoded = []
        real_decode_split = data._decode_split

        def spy(*args):
            decoded.append(real_decode_split(*args))
            return decoded[-1]

        monkeypatch.setattr(data, "_decode_split", spy)
        part = read_corpus(tmp_path / "part")
        assert use(part.train) == use(corpus.train)
        assert len(decoded) == 1
        assert sorted(decoded[0].record_ids.tolist()) == sorted(corpus.train.record_ids.tolist())
        assert part.train == corpus.train and part.train[[0, 1]] == corpus.train[:2]

    def test_unread_split_still_checked_against_manifest(self, corpus, tmp_path):
        # A split file rewritten after read_corpus returned fails when first used,
        # although it keeps its size and a valid label in the cell changed.
        write_corpus(corpus, tmp_path / "late")
        again = read_corpus(tmp_path / "late")
        columns = split_columns(tmp_path / "late", "train")
        columns[1][0] = (columns[1][0] + 1) % SMALL.n_classes
        (tmp_path / "late" / "train.bin").write_bytes(joined(columns))
        assert again.test == corpus.test
        with pytest.raises(CorpusFormatError, match="train.bin: sha256 does not match"):
            len(again.train)

    def test_flipped_byte_fails_checksum(self, corpus, tmp_path):
        write_corpus(corpus, tmp_path / "flip")
        path = tmp_path / "flip" / "train.bin"
        body = bytearray(path.read_bytes())
        body[len(body) // 2] ^= 0x01
        path.write_bytes(bytes(body))
        with pytest.raises(CorpusFormatError, match="train.bin: sha256 does not match"):
            read_corpus(tmp_path / "flip")

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda m: m.update(format="probalign-corpus-v1"), "regenerate the corpus with `probalign gen`"),
            (lambda m: m.update(format="probalign-corpus-v2"), "regenerate the corpus with `probalign gen`"),
            (lambda m: m.pop("format"), "format None"),
            (lambda m: m["config"].update(n_record=5), "bad corpus config: unknown corpus key"),
            (
                lambda m: m["config"].update(projection_seeds={**DEFAULT_PROJECTION_SEEDS, "mod_b": 7}),
                re.escape("bad corpus config: unknown corpus key(s): projection_seeds"),
            ),
        ],
        ids=["v1_format", "v2_format", "no_format", "unknown_config_key", "other_projection_seeds"],
    )
    def test_stale_or_bad_manifest_rejected(self, corpus, tmp_path, edit, message):
        write_corpus(corpus, tmp_path / "stale")
        path = tmp_path / "stale" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(CorpusFormatError, match=message):
            read_corpus(tmp_path / "stale")

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda m: {k: v for k, v in m.items() if k != "seed"}, "seed must be an integer >= 0, got None"),
            (lambda m: {**m, "seed": "x"}, "seed must be an integer >= 0, got 'x'"),
            (lambda m: {**m, "seed": True}, "seed must be an integer >= 0, got True"),
            (lambda m: {**m, "checksums": [1]}, "checksums must be a JSON object, got list"),
            (lambda m: [m], "must be a JSON object, got list"),
            (lambda m: b"{", "is not valid JSON: Expecting property name"),
            (lambda m: b"\xff{}", "is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["no_seed", "string_seed", "bool_seed", "list_checksums", "list_manifest", "unparseable", "not_utf8"],
    )
    def test_malformed_manifest_names_the_file(self, corpus, tmp_path, edit, message):
        # An edit returns the manifest's new document, or bytes written as they are.
        write_corpus(corpus, tmp_path / "m")
        path = tmp_path / "m" / "manifest.json"
        edited = edit(json.loads(path.read_text()))
        path.write_bytes(edited if isinstance(edited, bytes) else json.dumps(edited).encode())
        with pytest.raises(CorpusFormatError, match=f"manifest.json.*{re.escape(message)}"):
            read_corpus(tmp_path / "m")

    def test_floats_blob_layout(self, corpus, tmp_path):
        # A split file is its columns back to back, little-endian, with NaN in
        # each cell the record's pairs do not call for, and nothing else.
        manifest = write_corpus(corpus, tmp_path / "layout")
        body = (tmp_path / "layout" / "train.bin").read_bytes()
        split = corpus.train
        views = [split.views[m] for m in (A, B, C)]
        columns = [split.record_ids, split.labels, split.concept, *views, split.text]
        expected = b"".join(np.asarray(c, dtype="<f8" if c.dtype.kind == "f" else "<i8").tobytes() for c in columns)
        assert body == expected + split.pairs.astype("u1").tobytes()
        assert manifest["checksums"]["train"] == hashlib.sha256(body).hexdigest()
        row_floats = SMALL.latent_dim + sum(SMALL.view_dims[m] for m in (A, B, C))
        row_floats += SMALL.n_text_variants * SMALL.view_dims[T]
        assert len(body) == len(split) * (8 + 8 + 8 * row_floats + len(TRAINABLE_PAIRS))
        assert np.isnan(split.views[C][~split.calls_for(C)]).all()

    def test_read_arrays_are_writable_float64(self, corpus, tmp_path):
        write_corpus(corpus, tmp_path / "w")
        again = read_corpus(tmp_path / "w")
        split = again.train
        for a in [split.concept, *split.views.values(), split.text]:
            assert a.dtype == np.float64 and a.flags.writeable
        split.concept[0] = 0.0
        split.text[0, -1] = 0.0
        assert split[:1] != corpus.train[:1] and split[1:] == corpus.train[1:]

    def test_record_not_matching_its_pairs_is_not_written(self, corpus, tmp_path):
        bad = generate(SMALL, seed=11)
        row = bad.train.rows_with_views(A)[0]
        bad.train.views[A][row] = np.nan  # how a split marks a view its record lacks
        with pytest.raises(ValueError, match=f"record {bad.train.record_ids[row]} has NaN"):
            write_corpus(bad, tmp_path / "nope")

    def test_cell_its_pairs_do_not_call_for_is_written_as_nan(self, corpus, tmp_path):
        edited = generate(SMALL, seed=11)
        row = first_row(C, False)(edited.train)
        edited.train.views[C][row] = 1.0
        write_corpus(edited, tmp_path / "w")
        assert read_corpus(tmp_path / "w") == corpus

    def test_default_split_files_match_pinned_sha256(self, tmp_path):
        # Taken from the first writer whose corpus no BLAS kernel takes part in;
        # the default (cluster) corpus must stay byte-identical on every machine.
        write_corpus(generate(CorpusConfig(n_records=200), seed=3), tmp_path / "pin")
        digests = {s: hashlib.sha256((tmp_path / "pin" / f"{s}.bin").read_bytes()).hexdigest() for s in SPLITS}
        assert digests == {
            "train": "fa364842a0f79396d15ef5a27029472d992294741bc4793d7fb86bf664182ae1",
            "valid": "5571d374bc6916256c1922dd0aebb1de2b8cb74f0f9b1aae147987d39605efa7",
            "test": "0808203bed724c9525142e3c2169168becc3aa4893a7c25aeb2663271cf3d199",
        }

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "nothing").mkdir()
        with pytest.raises(CorpusFormatError, match="manifest"):
            read_corpus(tmp_path / "nothing")


class TestNoBlas:
    """Generation calls no BLAS routine, so its bits do not depend on the kernel."""

    @pytest.mark.parametrize("n,k,dim", [(0, 3, 4), (7, 1, 5), (200, 16, 48)])
    def test_project_matches_the_matrix_product(self, n, k, dim):
        rng = np.random.default_rng(n)
        latent, proj = rng.normal(size=(n, k)), rng.normal(size=(dim, k))
        np.testing.assert_allclose(data._project(latent, proj), latent @ proj.T, rtol=1e-12, atol=1e-13)

    def test_corpus_and_prompts_do_not_depend_on_the_blas_kernel(self):
        child_corpus, child_probe = under_prescott(
            "import test_data; print(*test_data.corpus_and_probe_digests())"
        ).split()
        here_corpus, here_probe = corpus_and_probe_digests()
        if child_probe == here_probe:
            pytest.skip("OPENBLAS_CORETYPE=Prescott did not change the BLAS kernel's rounding")
        assert child_corpus == here_corpus


class TestSplitIndex:
    """A split's row selectors and its decode on first use."""

    def test_rows_equal_the_full_read(self, corpus, tmp_path):
        write_corpus(corpus, tmp_path / "ix")
        part = read_corpus(tmp_path / "ix")
        assert isinstance(part.train, Split)
        assert part.train.labels.tolist() == corpus.train.labels.tolist()
        rows = [5, 0, 17, 5, len(corpus.train) - 1]
        for got, full in zip(part.train[rows]._columns(), corpus.train._columns()):
            np.testing.assert_array_equal(got, np.stack([full[i] for i in rows]))
        assert part.train[np.arange(len(corpus.train))] == corpus.train
        assert len(part.train) == len(corpus.train)
        assert part.train.rows_with_views(A, B).tolist() == finite_rows(corpus.train, A, B)

    @pytest.mark.parametrize("row", [0, np.int64(0)], ids=["int", "numpy-int"])
    def test_int_index_and_iteration_rejected(self, corpus, row):
        # Rows are selected by index arrays; a split has no per-record view.
        with pytest.raises(TypeError, match="not an int"):
            corpus.train[row]
        with pytest.raises(TypeError, match="not an int"):
            list(corpus.train)

    @pytest.mark.parametrize("modalities", [(A,), (B,), (C,), (A, B), (T,)], ids=["a", "b", "c", "a+b", "text"])
    def test_rows_with_views(self, corpus, tmp_path, modalities):
        write_corpus(corpus, tmp_path / "ix")
        index = read_corpus(tmp_path / "ix").valid
        assert index.rows_with_views(*modalities).tolist() == finite_rows(corpus.valid, *modalities)

    def test_indexed_split_of_empty_corpus(self, tmp_path):
        write_corpus(generate(CorpusConfig(n_records=0), seed=1), tmp_path / "empty")
        index = read_corpus(tmp_path / "empty").train
        assert len(index) == 0 and index.labels.tolist() == [] and index.rows_with_views(A).tolist() == []

    @pytest.mark.parametrize("bad", ["nan_available", "truncated"])
    def test_bad_split_fails_when_first_used(self, corpus, tmp_path, bad):
        edit, message = BAD_SPLIT_FILES[bad]
        write_corpus(corpus, tmp_path / "bad")
        rewrite_split(tmp_path / "bad", "train", edit(split_columns(tmp_path / "bad", "train"), corpus.train))
        # The corpus reads and its other splits decode; the bad split fails when first used.
        again = read_corpus(tmp_path / "bad")
        assert again.valid == corpus.valid and again.test == corpus.test
        with pytest.raises(CorpusFormatError, match=f"train.bin.*{re.escape(message)}"):
            again.train

    def test_malformed_structure_fails_at_index_time(self, corpus, tmp_path):
        write_corpus(corpus, tmp_path / "bad")
        columns = split_columns(tmp_path / "bad", "train")
        columns[-1][4, 1] = 255
        rewrite_split(tmp_path / "bad", "train", joined(columns))
        again = read_corpus(tmp_path / "bad")
        with pytest.raises(CorpusFormatError, match="train.bin row 4: a pairs byte is not 0 or 1"):
            again.train.labels

    def test_indexed_split_still_checked_against_manifest(self, corpus, tmp_path):
        write_corpus(corpus, tmp_path / "flip")
        again = read_corpus(tmp_path / "flip")
        path = tmp_path / "flip" / "train.bin"
        body = bytearray(path.read_bytes())
        body[len(body) // 2] ^= 0x01
        path.write_bytes(bytes(body))
        with pytest.raises(CorpusFormatError, match="train.bin: sha256 does not match"):
            again.train.rows_with_views(A)

    @pytest.mark.parametrize("change", [1, -1], ids=["more", "fewer"])
    def test_record_count_checked_against_manifest(self, corpus, tmp_path, change):
        # A copied manifest whose train count is edited: the file's sha256 still matches.
        write_corpus(corpus, tmp_path / "c")
        path = tmp_path / "c" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["counts"]["train"] += change
        path.write_text(json.dumps(manifest))
        again = read_corpus(tmp_path / "c")
        assert again.valid == corpus.valid
        found, row_bytes = len(corpus.train), (tmp_path / "c" / "train.bin").stat().st_size // len(corpus.train)
        message = f"train.bin: manifest.json counts {found + change} records of {row_bytes} bytes, "
        message += f"the file holds {found * row_bytes} bytes"
        with pytest.raises(CorpusFormatError, match=message):
            again.train

    def test_count_the_file_cannot_hold_allocates_no_columns_for_it(self, corpus, tmp_path):
        # The file's size is checked against the count before any column is allocated.
        write_corpus(corpus, tmp_path / "c")
        path = tmp_path / "c" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["counts"]["train"] = 10**15
        path.write_text(json.dumps(manifest))
        again = read_corpus(tmp_path / "c")
        with pytest.raises(CorpusFormatError, match=f"counts {10**15} records of \\d+ bytes, the file holds"):
            again.train

    @pytest.mark.parametrize("counts", [None, {"train": "5"}, {"train": -1, "valid": 1, "test": 1}])
    def test_counts_must_be_integers(self, corpus, tmp_path, counts):
        write_corpus(corpus, tmp_path / "c")
        path = tmp_path / "c" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["counts"] = counts
        path.write_text(json.dumps(manifest))
        with pytest.raises(CorpusFormatError, match="counts.train must be an integer >= 0"):
            read_corpus(tmp_path / "c")

    def test_decode_peak_memory_near_the_columns(self, tmp_path):
        # Decoding reads the file straight into its columns: its tracemalloc
        # peak stays near the columns it returns.
        write_corpus(generate(CorpusConfig(n_records=2000), seed=4), tmp_path / "big")
        again = read_corpus(tmp_path / "big")
        tracemalloc.start()
        try:
            split = again.train
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = sum(column.nbytes for column in split._columns())
        assert len(split) == 1600 and peak < 1.5 * nbytes, (peak, nbytes)


class TestComplementaryCorpus:
    def test_modalities_see_disjoint_factors(self):
        comp = generate(complementary_config(200), seed=4)
        pa = comp.latent.projections[A]
        pb = comp.latent.projections[B]
        assert np.all(pa[:, 1] == 0.0) and np.any(pa[:, 0] != 0.0)
        assert np.all(pb[:, 0] == 0.0) and np.any(pb[:, 1] != 0.0)

    def test_label_is_sign_of_factor_sum(self):
        comp = generate(complementary_config(200), seed=4)
        labels, concept, pairs = (
            np.concatenate([getattr(split, name) for split in comp.splits.values()])
            for name in ("labels", "concept", "pairs")
        )
        assert len(labels) == 200
        assert labels.tolist() == [int(c.sum() > 0) for c in concept]
        assert pairs.tolist() == [[p in ((A, T), (B, T), (A, B)) for p in TRAINABLE_PAIRS]] * 200
        assert set(labels.tolist()) == {0, 1}

    def test_views_follow_the_masked_projections(self):
        # At negligible noise each view is its projection of one factor of the concept.
        cfg = dataclasses.replace(complementary_config(20), noise_scales={m: 1e-12 for m in Modality})
        comp = generate(cfg, seed=4)
        split = comp.train
        u_only, v_only = split.concept * [1.0, 0.0], split.concept * [0.0, 1.0]
        np.testing.assert_allclose(split.views[A], u_only @ comp.latent.projections[A].T, atol=1e-9)
        np.testing.assert_allclose(split.views[B], v_only @ comp.latent.projections[B].T, atol=1e-9)

    def test_round_trips_with_label_rule(self, tmp_path):
        comp = generate(complementary_config(100), seed=5)
        write_corpus(comp, tmp_path / "comp")
        again = read_corpus(tmp_path / "comp")
        assert again.config.label_rule == "sum_sign"
        assert again == comp
        assert np.all(again.latent.projections[A][:, 1] == 0.0)

    @pytest.mark.parametrize("n_records", [0, 1])
    def test_tiny_corpus_round_trips_with_label_rule(self, tmp_path, n_records):
        cfg = dataclasses.replace(complementary_config(n_records), split_fractions=(0.0, 0.0, 1.0))
        comp = generate(cfg, seed=5)
        write_corpus(comp, tmp_path / "tiny")
        again = read_corpus(tmp_path / "tiny")
        assert again == comp and len(again.test) == n_records

    @pytest.mark.parametrize("n_records", [0, 1, 100])
    def test_round_trip_at_default_splits(self, tmp_path, n_records):
        comp = generate(complementary_config(n_records), seed=8)
        manifest = write_corpus(comp, tmp_path / "c")
        assert manifest["config"]["label_rule"] == "sum_sign" and "label_rule" not in manifest
        again = read_corpus(tmp_path / "c")
        assert again == comp and sum(manifest["counts"].values()) == n_records
        for modality, proj in comp.latent.projections.items():
            np.testing.assert_array_equal(again.latent.projections[modality], proj)


class TestPrompts:
    def test_cluster_prompts_near_class_centers(self, corpus):
        prompts = synth_text_prompts(corpus, 8, rng=np.random.default_rng(0))
        proj = corpus.latent.projections[T]
        for label, rows in prompts.items():
            center_text = proj @ corpus.latent.centers[label]
            mean_prompt = np.mean(rows, axis=0)
            others = [
                np.linalg.norm(np.mean(prompts[o], axis=0) - center_text)
                for o in prompts
                if o != label
            ]
            assert np.linalg.norm(mean_prompt - center_text) < min(others)

    def test_deterministic_given_rng(self, corpus):
        p1 = synth_text_prompts(corpus, 3, rng=np.random.default_rng(7))
        p2 = synth_text_prompts(corpus, 3, rng=np.random.default_rng(7))
        for label in p1:
            for a, b in zip(p1[label], p2[label]):
                np.testing.assert_array_equal(a, b)

    def test_complementary_prompts_respect_label_rule(self):
        comp = generate(complementary_config(100), seed=6)
        prompts = synth_text_prompts(comp, 4, rng=np.random.default_rng(1))
        assert set(prompts) == {0, 1}

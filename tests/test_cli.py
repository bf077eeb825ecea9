"""End-to-end command tests: exit codes, artifacts, determinism, oracles."""

import base64
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from probalign import cli, data, evaluation
from probalign.cli import ConfigError, main, train_config_from_doc
from probalign.encoders import AlignmentModel, Modality, load_checkpoint
from probalign.evaluation import EvalReport, few_shot, macro_ovr_auroc, multimodal_classify
from probalign.gaussians import SimilarityKind
from probalign.training import TrainConfig
from probalign.verification import run_oracle_suite

import zero_shot_lists


def read_every_split(path):
    """``read_corpus`` with every split decoded before the caller sees it."""
    corpus = data.read_corpus(path)
    for records in corpus.splits.values():
        len(records)
    return corpus


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("cfg")
    doc = {
        "seed": 3,
        "corpus": {"n_records": 500, "n_classes": 3, "latent_dim": 8},
        "train": {
            "total_steps": 20,
            "batch_size": 16,
            "hidden_dim": 16,
            "embed_dim": 8,
            "eval_every": 10,
        },
    }
    path = root / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def corpus_dir(config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus") / "c"
    assert main(["gen", "--config", str(config_path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(config_path, corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "t"
    code = main(
        ["train", "--config", str(config_path), "--corpus", str(corpus_dir), "--out", str(out)]
    )
    assert code == 0
    return out


class TestGen:
    def test_missing_config_exits_1_naming_path(self, capsys, tmp_path):
        code = main(["gen", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "nope.json" in capsys.readouterr().err

    def test_writes_corpus_and_manifest(self, corpus_dir):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["counts"] == {"train": 400, "valid": 50, "test": 50}
        assert set(manifest["pair_counts"]) == {"train", "valid", "test"}
        assert (corpus_dir / "train.jsonl").exists()

    def test_rerun_is_bit_identical(self, config_path, corpus_dir, tmp_path):
        out2 = tmp_path / "again"
        assert main(["gen", "--config", str(config_path), "--out", str(out2)]) == 0
        for name in ("manifest.json", "train.jsonl", "valid.jsonl", "test.jsonl"):
            assert (corpus_dir / name).read_bytes() == (out2 / name).read_bytes()

    def test_invalid_corpus_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"corpus": {"split_fractions": [0.5, 0.1, 0.1]}}))
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "sum to 1" in capsys.readouterr().err

    def test_misspelt_corpus_key_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"corpus": {"n_record": 100}}))
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "unknown corpus key(s): n_record" in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()


    @pytest.mark.parametrize(
        "corpus,message",
        [
            ({"n_records": 20, "n_classes": 0}, "n_classes must be >= 1"),
            ({"n_records": -5}, "n_records must be >= 0"),
            ({"n_records": 20, "latent_dim": 0}, "latent_dim must be >= 1"),
            ({"n_records": 20, "view_dims": {"mod_a": 0}}, "view dims must be >= 1"),
            ({"n_records": 30, "view_dims": {"mod_a": 5}}, "view_dims must name every modality"),
            ({"n_records": 30, "noise_scales": {"text": 0.2}}, "noise_scales must name every modality"),
            ({"n_records": 30, "projection_seeds": {"mod_b": 1}}, "unknown corpus key(s): projection_seeds"),
            ({"n_records": 30, "holdout_pair": ["mod_b", "mod_c"]}, "unknown corpus key(s): holdout_pair"),
            ({"n_records": 30, "class_weights": [0.5, 0.5, 0, 0, 0]}, "unknown corpus key(s): class_weights"),
        ],
        ids=["no-classes", "negative-records", "no-latent", "empty-view", "partial-view-dims",
             "partial-noise-scales", "partial-projection-seeds", "retired-holdout-pair", "retired-class-weights"],
    )
    def test_unusable_sizes_exit_1_without_a_run_dir(self, tmp_path, capsys, corpus, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"corpus": corpus}))
        assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_without_a_trainable_pair_exits_1(self, tmp_path):
        # This config once made gen loop forever, so it runs in a child process with a timeout.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"corpus": {"n_records": 50, "pair_probs": [[["mod_a", "mod_c"], 0.5]]}}))
        src = str(Path(data.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "probalign.cli", "gen", "--config", str(bad), "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "only trainable pairs, not mod_a+mod_c" in proc.stderr
        assert not (tmp_path / "o").exists()


COMPLEMENTARY_DOC = {
    "seed": 4,
    "corpus": {
        "n_records": 300,
        "n_classes": 2,
        "latent_dim": 2,
        "cluster_std": 1.0,
        "view_dims": {"mod_a": 24, "mod_b": 24, "mod_c": 24, "text": 24},
        "noise_scales": {"mod_a": 0.2, "mod_b": 0.2, "mod_c": 0.2, "text": 0.2},
        "pair_probs": [
            [["mod_a", "text"], 1.0],
            [["mod_b", "text"], 1.0],
            [["mod_c", "text"], 0.0],
            [["mod_a", "mod_b"], 1.0],
        ],
        "label_rule": "sum_sign",
    },
    "train": {"total_steps": 20, "batch_size": 16, "hidden_dim": 16, "embed_dim": 8, "eval_every": 10},
}


class TestComplementaryPipeline:
    def test_gen_train_eval_multimodal(self, tmp_path):
        config = tmp_path / "comp.json"
        config.write_text(json.dumps(COMPLEMENTARY_DOC))
        corpus_dir, run_dir, report_dir = tmp_path / "corpus", tmp_path / "run", tmp_path / "report"
        assert main(["gen", "--config", str(config), "--out", str(corpus_dir)]) == 0
        cfg = data.config_from_json(COMPLEMENTARY_DOC["corpus"])
        assert cfg == data.complementary_config(300)
        assert data.read_corpus(corpus_dir) == data.generate(cfg, 4)

        train = ["train", "--config", str(config), "--corpus", str(corpus_dir), "--out", str(run_dir)]
        assert main(train) == 0
        code = main(
            [
                "eval",
                "--checkpoint",
                str(run_dir / "checkpoint.json"),
                "--corpus",
                str(corpus_dir),
                "--protocol",
                "multimodal",
                "--k-shot",
                "4",
                "--n-prompts",
                "2",
                "--out",
                str(report_dir),
            ]
        )
        assert code == 0
        metrics = json.loads((report_dir / "report.json").read_text())["metrics"]
        names = {f"{kind}_{view}" for kind in ("fs", "zs") for view in ("mod_a", "mod_b", "both")}
        assert set(metrics) == names
        assert all(0.0 <= v <= 1.0 for v in metrics.values())


class TestTrain:
    def test_config_parser_rejects_misspelt_keys(self):
        with pytest.raises(ConfigError, match="batchsize, similarty"):
            train_config_from_doc({"batchsize": 8, "similarty": "csd"}, 0)

    def test_config_parser_fills_defaults(self):
        assert train_config_from_doc({}, 5) == TrainConfig(seed=5)
        cfg = train_config_from_doc({"similarity": "csd", "betas": [0.8, 0.9], "seed": 2}, 5)
        assert cfg == TrainConfig(similarity=SimilarityKind.CSD, betas=(0.8, 0.9), seed=2)

    def test_outputs(self, trained_dir):
        assert (trained_dir / "checkpoint.json").exists()
        assert (trained_dir / "metrics.csv").exists()
        assert (trained_dir / "effective_config.json").exists()
        summary = json.loads((trained_dir / "train_summary.json").read_text())
        assert "best_rsum" in summary

    def test_metrics_csv_steps_monotone(self, trained_dir):
        lines = (trained_dir / "metrics.csv").read_text().splitlines()
        steps = [int(l.split(",")[0]) for l in lines[1:]]
        assert steps == sorted(steps) and len(steps) == 20

    def test_zero_steps_checkpoint_equals_init(self, config_path, corpus_dir, tmp_path):
        out = tmp_path / "zero"
        code = main(
            [
                "train",
                "--config",
                str(config_path),
                "--corpus",
                str(corpus_dir),
                "--out",
                str(out),
                "--steps",
                "0",
            ]
        )
        assert code == 0
        from probalign.encoders import AlignmentModel, load_checkpoint
        from probalign.data import read_corpus

        model = load_checkpoint(out / "checkpoint.json")
        corpus = read_corpus(corpus_dir)
        fresh = AlignmentModel.build(3, dict(corpus.config.view_dims), 16, 8, bn_enabled=True)
        for (name, p), (_, q) in zip(model.named_parameters(), fresh.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_rerun_checkpoint_bit_identical(self, config_path, corpus_dir, trained_dir, tmp_path):
        out2 = tmp_path / "again"
        code = main(
            ["train", "--config", str(config_path), "--corpus", str(corpus_dir), "--out", str(out2)]
        )
        assert code == 0
        assert (trained_dir / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()
        assert (trained_dir / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_similarity_flag_changes_training(self, config_path, corpus_dir, tmp_path):
        out = tmp_path / "csd"
        code = main(
            [
                "train",
                "--config",
                str(config_path),
                "--corpus",
                str(corpus_dir),
                "--out",
                str(out),
                "--similarity",
                "csd",
            ]
        )
        assert code == 0
        cfg = json.loads((out / "effective_config.json").read_text())
        assert cfg["train"]["similarity"] == "csd"

    @pytest.mark.parametrize(
        "train_doc,message",
        [
            ({"negate_similarity": False}, "negate_similarity"),
            (
                {"pair_sampling_weights": [[["mod_a", "text"], 1.5], [["mod_b", "text"], -0.5]]},
                "unknown train key(s): pair_sampling_weights",
            ),
            ({"batchsize": 8, "similarty": "csd"}, "unknown train key(s): batchsize, similarty"),
            ({"loss_weights": {"tua": 0.1}}, "unknown train.loss_weights key(s): tua"),
            ({"batch_size": 1000}, "no trainable pair has enough records for a batch"),
            ({"total_steps": -4}, "total_steps must be >= 0, got -4"),
            ({"eval_every": 0}, "eval_every must be >= 1, got 0"),
            ({"hidden_dim": 0}, "hidden_dim must be >= 1, got 0"),
            ({"embed_dim": 0}, "embed_dim must be >= 1, got 0"),
            ({"weight_decay": -1e-5}, "weight_decay must be nonnegative"),
            ({"betas": [0.9]}, "betas must be two values in [0, 1), got (0.9,)"),
            ({"betas": [0.9, 1.0]}, "betas must be two values in [0, 1), got (0.9, 1.0)"),
            ({"lr": "0.001"}, "TrainConfig: lr must be a number, got '0.001'"),
            ({"sis_enabled": False}, "unknown train key(s): sis_enabled"),
        ],
        ids=[
            "removed_negate_similarity_key",
            "negative_pair_weight",
            "misspelt_keys",
            "misspelt_loss_weight",
            "batch_larger_than_every_pair",
            "negative_steps",
            "eval_every_0",
            "hidden_dim_0",
            "embed_dim_0",
            "negative_weight_decay",
            "one_beta",
            "beta_of_1",
            "lr_string",
            "removed_sis_enabled_key",
        ],
    )
    def test_rejected_train_config_exits_1(self, corpus_dir, tmp_path, capsys, train_doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": train_doc}))
        argv = ["train", "--config", str(bad), "--corpus", str(corpus_dir), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--steps", "-4"], "argument --steps: must be >= 0, got -4"),
            (["--batch-size", "0"], "argument --batch-size: must be >= 1, got 0"),
        ],
        ids=["steps", "batch-size"],
    )
    def test_rejected_train_flag_exits_1(self, config_path, corpus_dir, tmp_path, capsys, extra, message):
        argv = ["train", "--config", str(config_path), "--corpus", str(corpus_dir), "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_parses_only_train_and_valid(self, config_path, corpus_dir, tmp_path, monkeypatch):
        decoded = []
        real_decode_split = data._decode_split

        def spy(path, *rest):
            decoded.append(path.name)
            return real_decode_split(path, *rest)

        base = ["train", "--config", str(config_path), "--corpus", str(corpus_dir)]
        with monkeypatch.context() as m:
            m.setattr(data, "_decode_split", spy)
            assert main(base + ["--out", str(tmp_path / "partial")]) == 0
        assert sorted(decoded) == ["train.jsonl", "valid.jsonl"]

        # The same run over a corpus whose every split was decoded first writes the same bytes.
        with monkeypatch.context() as m:
            m.setattr(cli, "read_corpus", read_every_split)
            assert main(base + ["--out", str(tmp_path / "full")]) == 0
        for name in ("checkpoint.json", "metrics.csv", "train_summary.json"):
            assert (tmp_path / "partial" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_edited_test_split_still_fails_checksum(self, config_path, corpus_dir, tmp_path, capsys):
        edited = tmp_path / "edited"
        shutil.copytree(corpus_dir, edited)
        lines = (edited / "test.jsonl").read_text().splitlines(keepends=True)
        (edited / "test.jsonl").write_text("".join(lines[1:]))
        argv = ["train", "--config", str(config_path), "--corpus", str(edited), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "test.jsonl: sha256 does not match" in capsys.readouterr().err
        assert not (tmp_path / "o" / "checkpoint.json").exists()

    @pytest.mark.parametrize("under", ["", "run"], ids=["file", "under-a-file"])
    def test_file_as_out_exits_1_before_decoding(self, config_path, corpus_dir, tmp_path, monkeypatch, capsys, under):
        decoded = []
        monkeypatch.setattr(data, "_decode_split", lambda path, *rest: decoded.append(path.name))
        file = tmp_path / "out.txt"
        file.write_text("kept\n")
        out = file / under if under else file
        argv = ["train", "--config", str(config_path), "--corpus", str(corpus_dir), "--out", str(out)]
        assert main(argv) == 1
        assert f"--out {out}: {file} exists and is not a directory" in capsys.readouterr().err
        assert decoded == [] and file.read_text() == "kept\n"

    def test_manifest_without_seed_exits_1(self, config_path, corpus_dir, tmp_path, capsys):
        edited = tmp_path / "edited"
        shutil.copytree(corpus_dir, edited)
        manifest = json.loads((edited / "manifest.json").read_text())
        del manifest["seed"]
        (edited / "manifest.json").write_text(json.dumps(manifest))
        argv = ["train", "--config", str(config_path), "--corpus", str(edited), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "manifest.json: seed must be an integer >= 0, got None" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_corpus_path_exits_1(self, config_path, tmp_path, capsys):
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "x")]) == 1
        assert "corpus" in capsys.readouterr().err

    def test_no_sis_equals_a_zero_beta(self, config_path, corpus_dir, tmp_path):
        base = ["train", "--corpus", str(corpus_dir)]
        assert main(base + ["--config", str(config_path), "--out", str(tmp_path / "flag"), "--no-sis"]) == 0
        doc = json.loads(config_path.read_text())
        doc["train"]["loss_weights"] = {"beta": 0}
        (tmp_path / "beta0.json").write_text(json.dumps(doc))
        assert main(base + ["--config", str(tmp_path / "beta0.json"), "--out", str(tmp_path / "beta0")]) == 0
        for name in ("metrics.csv", "checkpoint.json"):
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "beta0" / name).read_bytes()
        rows = (tmp_path / "flag" / "metrics.csv").read_text().splitlines()
        sis = [rows[0].split(",").index(c) for c in ("sis1", "sis2")]
        assert len(rows) == 21 and all(float(r.split(",")[i]) == 0.0 for r in rows[1:] for i in sis)
        echoed = json.loads((tmp_path / "flag" / "effective_config.json").read_text())["train"]
        assert echoed["loss_weights"] == {"beta": 0.0} and "sis_enabled" not in echoed

    @pytest.mark.parametrize("extra", [[], ["--no-sis"]], ids=["default", "no-sis"])
    def test_rerun_from_effective_config_bit_identical(self, config_path, corpus_dir, tmp_path, extra):
        first = ["train", "--config", str(config_path), "--corpus", str(corpus_dir), "--out", str(tmp_path / "a")]
        assert main(first + extra) == 0
        echoed = tmp_path / "a" / "effective_config.json"
        assert main(["train", "--config", str(echoed), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "checkpoint.json").read_bytes() == (tmp_path / "b" / "checkpoint.json").read_bytes()

    def test_summary_is_strict_json_when_no_pair_fills_a_validation_batch(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 1, "corpus": {"n_records": 400}}))
        assert main(["gen", "--config", str(config), "--out", str(tmp_path / "c")]) == 0
        argv = ["train", "--config", str(config), "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "t")]
        assert main(argv + ["--steps", "5", "--batch-size", "40"]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        summary = json.loads((tmp_path / "t" / "train_summary.json").read_text(), parse_constant=reject)
        assert [v["info_nce"] for v in summary["validation"]] == [None, None]


class TestEval:
    @pytest.mark.parametrize(
        "protocol,extra",
        [
            ("retrieval", []),
            ("zeroshot", ["--n-prompts", "3"]),
            ("zeroshot", ["--n-prompts", "3", "--filter-prompts", "sweep"]),
            ("zeroshot", ["--prototypes", "mod_b", "--modality", "mod_a"]),
            ("fewshot", ["--shots", "2,4", "--seeds", "2"]),
            ("fewshot", ["--shots", "2", "--seeds", "1", "--fewshot-mode", "sampled", "--n", "4"]),
            ("multimodal", ["--k-shot", "4", "--n-prompts", "2"]),
            ("noiseprobe", ["--levels", "0,1,2", "--n-items", "5"]),
        ],
        ids=[
            "retrieval",
            "zeroshot",
            "zeroshot-sweep",
            "zeroshot-emergent",
            "fewshot",
            "fewshot-sampled",
            "multimodal",
            "noiseprobe",
        ],
    )
    def test_protocols_produce_reports(self, trained_dir, corpus_dir, tmp_path, protocol, extra):
        out = tmp_path / "report"
        code = main(
            [
                "eval",
                "--checkpoint",
                str(trained_dir / "checkpoint.json"),
                "--corpus",
                str(corpus_dir),
                "--protocol",
                protocol,
                "--out",
                str(out),
            ]
            + extra
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["protocol"] == protocol
        assert report["metrics"]

    def test_eval_rerun_bit_identical(self, trained_dir, corpus_dir, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = main(
                [
                    "eval",
                    "--checkpoint",
                    str(trained_dir / "checkpoint.json"),
                    "--corpus",
                    str(corpus_dir),
                    "--protocol",
                    "retrieval",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "extra,parsed",
        [
            (["--protocol", "retrieval"], {"test"}),
            (["--protocol", "retrieval", "--split", "valid"], {"valid"}),
            (["--protocol", "zeroshot", "--n-prompts", "3"], {"test"}),
            (["--protocol", "zeroshot", "--split", "train", "--n-prompts", "3"], {"train"}),
            (["--protocol", "zeroshot", "--prototypes", "mod_b"], {"test", "valid"}),
            (["--protocol", "zeroshot", "--split", "train", "--prototypes", "mod_b"], {"train", "valid"}),
            (["--protocol", "fewshot", "--shots", "2", "--seeds", "1"], {"train", "test"}),
            (["--protocol", "multimodal", "--k-shot", "4", "--n-prompts", "2"], {"train", "test"}),
            (["--protocol", "noiseprobe", "--levels", "0,1,2", "--n-items", "5"], {"test"}),
        ],
        ids=[
            "retrieval",
            "retrieval-valid",
            "zeroshot",
            "zeroshot-train",
            "zeroshot-emergent",
            "zeroshot-emergent-train",
            "fewshot",
            "multimodal",
            "noiseprobe",
        ],
    )
    def test_protocol_parses_only_its_splits(self, trained_dir, corpus_dir, tmp_path, monkeypatch, extra, parsed):
        decoded = []
        real_decode_split = data._decode_split

        def spy(path, *rest):
            decoded.append(path.stem)
            return real_decode_split(path, *rest)

        base = ["eval", "--checkpoint", str(trained_dir / "checkpoint.json"), "--corpus", str(corpus_dir)]
        with monkeypatch.context() as m:
            m.setattr(data, "_decode_split", spy)
            assert main(base + extra + ["--out", str(tmp_path / "partial")]) == 0
        assert sorted(decoded) == sorted(parsed)

        # The same command over a corpus whose every split was decoded first writes the same bytes.
        with monkeypatch.context() as m:
            m.setattr(cli, "read_corpus", read_every_split)
            assert main(base + extra + ["--out", str(tmp_path / "full")]) == 0
        partial = (tmp_path / "partial" / "report.json").read_bytes()
        assert partial == (tmp_path / "full" / "report.json").read_bytes()

    def test_edited_unread_split_still_fails_checksum(self, trained_dir, corpus_dir, tmp_path, capsys):
        edited = tmp_path / "edited"
        shutil.copytree(corpus_dir, edited)
        lines = (edited / "train.jsonl").read_text().splitlines(keepends=True)
        (edited / "train.jsonl").write_text("".join(lines[1:]))
        argv = ["eval", "--checkpoint", str(trained_dir / "checkpoint.json"), "--corpus", str(edited),
                "--protocol", "retrieval", "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "train.jsonl: sha256 does not match" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_unknown_split_exits_1(self, trained_dir, corpus_dir, tmp_path, capsys):
        argv = ["eval", "--checkpoint", str(trained_dir / "checkpoint.json"), "--corpus", str(corpus_dir),
                "--protocol", "retrieval", "--split", "bogus", "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "unknown split 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "protocol,split,reads",
        [
            ("fewshot", "bogus", "the train and test splits"),
            ("multimodal", "valid", "the train and test splits"),
            ("noiseprobe", "test", "the test split"),
        ],
    )
    def test_split_rejected_where_it_does_not_apply(
        self, tmp_path, monkeypatch, capsys, protocol, split, reads
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a file was read before --split was checked")

        monkeypatch.setattr(cli, "load_checkpoint", must_not_run)
        monkeypatch.setattr(cli, "read_corpus", must_not_run)
        argv = ["eval", "--checkpoint", str(tmp_path / "ck.json"), "--corpus", str(tmp_path / "c"),
                "--protocol", protocol, "--split", split, "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"--split does not apply to --protocol {protocol}, which reads {reads}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--protocol", "fewshot", "--seeds", "0"], "argument --seeds: must be >= 1, got 0"),
            (["--protocol", "fewshot", "--shots", "2,0"], "argument --shots: must be >= 1, got 0"),
            (["--protocol", "multimodal", "--k-shot", "0"], "argument --k-shot: must be >= 1, got 0"),
        ],
        ids=["seeds", "shots", "k-shot"],
    )
    def test_few_shot_sizes_below_1_exit_1(self, tmp_path, monkeypatch, capsys, extra, message):
        self._assert_rejected_at_parse_time(tmp_path, monkeypatch, capsys, extra, message)

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--protocol", "fewshot", "--fewshot-mode", "sampled", "--n", "0"], "argument --n: must be >= 1, got 0"),
            (["--protocol", "noiseprobe", "--n-items", "0"], "argument --n-items: must be >= 1, got 0"),
            (["--protocol", "noiseprobe", "--n-items", "-1"], "argument --n-items: must be >= 1, got -1"),
            (["--protocol", "zeroshot", "--n-prompts", "0"], "argument --n-prompts: must be >= 1, got 0"),
            (["--protocol", "retrieval", "--max-gallery", "0"], "argument --max-gallery: must be >= 1, got 0"),
            (["--protocol", "retrieval", "--ks", "1,0"], "argument --ks: must be >= 1, got 0"),
            (["--protocol", "retrieval", "--ks", "1,x"], "argument --ks: invalid positive_ints value: '1,x'"),
            (["--protocol", "zeroshot", "--noisy-prompts", "-1"], "argument --noisy-prompts: must be >= 0, got -1"),
            (["--protocol", "zeroshot", "--modality", "bogus"], "argument --modality: invalid choice: 'bogus'"),
            (["--protocol", "zeroshot", "--filter-prompts", "0"], "argument --filter-prompts: must be >= 1, got 0"),
            (["--protocol", "noiseprobe", "--levels", "1,2"], "argument --levels: must ascend from 0, got 1,2"),
            (["--protocol", "noiseprobe", "--levels", "0,1,inf"], "argument --levels: must be finite, got 0,1,inf"),
            (["--protocol", "noiseprobe", "--levels", "0,nan,1"], "argument --levels: must be finite, got 0,nan,1"),
        ],
        ids=[
            "n",
            "n-items-0",
            "n-items-negative",
            "n-prompts",
            "max-gallery",
            "ks",
            "ks-not-int",
            "noisy-prompts",
            "modality",
            "filter-prompts",
            "levels",
            "levels-inf",
            "levels-nan",
        ],
    )
    def test_sizes_checked_before_any_file_is_read(self, tmp_path, monkeypatch, capsys, extra, message):
        self._assert_rejected_at_parse_time(tmp_path, monkeypatch, capsys, extra, message)

    @staticmethod
    def _assert_rejected_at_parse_time(tmp_path, monkeypatch, capsys, extra, message):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a file was read before the sizes were checked")

        monkeypatch.setattr(cli, "load_checkpoint", must_not_run)
        monkeypatch.setattr(cli, "read_corpus", must_not_run)
        argv = ["eval", "--checkpoint", str(tmp_path / "ck.json"), "--corpus", str(tmp_path / "c"),
                "--out", str(tmp_path / "o")] + extra
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_retrieval_with_every_gallery_too_small_exits_1(self, trained_dir, corpus_dir, tmp_path, capsys):
        base = ["eval", "--checkpoint", str(trained_dir / "checkpoint.json"), "--corpus", str(corpus_dir),
                "--protocol", "retrieval", "--ks", "1,5"]
        assert main(base + ["--max-gallery", "5", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "no retrieval task ran: the largest gallery in split test holds 5 records" in err
        assert "more than the largest K (5)" in err
        assert not (tmp_path / "o" / "report.json").exists()
        # One more record per gallery and the tasks run.
        assert main(base + ["--max-gallery", "6", "--out", str(tmp_path / "six")]) == 0
        report = json.loads((tmp_path / "six" / "report.json").read_text())
        assert report["details"]["tasks"] and report["details"]["ks"] == [1, 5]

    def test_unset_split_is_test(self, trained_dir, corpus_dir, tmp_path):
        base = ["eval", "--checkpoint", str(trained_dir / "checkpoint.json"), "--corpus", str(corpus_dir),
                "--protocol", "zeroshot", "--n-prompts", "3"]
        assert main(base + ["--out", str(tmp_path / "unset")]) == 0
        assert main(base + ["--split", "test", "--out", str(tmp_path / "test")]) == 0
        unset = (tmp_path / "unset" / "report.json").read_bytes()
        assert unset == (tmp_path / "test" / "report.json").read_bytes()

    @pytest.mark.parametrize("protocol", ["retrieval", "zeroshot"])
    def test_non_finite_checkpoint_exits_2(self, trained_dir, corpus_dir, tmp_path, capsys, protocol):
        doc = json.loads((trained_dir / "checkpoint.json").read_text())
        entry = doc["encoders"]["text"]["params"]["b1"]
        b1 = np.frombuffer(base64.b64decode(entry["data"]), dtype=np.float64).copy()
        b1[3] = np.nan
        entry["data"] = base64.b64encode(b1.tobytes()).decode("ascii")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        argv = ["eval", "--checkpoint", str(bad), "--corpus", str(corpus_dir),
                "--protocol", protocol, "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "text encoder produced a non-finite embedding" in err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_unknown_protocol_exits_1(self, trained_dir, corpus_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "eval",
                    "--checkpoint",
                    str(trained_dir / "checkpoint.json"),
                    "--corpus",
                    str(corpus_dir),
                    "--protocol",
                    "nonsense",
                ]
            )
        assert exc.value.code == 1


SMALL_TRAIN = {"total_steps": 20, "batch_size": 16, "hidden_dim": 16, "embed_dim": 8, "eval_every": 10}

# The default corpus, the complementary one and an 8-class one, each at 1,000 records.
ORACLE_CORPORA = {
    "default": {"n_records": 1000},
    "complementary": {**COMPLEMENTARY_DOC["corpus"], "n_records": 1000},
    "eight-class": {"n_records": 1000, "n_classes": 8},
}


@pytest.fixture(scope="module", params=sorted(ORACLE_CORPORA))
def oracle_run(request, tmp_path_factory):
    """(checkpoint, corpus dir) of a 20-step run on one of ORACLE_CORPORA."""
    root = tmp_path_factory.mktemp(request.param)
    config = root / "config.json"
    config.write_text(json.dumps({"seed": 5, "corpus": ORACLE_CORPORA[request.param], "train": SMALL_TRAIN}))
    assert main(["gen", "--config", str(config), "--out", str(root / "corpus")]) == 0
    train = ["train", "--config", str(config), "--corpus", str(root / "corpus"), "--out", str(root / "run")]
    assert main(train) == 0
    return root / "run" / "checkpoint.json", root / "corpus"


def finite_rows(split, *modalities) -> np.ndarray:
    """Rows whose view of every given modality is finite, read from the view
    columns rather than through ``Split.rows_with_views`` and the pairs mask."""
    return np.flatnonzero(np.all([np.isfinite(split.views[m]).all(axis=1) for m in modalities], axis=0))


def full_decode_report(argv) -> str:
    """Reference for the fewshot and multimodal protocols: every train record is
    decoded and embedded, and the support rows are picked from those embeddings."""
    args = cli.build_parser().parse_args(argv)
    model = load_checkpoint(args.checkpoint)
    corpus = data.read_corpus(args.corpus)
    rng = np.random.default_rng(args.seed)

    def embed(modality, split, rows):
        return model.encode(modality, split.views[modality][rows])

    if args.protocol == "fewshot":
        m = Modality(args.modality)
        train, test = finite_rows(corpus.train, m), finite_rows(corpus.test, m)
        mu_train, lv_train = embed(m, corpus.train, train)
        table = {}
        for shot in args.shots:
            per_seed = few_shot(
                corpus.train.labels[train].tolist(),
                lambda rows: (mu_train[rows], lv_train[rows]),
                embed(m, corpus.test, test)[0],
                corpus.test.labels[test].tolist(),
                shot,
                mode=args.fewshot_mode,
                n_samples=args.n,
                rngs=[np.random.default_rng([args.seed, shot, s]) for s in range(args.seeds)],
            )
            table[shot] = {"mean_auroc": float(np.mean(per_seed)), "per_seed": per_seed}
        metrics = {f"auroc_{shot}shot": table[shot]["mean_auroc"] for shot in args.shots}
        return EvalReport("fewshot", metrics, {"mode": args.fewshot_mode, "table": table}).to_json()

    pair = (Modality.MOD_A, Modality.MOD_B)
    train, test = finite_rows(corpus.train, *pair), finite_rows(corpus.test, *pair)
    train_items = [embed(m, corpus.train, train) for m in pair]
    prompts = cli._prompt_set(corpus, args, rng)
    result = multimodal_classify(
        model,
        corpus.train.labels[train].tolist(),
        [lambda rows, mu=mu, lv=lv: (mu[rows], lv[rows]) for mu, lv in train_items],
        tuple(corpus.test.views[m][test] for m in pair),
        corpus.test.labels[test].tolist(),
        args.k_shot,
        prompts,
        SimilarityKind(args.similarity),
        rng,
        fusion=args.fusion,
    )
    metrics = {f"fs_{name}": v for name, v in result["fs"].items()}
    metrics.update({f"zs_{name}": v for name, v in result["zs"].items()})
    return EvalReport("multimodal", metrics, {"k_shot": args.k_shot, "fusion": args.fusion}).to_json()


def zeroshot_list_report(argv) -> tuple[str, list]:
    """Reference for the zeroshot protocol: the list form of zero-shot scoring
    (``zero_shot_lists``), the cross-modality prototypes grouped into lists.
    Returns the report and the result of each scoring, in order."""
    args = cli.build_parser().parse_args(argv)
    model = load_checkpoint(args.checkpoint)
    corpus = data.read_corpus(args.corpus)
    kind = SimilarityKind(args.similarity)
    m = Modality(args.modality)
    split = corpus.splits[args.split or "test"]
    rows = finite_rows(split, m)
    labels = split.labels[rows]
    items = model.encode(m, split.views[m][rows])
    if args.prototypes == "text":
        prompts = cli._prompt_set(corpus, args, np.random.default_rng(args.seed))
        base = zero_shot_lists.zero_shot(model, items, prompts, kind)
        classes = sorted(prompts)
        metrics = {"auroc_all_prompts": macro_ovr_auroc(base, labels, classes)}
        ks = range(1, min(len(rows) for rows in prompts.values()) + 1) if args.filter_prompts == "sweep" else []
        per_k, results = {}, [base]
        for k in ks:
            results.append(zero_shot_lists.filtered_zero_shot(model, items, prompts, k, kind))
            per_k[k] = macro_ovr_auroc(results[-1], labels, classes)
        if per_k:
            best_k = max(per_k, key=per_k.get)
            metrics.update(auroc_best_k=per_k[best_k], best_k=best_k)
        return EvalReport("zeroshot", metrics, {"auroc_by_k": per_k}).to_json(), results

    proto_modality = Modality(args.prototypes)
    proto = finite_rows(corpus.valid, proto_modality)
    if not len(proto):
        raise ConfigError(f"no {proto_modality.value} views in valid split for prototypes")
    encoded = model.encode(proto_modality, corpus.valid.views[proto_modality][proto])
    by_class = {}
    for label, e in zip(corpus.valid.labels[proto].tolist(), zero_shot_lists.embeddings_of(encoded)):
        by_class.setdefault(label, []).append(e)
    result = zero_shot_lists.zero_shot_from_encoded(items, by_class, kind)
    details = {"prototypes": proto_modality.value, "item_modality": m.value}
    report = EvalReport("zeroshot", {"auroc": macro_ovr_auroc(result, labels, sorted(by_class))}, details)
    return report.to_json(), [result]


class TestZeroShotListForm:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--noisy-prompts", "6", "--filter-prompts", "sweep"],
            ["--prototypes", "mod_c"],
            ["--prototypes", "mod_b", "--similarity", "csd"],
        ],
        ids=["sweep", "mod_c", "mod_b-csd"],
    )
    def test_report_equals_list_form_oracle(self, oracle_run, tmp_path, capsys, monkeypatch, extra):
        checkpoint, corpus_dir = oracle_run
        argv = ["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus_dir), "--protocol", "zeroshot", *extra]
        try:
            want, want_results = zeroshot_list_report(argv)
        except ConfigError as exc:  # the complementary corpus has no mod_c views
            assert main(argv + ["--out", str(tmp_path / "r")]) == 1
            assert str(exc) in capsys.readouterr().err
            return
        # Every scoring is compared too: a report's AUROCs can hide a last-bit change.
        results, real = [], evaluation.score_prototypes

        def spy(*args):
            results.append(real(*args))
            return results[-1]

        monkeypatch.setattr(evaluation, "score_prototypes", spy)
        monkeypatch.setattr(cli, "score_prototypes", spy)
        assert main(argv + ["--out", str(tmp_path / "r")]) == 0
        assert (tmp_path / "r" / "report.json").read_text() == want + "\n"
        assert len(results) == len(want_results)
        for got, expected in zip(results, want_results):
            zero_shot_lists.assert_same(got, expected)


class TestPromptsEncodedOnce:
    @pytest.mark.parametrize(
        "extra,per_class",
        [
            (["--protocol", "zeroshot", "--noisy-prompts", "6", "--filter-prompts", "sweep"], 12),
            (["--protocol", "multimodal", "--k-shot", "4", "--n-prompts", "2"], 2),
        ],
        ids=["zeroshot-sweep", "multimodal"],
    )
    def test_each_prompt_is_encoded_once(self, trained_dir, corpus_dir, tmp_path, monkeypatch, extra, per_class):
        text_rows, real = [], AlignmentModel.encode

        def spy(self, modality, x):
            if modality == Modality.TEXT:
                text_rows.append(len(x))
            return real(self, modality, x)

        monkeypatch.setattr(AlignmentModel, "encode", spy)
        argv = ["eval", "--checkpoint", str(trained_dir / "checkpoint.json"), "--corpus", str(corpus_dir)]
        assert main(argv + ["--out", str(tmp_path / "r"), *extra]) == 0
        n_classes = data.read_corpus(corpus_dir).config.n_classes
        assert sum(text_rows) == n_classes * per_class


class TestSupportRowsOnly:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--protocol", "fewshot", "--shots", "1,4", "--seeds", "3"],
            ["--protocol", "fewshot", "--shots", "2", "--seeds", "2", "--fewshot-mode", "sampled", "--n", "4"],
            ["--protocol", "fewshot", "--modality", "mod_b", "--shots", "3", "--seeds", "2"],
            ["--protocol", "multimodal", "--n-prompts", "2"],
            ["--protocol", "multimodal", "--k-shot", "1", "--fusion", "max", "--n-prompts", "2"],
        ],
        ids=["fewshot", "fewshot-sampled", "fewshot-mod_b", "multimodal", "multimodal-max"],
    )
    def test_report_equals_full_decode_oracle(self, oracle_run, tmp_path, extra):
        checkpoint, corpus_dir = oracle_run
        argv = ["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus_dir), *extra]
        assert main(argv + ["--out", str(tmp_path / "r")]) == 0
        assert (tmp_path / "r" / "report.json").read_text() == full_decode_report(argv) + "\n"

    @pytest.mark.parametrize("protocol", ["fewshot", "multimodal"])
    def test_tampered_train_split_exits_1(self, trained_dir, corpus_dir, tmp_path, capsys, protocol):
        edited = tmp_path / "edited"
        shutil.copytree(corpus_dir, edited)
        body = bytearray((edited / "train.jsonl").read_bytes())
        body[len(body) // 2] ^= 0x01
        (edited / "train.jsonl").write_bytes(bytes(body))
        argv = ["eval", "--checkpoint", str(trained_dir / "checkpoint.json"), "--corpus", str(edited),
                "--protocol", protocol, "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert "train.jsonl: sha256 does not match" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_modality_without_train_views_exits_1(self, trained_dir, corpus_dir, tmp_path, capsys, split):
        # A split without mod_c views: the records that have one are dropped.
        edited = tmp_path / "edited"
        shutil.copytree(corpus_dir, edited)
        lines = (edited / f"{split}.jsonl").read_text().splitlines(keepends=True)
        kept = [line for line in lines if '"mod_c"' not in line]
        body = "".join(kept).encode()
        (edited / f"{split}.jsonl").write_bytes(body)
        manifest = json.loads((edited / "manifest.json").read_text())
        manifest["checksums"][split] = hashlib.sha256(body).hexdigest()
        manifest["counts"][split] = len(kept)
        (edited / "manifest.json").write_text(json.dumps(manifest))
        argv = ["eval", "--checkpoint", str(trained_dir / "checkpoint.json"), "--corpus", str(edited),
                "--protocol", "fewshot", "--modality", "mod_c", "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert f"no mod_c views in split {split}" in capsys.readouterr().err


class TestVerify:
    def test_fast_suite_passes(self, capsys):
        assert main(["verify", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "all oracles passed" in out
        assert out.count("[PASS]") >= 5

    def test_full_suite_passes_with_full_size_labels(self, capsys):
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7 and all(line.startswith("[PASS]") for line in lines[:6])
        assert "(100 random 1-D pairs)" in lines[0]
        assert "(10 cases, 1e6 samples)" in lines[1]
        assert "(1000 pairs, D in {1,8,64})" in lines[3]
        assert lines[6] == "all oracles passed"

    def test_report_lists_each_oracle_with_error(self, capsys):
        main(["verify", "--fast"])
        out = capsys.readouterr().out
        for token in ("hellinger", "Monte Carlo", "identity", "gradient"):
            assert token in out
        assert "tolerance" in out

    def test_out_writes_parseable_report(self, tmp_path, capsys):
        assert main(["verify", "--fast", "--out", str(tmp_path / "v")]) == 0
        report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
        assert len(report) == len(capsys.readouterr().out.splitlines()) - 1
        assert all(entry["passed"] is True and entry["error"] < entry["tolerance"] for entry in report)

    def test_corrupted_hellinger_fails_loudly(self, capsys, monkeypatch):
        import probalign.gaussians as g

        real = g.hellinger_sq
        # Sign corruption on the quadratic term, applied through the module
        # attribute the oracle resolves at call time.
        def corrupted(a, b):
            value = real(a, b)
            return 1.0 - (1.0 - value) ** 0.5  # wrong exponent: same zeros, wrong curve

        monkeypatch.setattr(g, "hellinger_sq", corrupted)
        assert main(["verify", "--fast"]) == 2
        out = capsys.readouterr().out
        assert "[FAIL]" in out and "FAILED" in out


class TestSeedAndSections:
    """A bad seed, a config section or value of the wrong JSON type, or a
    checkpoint document missing a key or an encoder exits 1 with a message,
    before any run directory exists."""

    TRAIN = ["train", "--config", "CONFIG", "--corpus", "CORPUS", "--out", "OUT"]
    GEN = ["gen", "--config", "CONFIG", "--out", "OUT"]
    EVAL = ["eval", "--checkpoint", "CONFIG", "--corpus", "CORPUS", "--protocol", "retrieval", "--out", "OUT"]

    @pytest.mark.parametrize(
        "argv,doc,message",
        [
            (TRAIN + ["--seed", "-3"], {}, "argument --seed: must be >= 0, got -3"),
            (GEN + ["--seed", "-1"], {}, "argument --seed: must be >= 0, got -1"),
            (["eval", "--checkpoint", "CONFIG", "--corpus", "CORPUS", "--protocol", "retrieval", "--out", "OUT",
              "--seed", "-1"], {}, "argument --seed: must be >= 0, got -1"),
            (GEN, {"seed": "x"}, "config seed must be an integer >= 0, got 'x'"),
            (TRAIN, {"seed": "x"}, "config seed must be an integer >= 0, got 'x'"),
            (GEN, {"seed": 1.5}, "config seed must be an integer >= 0, got 1.5"),
            (TRAIN, {"seed": 1.5}, "config seed must be an integer >= 0, got 1.5"),
            (TRAIN, {"seed": -2}, "config seed must be an integer >= 0, got -2"),
            (GEN, [1], "config.json must be a JSON object, got list"),
            (TRAIN, [1], "config.json must be a JSON object, got list"),
            (GEN, {"corpus": [1]}, "corpus must be a JSON object, got list"),
            (GEN, {"corpus": {"view_dims": [1]}}, "corpus.view_dims must be a JSON object, got list"),
            (GEN, {"corpus": {"noise_scales": 0.1}}, "corpus.noise_scales must be a JSON object, got float"),
            (TRAIN, {"train": [1]}, "train must be a JSON object, got list"),
            (TRAIN, {"train": {"loss_weights": [1]}}, "train.loss_weights must be a JSON object, got list"),
            (TRAIN + ["--no-sis"], {"train": {"loss_weights": [1]}}, "train.loss_weights must be a JSON object"),
            (TRAIN[:3] + TRAIN[5:], {"paths": [1]}, "paths must be a JSON object, got list"),
            (TRAIN[:3] + TRAIN[5:], {"paths": {"corpus": 5}}, "paths.corpus must be a string, got int"),
            (EVAL, [1], "config.json must be a JSON object, got list"),
            (EVAL, "x", "config.json must be a JSON object, got str"),
            (EVAL, None, "config.json must be a JSON object, got NoneType"),
            (GEN, {"corpus": {"n_records": "10"}}, "CorpusConfig: n_records must be an integer, got '10'"),
            (GEN, {"corpus": {"n_records": 10.5}}, "CorpusConfig: n_records must be an integer, got 10.5"),
            (GEN, {"corpus": {"n_text_variants": 2.5}}, "n_text_variants must be an integer, got 2.5"),
            (GEN, {"corpus": {"pair_probs": 5}}, "corpus: 'int' object is not iterable"),
            (GEN, {"corpus": {"split_fractions": 3}}, "corpus: 'int' object is not iterable"),
            (GEN, {"corpus": {"view_dims": {"mod_a": None}}}, "view dims must be integers, got mod_a None"),
            (GEN, {"corpus": {"view_dims": {"mod_a": 2.5, "mod_b": "40"}}},
             "view dims must be integers, got mod_a 2.5, mod_b '40'"),
            (GEN, {"corpus": {"cluster_std": -1}}, "CorpusConfig: cluster_std must be a number >= 0, got -1"),
            (TRAIN, {"train": {"batch_size": 8.5}}, "TrainConfig: batch_size must be an integer, got 8.5"),
            (TRAIN, {"train": {"hidden_dim": 8.5}}, "TrainConfig: hidden_dim must be an integer, got 8.5"),
            (EVAL, {"format": "probalign-checkpoint-v1"}, "checkpoint: no 'encoders' entry"),
            (EVAL, {"format": "probalign-checkpoint-v1", "embed_dim": 2,
                    "encoders": {m.value: {"input_dim": 3, "embed_dim": 2} for m in Modality}},
             "checkpoint: the mod_a encoder has no 'hidden_dim' entry"),
            (EVAL, {"format": "probalign-checkpoint-v1", "embed_dim": 2, "encoders": {}},
             "checkpoint: no encoder for mod_a, mod_b, mod_c, text"),
            (GEN, {"corpus": {"noise_scales": {"mod_a": True, "mod_b": 0.3, "mod_c": 0.3, "text": 0.3}}},
             "a corpus.noise_scales value must be a number, got True"),
            (GEN, {"corpus": {"pair_probs": [[["mod_a", "text"], "0.3"]]}},
             "a corpus.pair_probs value must be a number, got '0.3'"),
            (["gen", "--config", "DIR", "--out", "OUT"], {}, "is not a file"),
            (["eval", "--checkpoint", "DIR", "--corpus", "CORPUS", "--protocol", "retrieval", "--out", "OUT"], {},
             "is not a file"),
            (GEN[:-1] + ["CONFIG"], {}, "config.json exists and is not a directory"),
            (TRAIN[:-1] + ["CONFIG"], {}, "config.json exists and is not a directory"),
            (EVAL[:-1] + ["CONFIG"], {}, "config.json exists and is not a directory"),
            (["verify", "--fast", "--out", "CONFIG"], {}, "config.json exists and is not a directory"),
            (TRAIN, {"train": {"lr": True}}, "TrainConfig: lr must be a number, got True"),
            (TRAIN, {"train": {"weight_decay": "0"}}, "TrainConfig: weight_decay must be a number, got '0'"),
            (TRAIN, {"train": {"grad_clip": None}}, "TrainConfig: grad_clip must be a number, got None"),
            (TRAIN, {"train": {"betas": "ab"}}, "TrainConfig: each betas entry must be a number, got 'a'"),
            (TRAIN, {"train": {"betas": [0.9, True]}}, "TrainConfig: each betas entry must be a number, got True"),
            (TRAIN, {"train": {"bn_enabled": "no"}}, "TrainConfig: bn_enabled must be true or false, got 'no'"),
            (TRAIN, {"train": {"bn_enabled": 1}}, "TrainConfig: bn_enabled must be true or false, got 1"),
            (TRAIN, {"train": {"loss_weights": {"alpha": True}}}, "LossWeights: alpha must be a number, got True"),
            (TRAIN, {"train": {"loss_weights": {"beta": "0.5"}}}, "LossWeights: beta must be a number, got '0.5'"),
            (TRAIN, {"train": {"loss_weights": {"gamma": None}}}, "LossWeights: gamma must be a number, got None"),
            (TRAIN, {"train": {"loss_weights": {"tau": "0.07"}}}, "LossWeights: tau must be a number, got '0.07'"),
            (TRAIN + ["--lr", "nan"], {}, "TrainConfig: lr must be finite, got nan"),
            (TRAIN + ["--lr", "inf"], {}, "TrainConfig: lr must be finite, got inf"),
            (TRAIN, {"train": {"loss_weights": {"tau": math.inf}}}, "LossWeights: tau must be finite, got inf"),
            (TRAIN, {"train": {"grad_clip": math.inf, "weight_decay": math.nan}},
             "TrainConfig: grad_clip must be finite, got inf"),
            (TRAIN, {"train": {"weight_decay": math.nan}}, "TrainConfig: weight_decay must be finite, got nan"),
            (TRAIN, {"train": {"lr": 10**400}}, "TrainConfig: lr must be finite, got 1000"),
            (GEN, {"corpus": {"cluster_std": math.inf}}, "CorpusConfig: cluster_std must be finite, got inf"),
            (GEN, {"corpus": {"noise_scales": {"mod_a": math.nan, "mod_b": 0.3, "mod_c": 0.3, "text": 0.3}}},
             "a corpus.noise_scales value must be finite, got nan"),
            (GEN, {"corpus": {"split_fractions": [math.nan, 0.1, 0.1]}},
             "a corpus.split_fractions value must be finite, got nan"),
            (EVAL, b"{", "checkpoint CONFIG is not valid JSON: Expecting property name"),
            (EVAL, b"\xff{}", "checkpoint CONFIG is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
            (GEN, b"\xff{}", "config file CONFIG is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
        ],
        ids=[
            "train-flag-seed", "gen-flag-seed", "eval-flag-seed", "gen-string-seed", "train-string-seed",
            "gen-float-seed", "train-float-seed", "train-negative-config-seed", "gen-list-root", "train-list-root",
            "list-corpus", "list-view-dims", "number-noise-scales", "list-train", "list-loss-weights",
            "list-loss-weights-no-sis", "list-paths", "number-corpus-path", "list-checkpoint",
            "string-checkpoint", "null-checkpoint", "string-n-records", "float-n-records",
            "float-text-variants", "number-pair-probs", "number-split-fractions", "null-view-dim",
            "mistyped-view-dims", "negative-cluster-std", "float-batch-size", "float-hidden-dim",
            "checkpoint-without-encoders", "encoder-without-hidden-dim", "checkpoint-with-no-encoder",
            "bool-noise-scale", "string-pair-prob", "directory-config", "directory-checkpoint",
            "gen-file-out", "train-file-out", "eval-file-out", "verify-file-out", "bool-lr",
            "string-weight-decay", "null-grad-clip", "string-betas", "bool-beta-entry", "string-bn-enabled",
            "int-bn-enabled", "bool-alpha", "string-loss-beta", "null-gamma", "string-tau", "nan-lr-flag",
            "inf-lr-flag", "inf-tau", "inf-grad-clip-nan-weight-decay", "nan-weight-decay", "huge-int-lr",
            "inf-cluster-std", "nan-noise-scale", "nan-split-fraction",
            "unparseable-checkpoint", "non-utf8-checkpoint", "non-utf8-config",
        ],
    )
    def test_exits_1_before_the_run_dir(self, corpus_dir, tmp_path, capsys, argv, doc, message):
        # ``doc`` is written as JSON, or as it is when it is bytes.
        config, out = tmp_path / "config.json", tmp_path / "o"
        config.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        (tmp_path / "dir").mkdir()
        values = {"CONFIG": str(config), "CORPUS": str(corpus_dir), "OUT": str(out), "DIR": str(tmp_path / "dir")}
        try:
            code = main([values.get(a, a) for a in argv])
        except SystemExit as exc:  # argparse's errors
            code = exc.code
        err = capsys.readouterr().err
        assert code == 1
        assert message.replace("CONFIG", str(config)) in err and "Traceback" not in err
        assert not out.exists()


class TestUsage:
    def test_no_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_bad_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--config"])
        assert exc.value.code == 1

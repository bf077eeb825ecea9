"""End-to-end command tests: exit codes, artifacts, determinism, oracles."""

import base64
import json
import shutil

import numpy as np
import pytest

from probalign import cli, data
from probalign.cli import ConfigError, main, train_config_from_doc
from probalign.gaussians import SimilarityKind
from probalign.training import TrainConfig
from probalign.verification import run_oracle_suite


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
            ({"pair_sampling_weights": [[["mod_a", "text"], 1.5], [["mod_b", "text"], -0.5]]}, "nonnegative"),
            ({"batchsize": 8, "similarty": "csd"}, "unknown train key(s): batchsize, similarty"),
            ({"loss_weights": {"tua": 0.1}}, "unknown train.loss_weights key(s): tua"),
        ],
        ids=["removed_negate_similarity_key", "negative_pair_weight", "misspelt_keys", "misspelt_loss_weight"],
    )
    def test_rejected_train_config_exits_1(self, corpus_dir, tmp_path, capsys, train_doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": train_doc}))
        argv = ["train", "--config", str(bad), "--corpus", str(corpus_dir), "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_missing_corpus_path_exits_1(self, config_path, tmp_path, capsys):
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "x")]) == 1
        assert "corpus" in capsys.readouterr().err


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
    def test_protocol_parses_only_its_splits(
        self, trained_dir, corpus_dir, tmp_path, monkeypatch, extra, parsed
    ):
        full = data.read_corpus(corpus_dir)
        ids = {name: {r.record_id for r in records} for name, records in full.splits.items()}
        decoded = []
        real_decoder = data._record_from_json

        def spy(*args):
            record = real_decoder(*args)
            decoded.append(record.record_id)
            return record

        base = ["eval", "--checkpoint", str(trained_dir / "checkpoint.json"), "--corpus", str(corpus_dir)]
        with monkeypatch.context() as m:
            m.setattr(data, "_record_from_json", spy)
            assert main(base + extra + ["--out", str(tmp_path / "partial")]) == 0
        assert sorted(decoded) == sorted(i for name in parsed for i in ids[name])

        # The same command over a corpus read in full writes the same bytes.
        with monkeypatch.context() as m:
            m.setattr(cli, "read_corpus", lambda path, splits: data.read_corpus(path))
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


class TestUsage:
    def test_no_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_bad_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--config"])
        assert exc.value.code == 1

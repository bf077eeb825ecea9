"""Trainer tests: AdamW, clipping, isolation, schedules, determinism."""

import csv
import math

import numpy as np
import pytest
from test_data import blas_probe, under_prescott

from probalign.autodiff import SERIAL_GEMM
from probalign.data import CorpusConfig, Modality, TRAINABLE_PAIRS, generate, make_pair_batches
from probalign.encoders import AlignmentModel, checkpoint_document, save_checkpoint
from probalign.losses import LossWeights
from probalign.training import (
    METRICS_COLUMNS,
    TrainConfig,
    TrainerState,
    choose_pairs,
    cosine_lr,
    sampling_plan,
    train,
    train_step,
)

A, B, C, T = Modality.MOD_A, Modality.MOD_B, Modality.MOD_C, Modality.TEXT

SMALL_CORPUS = CorpusConfig(n_records=600, n_classes=3, latent_dim=8)


@pytest.fixture(scope="module")
def corpus():
    return generate(SMALL_CORPUS, seed=21)


def small_cfg(**overrides):
    defaults = dict(
        batch_size=16,
        total_steps=30,
        hidden_dim=16,
        embed_dim=8,
        eval_every=15,
        seed=5,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def short_run() -> tuple[float, str]:
    """Best validation RSUM of a 60-step run at the default config on a
    1,000-record corpus, and the corpus's BLAS probe."""
    corpus = generate(CorpusConfig(n_records=1000), seed=1)
    return train(TrainConfig(total_steps=60, eval_every=30), corpus).best_rsum, blas_probe(corpus)


def build_state(corpus, cfg):
    model = AlignmentModel.build(
        cfg.seed, dict(corpus.config.view_dims), cfg.hidden_dim, cfg.embed_dim, cfg.bn_enabled
    )
    return TrainerState(cfg, model)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 3e-4) == 3e-4
        assert cosine_lr(100, 100, 3e-4) == pytest.approx(0.0, abs=1e-20)
        assert cosine_lr(50, 100, 3e-4) == pytest.approx(1.5e-4)

    def test_monotone_decay(self):
        values = [cosine_lr(s, 50, 1.0) for s in range(51)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(11, 10, 1.0)


class TestTrainStep:
    def test_zero_lr_keeps_parameters(self, corpus):
        cfg = small_cfg(lr=1e-30)  # effectively zero; config requires lr > 0
        state = build_state(corpus, cfg)
        before = {
            name: p.data.copy() for name, p in state.model.named_parameters()
        }
        batch = next(make_pair_batches(corpus.train, (A, T), 16, np.random.default_rng(0)))
        row = train_step(state, (A, T), batch)
        assert math.isfinite(row["total"]) and row["total"] > 0
        for name, p in state.model.named_parameters():
            np.testing.assert_allclose(p.data, before[name], atol=1e-25)

    def test_uninvolved_encoders_bitwise_unchanged(self, corpus):
        cfg = small_cfg()
        state = build_state(corpus, cfg)
        before = {
            name: p.data.copy() for name, p in state.model.named_parameters()
        }
        bn_before = {
            m: (enc.bn_running_mean.copy(), enc.bn_running_var.copy())
            for m, enc in state.model.encoders.items()
        }
        batch = next(make_pair_batches(corpus.train, (A, T), 16, np.random.default_rng(1)))
        train_step(state, (A, T), batch)
        for name, p in state.model.named_parameters():
            modality = name.split(".")[0]
            if modality in ("mod_a", "text"):
                assert not np.array_equal(p.data, before[name]) or name.endswith("b_lv")
            else:
                assert np.array_equal(p.data, before[name]), name
        for m in (B, C):
            assert np.array_equal(state.model.encoders[m].bn_running_mean, bn_before[m][0])
            assert np.array_equal(state.model.encoders[m].bn_running_var, bn_before[m][1])

    def test_gradient_clipping_bounds_norm(self, corpus):
        from probalign.training import _clip_gradients

        rng = np.random.default_rng(2)
        grads = [rng.normal(0, 10, (5, 5)) for _ in range(3)]
        clipped_norm = _clip_gradients(grads, 1.0)
        actual = math.sqrt(sum(float((g * g).sum()) for g in grads))
        assert actual <= 1.0 + 1e-9
        assert clipped_norm == pytest.approx(1.0)

    def test_below_threshold_clip_is_identity(self):
        from probalign.training import _clip_gradients

        grads = [np.array([0.01, 0.02]), np.array([0.005])]
        original = [g.copy() for g in grads]
        _clip_gradients(grads, 1.0)
        for g, o in zip(grads, original):
            np.testing.assert_array_equal(g, o)

    def test_shared_gradient_array_is_scaled_once(self):
        import probalign.autodiff as ad
        from probalign.autodiff import Tensor
        from probalign.training import _clip_gradients

        # add hands one upstream array to both parents, so their grads alias.
        x, y = Tensor([3.0, 0.0]), Tensor([0.0, 4.0])
        ad.mean_all((x + y) * Tensor([6.0, 8.0])).backward()
        assert x.grad is y.grad
        before = x.grad.copy()
        grads = [x.grad, y.grad]
        norm = _clip_gradients(grads, 1.0)
        assert norm == pytest.approx(1.0)
        scale = 1.0 / math.sqrt(50.0)
        for g in grads:
            np.testing.assert_allclose(g, before * scale, rtol=1e-15)
        np.testing.assert_array_equal(x.grad, before)

    def test_non_finite_loss_aborts_with_batch_ids(self, corpus):
        from probalign.training import TrainingAbort

        cfg = small_cfg()
        state = build_state(corpus, cfg)
        state.model.encoders[A].params["b_mu"].data = np.full(cfg.embed_dim, np.nan)
        batch = next(make_pair_batches(corpus.train, (A, T), 16, np.random.default_rng(3)))
        with pytest.raises(TrainingAbort, match="record ids"):
            train_step(state, (A, T), batch)

    def test_seeded_steps_bit_identical(self, corpus):
        rows = []
        for _ in range(2):
            cfg = small_cfg(total_steps=10)
            state = build_state(corpus, cfg)
            stream = make_pair_batches(corpus.train, (A, T), 16, np.random.default_rng(4))
            run = [train_step(state, (A, T), next(stream)) for _ in range(10)]
            rows.append(run)
        assert rows[0] == rows[1]


class TestPairSampling:
    def test_histogram_matches_weights(self):
        pairs = list(TRAINABLE_PAIRS)
        w = 1 / len(pairs)
        rng = np.random.default_rng(6)
        n = 10_000
        drawn = choose_pairs(pairs, rng, n)
        sigma = math.sqrt(n * w * (1 - w))
        for p in pairs:
            assert abs(drawn.count(p) - n * w) < 3 * sigma

    def test_plan_keeps_the_pairs_that_fill_a_batch(self, corpus):
        pools = {p: len(corpus.train.pair_rows(p)) for p in TRAINABLE_PAIRS}
        batch_size = min(pools.values()) + 1
        plan = sampling_plan(small_cfg(batch_size=batch_size), corpus)
        assert plan == [p for p in TRAINABLE_PAIRS if pools[p] >= batch_size]
        assert len(plan) == len(TRAINABLE_PAIRS) - 1


class TestTrain:
    def test_zero_steps_returns_initialization(self, corpus):
        cfg = small_cfg(total_steps=0)
        result = train(cfg, corpus)
        fresh = AlignmentModel.build(
            cfg.seed, dict(corpus.config.view_dims), cfg.hidden_dim, cfg.embed_dim, cfg.bn_enabled
        )
        for (name, p), (_, q) in zip(result.model.named_parameters(), fresh.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_metrics_csv_columns_and_determinism(self, corpus, tmp_path):
        cfg = small_cfg(total_steps=12)
        train(cfg, corpus, metrics_path=tmp_path / "m1.csv")
        train(cfg, corpus, metrics_path=tmp_path / "m2.csv")
        text = (tmp_path / "m1.csv").read_text()
        assert text.splitlines()[0] == ",".join(METRICS_COLUMNS)
        assert len(text.splitlines()) == 13
        assert (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()

    def test_checkpoints_bit_identical_across_reruns(self, corpus, tmp_path):
        cfg = small_cfg(total_steps=12)
        train(cfg, corpus, checkpoint_path=tmp_path / "c1.json")
        train(cfg, corpus, checkpoint_path=tmp_path / "c2.json")
        assert (tmp_path / "c1.json").read_bytes() == (tmp_path / "c2.json").read_bytes()

    def test_validation_history_and_best_tracking(self, corpus):
        cfg = small_cfg(total_steps=30, eval_every=10)
        result = train(cfg, corpus)
        steps = [v["step"] for v in result.validation_history]
        assert steps == [0, 10, 20, 30]
        best = max(result.validation_history, key=lambda v: v["rsum"])
        assert result.best_rsum == best["rsum"]

    def test_best_validation_at_step_0_returns_the_initial_model(self, corpus, tmp_path, monkeypatch):
        import probalign.training as tr

        rsums = iter(range(0, -100, -1))  # every validation is worse than the one before
        monkeypatch.setattr(tr, "validation_retrieval", lambda *a, **k: {"rsum": float(next(rsums)), "tasks": {}})
        cfg = small_cfg(total_steps=20, eval_every=5)
        result = train(cfg, corpus, checkpoint_path=tmp_path / "best.json")
        assert result.best_step == 0 and len(result.validation_history) == 5
        initial = build_state(corpus, cfg).model
        assert checkpoint_document(result.model) == checkpoint_document(initial)
        save_checkpoint(initial, tmp_path / "initial.json")
        assert (tmp_path / "best.json").read_bytes() == (tmp_path / "initial.json").read_bytes()

    def test_sis_disabled_zeroes_sis_components(self, corpus, tmp_path):
        cfg = small_cfg(total_steps=5, loss_weights=LossWeights(beta=0.0))
        train(cfg, corpus, metrics_path=tmp_path / "m.csv")
        rows = list(csv.DictReader((tmp_path / "m.csv").read_text().splitlines()))
        assert len(rows) == 5
        assert all(float(row["sis1"]) == 0.0 and float(row["sis2"]) == 0.0 for row in rows)

    def test_post_clip_gradient_norm_bounded_throughout(self, corpus):
        # Instrument the clip helper to observe every step's post-clip norm.
        import probalign.training as tr

        observed = []
        original = tr._clip_gradients

        def spy(grads, clip):
            value = original(grads, clip)
            observed.append(math.sqrt(sum(float((g * g).sum()) for g in grads)))
            return value

        tr._clip_gradients = spy
        try:
            cfg = small_cfg(total_steps=20)
            train(cfg, corpus)
        finally:
            tr._clip_gradients = original
        assert observed and all(v <= cfg.grad_clip + 1e-9 for v in observed)


class TestAcrossBlasKernels:
    def test_best_rsum_agrees_under_another_kernel(self):
        # Another kernel rounds the encoders' products differently, so the
        # weights differ in their last bits. RSUM sums six recalls in percent
        # over about 95 queries: rtol 0.02 of an RSUM near 100 allows two
        # queries to move across a cut-off.
        corpus, hidden = generate(CorpusConfig(n_records=1000), seed=1), TrainConfig().hidden_dim
        pools = [(len(corpus.valid.pair_rows(p)), corpus.config.view_dims[p[0]]) for p in TRAINABLE_PAIRS if T in p]
        # A validation gallery is encoded in row slices: it exceeds SERIAL_GEMM.
        assert max(rows * width * hidden for rows, width in pools) > SERIAL_GEMM
        child_rsum, child_probe = under_prescott("import test_training; print(*test_training.short_run())").split()
        rsum, probe = short_run()
        if child_probe == probe:
            pytest.skip("OPENBLAS_CORETYPE=Prescott did not change the BLAS kernel's rounding")
        assert float(child_rsum) == pytest.approx(rsum, rel=0.02)

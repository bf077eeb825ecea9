"""Encoder tests: heads, batch norm semantics, init, checkpoint round-trip."""

import json
import re

import numpy as np
import pytest

import probalign.autodiff as ad
from probalign.autodiff import Tensor, grad_check
from probalign.encoders import (
    AlignmentModel,
    Encoder,
    EncoderDims,
    Modality,
    checkpoint_document,
    encode_array,
    init_encoder,
    load_checkpoint,
    model_from_document,
    save_checkpoint,
)
from probalign.gaussians import GaussianBatch, SimilarityKind
from probalign.losses import LossWeights, pair_loss

DIMS = EncoderDims(input_dim=6, hidden_dim=16, embed_dim=8)


class TestEncode:
    def test_zero_weights_give_zero_outputs(self):
        enc = init_encoder(0, DIMS, bn_enabled=False)
        for name, p in enc.params.items():
            if name not in ("bn_scale",):
                p.data = np.zeros_like(p.data)
        out = enc.encode(np.random.default_rng(0).normal(size=(4, 6)))
        np.testing.assert_array_equal(out.mu.data, 0.0)
        np.testing.assert_array_equal(out.log_var.data, 0.0)

    def test_eval_mode_is_deterministic(self):
        enc = init_encoder(1, DIMS, bn_enabled=True)
        x = np.random.default_rng(1).normal(size=(3, 6))
        a = enc.encode(x, train=False)
        b = enc.encode(x, train=False)
        np.testing.assert_array_equal(a.mu.data, b.mu.data)
        np.testing.assert_array_equal(a.log_var.data, b.log_var.data)

    @pytest.mark.parametrize("bn", [False, True], ids=["plain", "batchnorm"])
    def test_input_is_a_constant(self, bn):
        enc = init_encoder(4, DIMS, bn_enabled=bn)
        x = np.random.default_rng(4).normal(size=(3, 6))
        out = enc.encode(x, train=True)
        loss = ad.mean_all(out.mu + out.log_var)
        assert not any(node.data is x for node in ad._topo_order(loss))
        loss.backward()
        assert enc.params["w1"].grad is not None

    @pytest.mark.parametrize("bn", [False, True], ids=["plain", "batchnorm"])
    def test_eval_mode_builds_no_graph(self, bn):
        enc = init_encoder(5, DIMS, bn_enabled=bn)
        out = enc.encode(np.random.default_rng(5).normal(size=(3, 6)))
        assert out.mu._parents == () and out.log_var._parents == ()

    def test_eval_and_train_modes_agree_bitwise_without_batch_norm(self):
        # One formula: eval mode runs train mode's expressions on the parameters' arrays.
        enc = init_encoder(6, DIMS, bn_enabled=False)
        x = np.random.default_rng(6).normal(size=(5, 6))
        evaluated, trained = enc.encode(x), enc.encode(x, train=True)
        np.testing.assert_array_equal(evaluated.mu.data, trained.mu.data)
        np.testing.assert_array_equal(evaluated.log_var.data, trained.log_var.data)

    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    def test_nan_weight_reaches_the_output(self, train):
        # ReLU passes NaN through in both modes instead of zeroing it.
        enc = init_encoder(7, DIMS, bn_enabled=False)
        enc.params["w1"].data[0, 0] = np.nan
        out = enc.encode(np.random.default_rng(7).normal(size=(4, 6)), train=train)
        assert np.isnan(out.mu.data).all() and np.isnan(out.log_var.data).all()

    def test_input_dim_mismatch(self):
        enc = init_encoder(2, DIMS)
        with pytest.raises(ValueError, match="expected"):
            enc.encode(np.zeros((3, 7)))

    def test_bn_train_needs_batch_of_two(self):
        enc = init_encoder(3, DIMS, bn_enabled=True)
        with pytest.raises(ValueError, match="at least 2"):
            enc.encode(np.zeros((1, 6)), train=True)
        # Without BN a singleton train batch is fine.
        enc2 = init_encoder(3, DIMS, bn_enabled=False)
        enc2.encode(np.zeros((1, 6)), train=True)


class TestBatchNorm:
    def _hidden_after_bn(self, enc, x, train):
        # Recompute the normalized hidden features the way encode() does, by
        # inverting the affine heads is fiddly; instead probe with identity
        # scale/shift and read the statistics of (h - shift) / scale.
        batch = enc.encode(x, train=train)
        return batch

    def test_train_mode_normalizes_batch_statistics(self):
        import probalign.autodiff as ad

        enc = init_encoder(4, DIMS, bn_enabled=True)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(256, 6))
        p = enc.params
        h = ad.relu(ad.matmul(Tensor(x), p["w1"]) + p["b1"])
        h = ad.relu(ad.matmul(h, p["w2"]) + p["b2"])
        normalized = enc._normalize(h, train=True)
        # With scale 1 and shift 0 at init: mean is 0; the variance equals
        # v/(v + eps) exactly, which is 1 up to the eps-induced shrinkage.
        assert np.abs(normalized.data.mean(axis=0)).max() < 1e-6
        v = h.data.var(axis=0)
        expected = v / (v + 1e-5)
        assert np.abs(normalized.data.var(axis=0) - expected).max() < 1e-6
        healthy = v > 0.1
        assert np.abs(normalized.data.var(axis=0)[healthy] - 1.0).max() < 2e-4

    def test_eval_output_independent_of_batch_composition(self):
        enc = init_encoder(5, DIMS, bn_enabled=True)
        rng = np.random.default_rng(5)
        for _ in range(5):  # accumulate running statistics
            enc.encode(rng.normal(size=(32, 6)), train=True)
        x = rng.normal(size=(8, 6))
        alone = enc.encode(x[:1], train=False)
        together = enc.encode(x, train=False)
        # BLAS picks different kernels per matrix shape, so agreement is to
        # rounding noise rather than bitwise.
        np.testing.assert_allclose(alone.mu.data[0], together.mu.data[0], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(
            alone.log_var.data[0], together.log_var.data[0], rtol=1e-12, atol=1e-14
        )
        # Same batch size, different companions: row 0 must agree bitwise.
        x2 = np.concatenate([x[:1], rng.normal(size=(7, 6))])
        other = enc.encode(x2, train=False)
        np.testing.assert_array_equal(other.mu.data[0], together.mu.data[0])

    def test_running_statistics_converge(self):
        # Identity trunk with the relu shifted into its linear region, so the
        # hidden features are exactly the (well-behaved) input distribution
        # plus 10: every channel's statistics are estimable to within the
        # momentum-set noise floor of the exponential average.
        dims = EncoderDims(8, 8, 4)
        enc = init_encoder(6, dims, bn_enabled=True)
        enc.params["w1"].data = np.eye(8)
        enc.params["b1"].data = np.full(8, 10.0)
        enc.params["w2"].data = np.eye(8)
        enc.params["b2"].data = np.zeros(8)
        rng = np.random.default_rng(6)
        scales = np.linspace(0.5, 2.0, 8)
        true_mean = np.full(8, 10.0)
        true_var = scales**2
        for _ in range(1000):
            enc.encode(rng.normal(size=(256, 8)) * scales, train=True)
        assert np.abs(enc.bn_running_mean / true_mean - 1).max() < 0.05
        assert np.abs(enc.bn_running_var / true_var - 1).max() < 0.05

    def test_eval_mode_uses_running_statistics_not_batch(self):
        enc = init_encoder(7, DIMS, bn_enabled=True)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(16, 6))
        before = enc.encode(x, train=False).mu.data.copy()
        enc.encode(rng.normal(size=(64, 6)) + 5.0, train=True)  # shifts running stats
        after = enc.encode(x, train=False).mu.data
        assert not np.array_equal(before, after)


class TestInit:
    def test_same_seed_identical(self):
        e1 = init_encoder(42, DIMS)
        e2 = init_encoder(42, DIMS)
        for name in e1.params:
            np.testing.assert_array_equal(e1.params[name].data, e2.params[name].data)

    def test_different_seeds_differ(self):
        e1 = init_encoder(1, DIMS)
        e2 = init_encoder(2, DIMS)
        assert not np.array_equal(e1.params["w1"].data, e2.params["w1"].data)

    def test_initial_log_var_is_near_zero(self):
        enc = init_encoder(8, DIMS, bn_enabled=False)
        x = np.random.default_rng(8).normal(size=(512, 6))
        out = enc.encode(x)
        assert np.abs(out.log_var.data).mean() < 0.5

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            EncoderDims(0, 4, 4)


class TestGradientsThroughEncoder:
    @pytest.mark.parametrize("bn", [False, True], ids=["plain", "batchnorm"])
    def test_pair_loss_gradient_wrt_all_parameters(self, bn):
        rng = np.random.default_rng(9)
        enc1 = init_encoder(10, DIMS, bn_enabled=bn)
        enc2 = init_encoder(11, EncoderDims(5, 16, 8), bn_enabled=bn)
        x1 = rng.normal(size=(4, 6))
        x2 = rng.normal(size=(4, 5))
        eps = (rng.standard_normal((2, 4, 8)), rng.standard_normal((2, 4, 8)))
        w = LossWeights()
        params = list(enc1.params.values()) + list(enc2.params.values())

        def f(_):
            b1 = enc1.encode(x1, train=True)
            b2 = enc2.encode(x2, train=True)
            total, _ = pair_loss(b1, b2, w, SimilarityKind.HELLINGER, sis_eps=eps)
            return total

        assert grad_check(f, params, h=1e-5) < 1e-4


class TestCheckpoint:
    def _model(self, bn=True):
        dims = {
            Modality.MOD_A: 6,
            Modality.MOD_B: 5,
            Modality.MOD_C: 7,
            Modality.TEXT: 4,
        }
        return AlignmentModel.build(3, dims, hidden_dim=16, embed_dim=8, bn_enabled=bn)

    def test_round_trip_is_bit_identical(self, tmp_path):
        model = self._model()
        rng = np.random.default_rng(10)
        model.encoders[Modality.MOD_A].encode(rng.normal(size=(8, 6)), train=True)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_model_encodes_identically(self, tmp_path):
        model = self._model()
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 6))
        save_checkpoint(model, tmp_path / "m.json")
        loaded = load_checkpoint(tmp_path / "m.json")
        np.testing.assert_array_equal(
            model.encode(Modality.MOD_A, x)[0], loaded.encode(Modality.MOD_A, x)[0]
        )

    def test_format_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError, match="unrecognized format"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text,kind", [("[1]", "list"), ('"x"', "str"), ("null", "NoneType")])
    def test_document_that_is_not_an_object_rejected(self, tmp_path, text, kind):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"checkpoint {path} must be a JSON object, got {kind}"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda doc: doc["encoders"]["mod_b"].pop("hidden_dim"), "the mod_b encoder has no 'hidden_dim' entry"),
            (lambda doc: doc["encoders"]["text"]["params"].pop("w_lv"), "the text encoder has no 'w_lv' entry"),
            (lambda doc: doc["encoders"].pop("mod_c"), "checkpoint: no encoder for mod_c"),
            (lambda doc: doc.update(encoders=5), "checkpoint: 'encoders' must be an object, got int"),
            (lambda doc: doc["encoders"].update(mod_b=5), "checkpoint: the mod_b encoder entry is malformed"),
            (lambda doc: doc["encoders"]["mod_a"].update(bn_enabled=0),
             "the mod_a encoder's bn_enabled must be true or false, got 0"),
            (lambda doc: doc["encoders"]["text"].update(bn_enabled="false"),
             "the text encoder's bn_enabled must be true or false, got 'false'"),
            (lambda doc: doc["encoders"]["mod_c"].pop("bn_enabled"), "the mod_c encoder has no 'bn_enabled' entry"),
            (lambda doc: doc.update(embed_dim="x"), "the top-level embed_dim 'x' is not the mod_a encoder's 8"),
            (lambda doc: doc.update(embed_dim=4), "the top-level embed_dim 4 is not the mod_a encoder's 8"),
            (lambda doc: doc.update(embed_dim=8.0), "the top-level embed_dim 8.0 is not the mod_a encoder's 8"),
        ],
        ids=["no-hidden-dim", "no-param", "one-encoder-missing", "number-encoders", "number-encoder-entry",
             "bn-enabled-0", "bn-enabled-string", "no-bn-enabled", "embed-dim-string", "embed-dim-other",
             "embed-dim-float"],
    )
    def test_missing_key_or_modality_rejected(self, change, message):
        doc = checkpoint_document(self._model())
        change(doc)
        with pytest.raises(ValueError, match=re.escape(message)):
            model_from_document(doc)

    @pytest.mark.parametrize(
        "name,shape",
        [("b1", (1,)), ("w2", (16, 1)), ("b_lv", (8, 1)), ("bn_running_var", (1,))],
        ids=["scalar-bias", "narrow-weight", "column-bias", "scalar-running-var"],
    )
    def test_mis_shaped_array_rejected(self, name, shape):
        # Eval mode's numpy arithmetic would broadcast these instead of failing.
        doc = checkpoint_document(self._model())
        entry = doc["encoders"]["mod_a"]
        (entry["params"] if name in entry["params"] else entry)[name] = encode_array(np.zeros(shape))
        message = f"the mod_a encoder's shapes do not match its dims: {name} {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            model_from_document(doc)

    def test_no_optimizer_block_is_written(self, tmp_path):
        save_checkpoint(self._model(bn=False), tmp_path / "m.json")
        assert "optimizer" not in json.loads((tmp_path / "m.json").read_text())

    def test_older_checkpoint_with_optimizer_block_loads(self, tmp_path):
        model = self._model()
        save_checkpoint(model, tmp_path / "new.json")
        doc = json.loads((tmp_path / "new.json").read_text())
        doc["optimizer"] = {"mod_a": {"step": 5, "m": {}, "v": {}}}
        (tmp_path / "old.json").write_text(json.dumps(doc))
        save_checkpoint(load_checkpoint(tmp_path / "old.json"), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "new.json").read_bytes()

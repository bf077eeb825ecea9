"""Metric and protocol mechanics: retrieval ranks, AUROC, prototypes, probes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from probalign.data import CorpusConfig, generate
from probalign.encoders import AlignmentModel, Modality
from probalign.evaluation import (
    MULTIMODAL_PAIR,
    EvalReport,
    auroc,
    class_prototype,
    encode_prompts,
    few_shot,
    filtered_zero_shot,
    logistic_probe,
    macro_ovr_auroc,
    mean_uncertainty_by_noise,
    multimodal_classify,
    permutation_pvalue,
    probe_scores,
    prompt_uncertainty,
    recall_at_k,
    score_prototypes,
    spearman,
    tied_ranks,
    zero_shot,
)
from probalign.evaluation import _sample_rows, _select_support
from probalign.gaussians import GaussianEmbedding, SimilarityKind, sample

import zero_shot_lists


@pytest.fixture(scope="module")
def model():
    dims = {Modality.MOD_A: 6, Modality.MOD_B: 5, Modality.MOD_C: 7, Modality.TEXT: 4}
    return AlignmentModel.build(9, dims, hidden_dim=16, embed_dim=8, bn_enabled=False)


def tied_ranks_loop(values) -> np.ndarray:
    """Reference for ``tied_ranks``: walk the mergesort order run by run.
    Each NaN compares unequal to everything, so it forms a run of its own."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def logistic_probe_loop(x, y, n_classes, iters=500, lr=0.1, l2=1e-4) -> np.ndarray:
    """Reference for ``logistic_probe``: one 2-D fit, softmax over each sample's row."""
    n, d = x.shape
    xb = np.hstack([x, np.ones((n, 1))])
    one_hot = np.zeros((n, n_classes))
    one_hot[np.arange(n), y] = 1.0
    w = np.zeros((d + 1, n_classes))
    for _ in range(iters):
        logits = xb @ w
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        grad = xb.T @ (p - one_hot) / n
        grad[:-1] += l2 * w[:-1]
        w -= lr * grad
    return w


def probe_scores_loop(w, x) -> np.ndarray:
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    logits = xb @ w
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    return p / p.sum(axis=1, keepdims=True)


def few_shot_one_rng(train_items, train_labels, test_items, test_labels, k_shot, mode, n_samples, rng):
    """Reference for ``few_shot``: one generator, a ``sample`` call per support
    row in sampled mode, and its own 2-D fit."""
    mu_train, lv_train = train_items
    mu_test, _ = test_items
    train_labels, test_labels = np.asarray(train_labels), np.asarray(test_labels)
    classes = sorted(set(int(c) for c in train_labels))
    class_index = {cls: i for i, cls in enumerate(classes)}
    support = _select_support(train_labels, classes, k_shot, rng)
    if mode == "mu_only":
        x = mu_train[support]
        y = np.array([class_index[int(c)] for c in train_labels[support]])
    else:
        rows, y = [], []
        for idx in support:
            rows.append(sample(GaussianEmbedding(mu_train[idx], lv_train[idx]), n_samples, rng))
            y.extend([class_index[int(train_labels[idx])]] * n_samples)
        x, y = np.vstack(rows), np.array(y)
    w = logistic_probe_loop(x, y, len(classes))
    return macro_ovr_auroc(probe_scores_loop(w, mu_test), test_labels, classes)


def rows_of(items, calls=None):
    """An ``embed_train`` over precomputed ``(mu, log_var)`` arrays; appends each
    requested row array to ``calls`` when given."""

    def embed(rows):
        if calls is not None:
            calls.append(rows)
        mu, log_var = items
        return mu[rows], log_var[rows]

    return embed


def views_of(model, views, calls=None):
    """``multimodal_classify``'s embedders: one ``few_shot`` embedder per
    modality of ``MULTIMODAL_PAIR`` that encodes the given rows of its view,
    appending each requested row array to ``calls`` when given."""

    def embedder(modality, x):
        def embed(rows):
            if calls is not None:
                calls.append(rows)
            return model.encode(modality, x[rows])

        return embed

    return [embedder(m, x) for m, x in zip(MULTIMODAL_PAIR, views)]


class TestRecallAtK:
    def test_identity_matrix_perfect(self):
        assert recall_at_k(np.eye(5), list(range(5)), [1, 5]) == {1: 100.0, 5: 100.0}

    def test_reversed_ranking_zero(self):
        sim = -np.eye(10)
        assert recall_at_k(sim + 0.5, list(range(10)), [5]) == {5: 0.0}

    def test_hand_counted_swap(self):
        # Query 0 ranks its ground truth second; the rest rank first.
        sim = np.array(
            [
                [0.2, 0.9, 0.1],
                [0.0, 1.0, 0.0],
                [0.1, 0.2, 0.8],
            ]
        )
        result = recall_at_k(sim, [0, 1, 2], [1, 2])
        assert result[1] == pytest.approx(100 * 2 / 3)
        assert result[2] == pytest.approx(100.0)

    def test_tie_broken_by_lower_gallery_index(self):
        sim = np.array([[0.5, 0.5]])
        assert recall_at_k(sim, [0], [1]) == {1: 100.0}
        assert recall_at_k(sim, [1], [1]) == {1: 0.0}

    def test_ties_before_and_after_ground_truth_match_the_loop(self):
        # Scores on a grid of 4 values, so most rows tie their ground truth
        # both before and after its column; only ties before it lower the rank.
        rng = np.random.default_rng(3)
        sim = rng.integers(0, 4, size=(40, 12)).astype(float)
        gt = rng.integers(0, 12, size=40)
        target = sim[np.arange(40), gt]
        assert any((sim[i, : gt[i]] == target[i]).any() and (sim[i, gt[i] + 1 :] == target[i]).any() for i in range(40))
        ranks = [1 + (sim[i] > target[i]).sum() + (sim[i, : gt[i]] == target[i]).sum() for i in range(40)]
        ks = range(1, 13)
        for i in range(40):
            row = recall_at_k(sim[i : i + 1], [gt[i]], ks)
            assert 1 + sum(v == 0.0 for v in row.values()) == ranks[i]
        expect = {k: 100.0 * np.mean(np.array(ranks) <= k) for k in ks}
        assert recall_at_k(sim, list(gt), ks) == expect

    @pytest.mark.parametrize("gt", [[0, -1, 2], [0, 1, 3]], ids=["negative", "past-the-gallery"])
    def test_ground_truth_outside_gallery_rejected(self, gt):
        with pytest.raises(ValueError, match=r"ground-truth indices must lie in \[0, 3\)"):
            recall_at_k(np.eye(3), gt, [1])

    def test_k_exceeding_gallery_rejected(self):
        with pytest.raises(ValueError, match="K must lie"):
            recall_at_k(np.eye(3), [0, 1, 2], [4])

    def test_monotone_in_k(self):
        rng = np.random.default_rng(0)
        sim = rng.normal(size=(20, 30))
        gt = rng.integers(0, 30, size=20)
        result = recall_at_k(sim, list(gt), [30, 1, 5, 2, 10])
        assert list(result) == [1, 2, 5, 10, 30]
        values = list(result.values())
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert result[30] == 100.0


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_give_half(self):
        assert auroc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_hand_enumeration(self):
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            auroc([0.1, 0.2], [1, 1])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_invariant_under_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        scores = rng.normal(size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = auroc(scores, labels)
        for transform in (np.exp, lambda s: 3 * s + 7, np.arctan):
            assert auroc(transform(scores), labels) == pytest.approx(base, abs=1e-12)

    def test_tied_ranks_average(self):
        np.testing.assert_allclose(tied_ranks([1.0, 2.0, 2.0, 3.0]), [1.0, 2.5, 2.5, 4.0])

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [4.0],
            [2.0, 2.0, 2.0, 2.0],
            [3.0, 1.0, 3.0, 1.0, 2.0, 3.0, 1.0],
            [np.nan, 1.0, np.nan, 1.0, np.inf, -np.inf, np.nan],
            [0.0, -0.0, 0.0, -1.0, -0.0],
            np.random.default_rng(0).integers(0, 5, size=1000).astype(float),
            np.random.default_rng(1).normal(size=1000),
        ],
        ids=["empty", "single", "all_tied", "tie_heavy", "nan_inf", "signed_zeros", "ties_1000", "distinct_1000"],
    )
    def test_tied_ranks_match_loop_oracle_bitwise(self, values):
        got = tied_ranks(values)
        expected = tied_ranks_loop(values)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [5, 4, 3, 2]) == pytest.approx(-1.0)

    def test_constant_series_is_zero(self):
        assert spearman([1, 2, 3], [5, 5, 5]) == 0.0

    def test_matches_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=15)
            y = rng.normal(size=15) + 0.5 * x
            expected = stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(expected, abs=1e-12)


class TestPermutation:
    def test_informative_scores_give_small_p(self):
        rng = np.random.default_rng(2)
        labels = np.array([0] * 50 + [1] * 50)
        scores = labels + 0.3 * rng.normal(size=100)
        out = permutation_pvalue(scores, labels, np.random.default_rng(3), n_permutations=200)
        assert out["p_value"] < 0.01
        assert out["null_mean"] == pytest.approx(0.5, abs=0.05)

    def test_random_scores_give_large_p(self):
        rng = np.random.default_rng(4)
        labels = np.array([0] * 40 + [1] * 40)
        scores = rng.normal(size=80)
        out = permutation_pvalue(scores, labels, np.random.default_rng(5), n_permutations=200)
        assert out["p_value"] > 0.05


class TestPromptsAndPrototypes:
    def test_uncertainty_values(self):
        assert prompt_uncertainty(np.array([[0.0]])).tolist() == [1.0]
        log_4 = 2 * np.log(2.0)
        rows = np.array([[0.0, 0.0], [log_4, log_4], [0.0, log_4]])
        np.testing.assert_allclose(prompt_uncertainty(rows), [1.0, 2.0, 1.5])

    def test_prototype_of_identical_prompts_is_exact(self):
        mu, log_var = np.array([0.1, 0.2, 0.3]), np.array([-0.5, 0.1, 0.4])
        proto_mu, proto_lv = class_prototype(np.stack([mu] * 3), np.stack([log_var] * 3))
        np.testing.assert_array_equal(proto_mu, mu)
        np.testing.assert_array_equal(proto_lv, log_var)

    def test_single_prompt_prototype_is_that_prompt(self):
        mu, log_var = np.array([[0.7, -0.1]]), np.array([[0.3, -0.2]])
        proto_mu, proto_lv = class_prototype(mu, log_var)
        np.testing.assert_array_equal(proto_mu, mu[0])
        np.testing.assert_array_equal(proto_lv, log_var[0])

    def test_prototype_averages_mu_and_var(self):
        proto_mu, proto_lv = class_prototype(np.array([[0.0], [2.0]]), np.log([[1.0], [3.0]]))
        assert proto_mu[0] == pytest.approx(1.0)
        assert np.exp(proto_lv[0]) == pytest.approx(2.0)


class TestZeroShot:
    def _prompts(self, rng, n_per_class=4):
        return {0: rng.normal(size=(n_per_class, 4)), 1: rng.normal(loc=2.0, size=(n_per_class, 4))}

    def test_scores_shape_and_classes(self, model):
        rng = np.random.default_rng(6)
        prompts = self._prompts(rng)
        items = model.encode(Modality.MOD_A, rng.normal(size=(5, 6)))
        encoded = encode_prompts(model, {1: prompts[1], 0: prompts[0]})
        assert list(encoded) == [0, 1]
        result = zero_shot(items, encoded, SimilarityKind.HELLINGER)
        assert result.shape == (5, 2)
        # Columns follow the sorted classes, whatever the dict's order.
        for col, cls in enumerate([0, 1]):
            alone = zero_shot(items, {cls: encoded[cls]}, SimilarityKind.HELLINGER)
            np.testing.assert_array_equal(result[:, col], alone[:, 0])

    def test_item_matching_prototype_scores_highest(self, model):
        prompts = {0: np.zeros((1, 4)), 1: np.full((1, 4), 3.0)}
        result = zero_shot(
            model.encode(Modality.TEXT, np.zeros((1, 4))),
            encode_prompts(model, prompts),
            SimilarityKind.HELLINGER,
        )
        # The item IS the class-0 prompt (same encoder): exact similarity 1.
        assert result[0, 0] == pytest.approx(1.0)
        assert result[0, 0] > result[0, 1]

    def test_full_k_filter_reproduces_zero_shot_bitwise(self, model):
        rng = np.random.default_rng(8)
        prompts = self._prompts(rng)
        items = model.encode(Modality.MOD_A, rng.normal(size=(6, 6)))
        encoded = encode_prompts(model, prompts)
        base = zero_shot(items, encoded, SimilarityKind.HELLINGER)
        filtered = filtered_zero_shot(items, encoded, 4, SimilarityKind.HELLINGER)
        np.testing.assert_array_equal(base, filtered)

    def test_k_one_selects_lowest_uncertainty_prompt(self, model):
        rng = np.random.default_rng(9)
        prompts = self._prompts(rng)
        items = model.encode(Modality.MOD_A, rng.normal(size=(3, 6)))
        encoded = encode_prompts(model, prompts)
        result = filtered_zero_shot(items, encoded, 1, SimilarityKind.HELLINGER)
        chosen = {}
        for cls, (mu, log_var) in encoded.items():
            idx = int(np.argmin(prompt_uncertainty(log_var)))
            chosen[cls] = (mu[[idx]], log_var[[idx]])
        np.testing.assert_array_equal(result, score_prototypes(items, chosen, SimilarityKind.HELLINGER))

    def test_k_out_of_range(self, model):
        rng = np.random.default_rng(10)
        prompts = self._prompts(rng)
        items = model.encode(Modality.MOD_A, rng.normal(size=(2, 6)))
        with pytest.raises(ValueError, match="k must lie"):
            filtered_zero_shot(items, encode_prompts(model, prompts), 5, SimilarityKind.HELLINGER)


class TestZeroShotEqualsListForm:
    """The array form against the list form of ``zero_shot_lists``, bit for bit."""

    @staticmethod
    def _prompts():
        rng = np.random.default_rng(30)
        prompts = {c: rng.normal(loc=c, size=(5, 4)) * [[0.5], [1.0], [2.0], [4.0], [8.0]] for c in (0, 1)}
        prompts[2] = np.full((5, 4), -1.0)  # identical prompts: the exact-average branch
        return prompts

    @pytest.mark.parametrize("kind", list(SimilarityKind))
    def test_zero_shot_and_every_filter(self, model, kind):
        prompts = self._prompts()
        items = model.encode(Modality.MOD_A, np.random.default_rng(31).normal(size=(20, 6)))
        encoded = encode_prompts(model, prompts)
        zero_shot_lists.assert_same(
            zero_shot(items, encoded, kind), zero_shot_lists.zero_shot(model, items, prompts, kind)
        )
        for k in range(1, 6):
            zero_shot_lists.assert_same(
                filtered_zero_shot(items, encoded, k, kind),
                zero_shot_lists.filtered_zero_shot(model, items, prompts, k, kind),
            )

    @pytest.mark.parametrize("kind", list(SimilarityKind))
    @pytest.mark.parametrize("fusion", ["mean", "max"])
    def test_multimodal_zero_shot(self, model, fusion, kind):
        rng = np.random.default_rng(32)
        labels = np.arange(60) % 3
        train = (rng.normal(size=(30, 6)), rng.normal(size=(30, 5)))
        test = (rng.normal(size=(30, 6)) + labels[30:, None], rng.normal(size=(30, 5)) - labels[30:, None])
        prompts = self._prompts()
        out = multimodal_classify(
            model, labels[:30], views_of(model, train), test, labels[30:], 4, prompts, kind,
            np.random.default_rng(33), fusion=fusion,
        )
        encoded = zero_shot_lists.encode_prompts(model, prompts)
        scores = [
            zero_shot_lists.zero_shot_from_encoded(model.encode(m, x), encoded, kind)
            for m, x in zip(MULTIMODAL_PAIR, test)
        ]
        fused = 0.5 * (scores[0] + scores[1]) if fusion == "mean" else np.maximum(*scores)
        names = ["mod_a", "mod_b", "both"]
        assert out["zs"] == {n: macro_ovr_auroc(s, labels[30:], [0, 1, 2]) for n, s in zip(names, [*scores, fused])}


class TestFewShot:
    def _separable(self, rng, n=40, d=6, gap=4.0):
        labels = np.array([0] * (n // 2) + [1] * (n // 2))
        mu = rng.normal(size=(n, d)) + gap * labels[:, None]
        lv = np.full((n, d), -2.0)
        return (mu, lv), labels

    def test_separable_support_perfect_train_accuracy(self):
        rng = np.random.default_rng(11)
        items, labels = self._separable(rng)
        w = logistic_probe(items[0], labels, 2)
        predictions = probe_scores(w, items[0]).argmax(axis=1)
        assert np.array_equal(predictions, labels)

    def test_modes_agree_under_degenerate_sampling(self):
        rng = np.random.default_rng(12)
        items, labels = self._separable(rng)
        frozen = (items[0], np.full_like(items[1], -40.0))
        (test_mu, _), test_labels = self._separable(np.random.default_rng(13))
        [base] = few_shot(labels, rows_of(frozen), test_mu, test_labels, 4, mode="mu_only",
                          rngs=[np.random.default_rng(0)])
        [sampled] = few_shot(labels, rows_of(frozen), test_mu, test_labels, 4, mode="sampled",
                             n_samples=1, rngs=[np.random.default_rng(0)])
        assert abs(base - sampled) < 1e-6

    def test_missing_class_rejected(self):
        rng = np.random.default_rng(14)
        items, labels = self._separable(rng, n=10)
        with pytest.raises(ValueError, match="only"):
            few_shot(labels, rows_of(items), items[0], labels, 8, rngs=[np.random.default_rng(0)])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(15)
        items, labels = self._separable(rng)
        (test_mu, _), test_labels = self._separable(np.random.default_rng(16))
        a = few_shot(labels, rows_of(items), test_mu, test_labels, 4, mode="sampled",
                     n_samples=8, rngs=[np.random.default_rng(42)])
        b = few_shot(labels, rows_of(items), test_mu, test_labels, 4, mode="sampled",
                     n_samples=8, rngs=[np.random.default_rng(42)])
        assert a == b

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            few_shot([], rows_of([]), [], [], 1, mode="typo")


class TestStackedProbe:
    @pytest.mark.parametrize(
        "n_classes,d,n",
        [(c, d, n) for c in (2, 5) for d in (32, 64) for n in (10, 160, 1280)] + [(3, 32, 160), (7, 32, 160)],
    )
    def test_stack_equals_separate_fits_bitwise(self, n_classes, d, n):
        rng = np.random.default_rng([n_classes, d, n])
        x = rng.normal(size=(3, n, d)) + rng.normal(size=(3, 1, d))
        y = rng.integers(0, n_classes, size=(3, n))
        w = logistic_probe(x, y, n_classes)
        assert w.shape == (3, d + 1, n_classes)
        for s in range(3):
            assert np.array_equal(w[s], logistic_probe_loop(x[s], y[s], n_classes))

    def test_2d_input_and_nested_stacks_fit_as_before(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, 40, 8))
        y = rng.integers(0, 5, size=(2, 2, 40))
        w = logistic_probe(x, y, 5)
        assert w.shape == (2, 2, 9, 5)
        for i in range(2):
            for j in range(2):
                ref = logistic_probe_loop(x[i, j], y[i, j], 5)
                assert np.array_equal(logistic_probe(x[i, j], y[i, j], 5), ref)
                assert np.array_equal(w[i, j], ref)

    @pytest.mark.parametrize("n_classes", [8, 12])
    def test_eight_or_more_classes_sum_in_another_order(self, n_classes):
        # numpy adds 8 or more values along a row pairwise; the stack adds rows
        # in order, so the fits agree to rounding only.
        rng = np.random.default_rng(n_classes)
        x = rng.normal(size=(2, 200, 16))
        y = rng.integers(0, n_classes, size=(2, 200))
        w = logistic_probe(x, y, n_classes)
        for s in range(2):
            np.testing.assert_allclose(w[s], logistic_probe_loop(x[s], y[s], n_classes), rtol=0, atol=1e-12)

    def test_stacked_scores_equal_each_probe(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(3, 9, 5))
        x = rng.normal(size=(50, 8))
        scores = probe_scores(w, x)
        for s in range(3):
            assert np.array_equal(scores[s], probe_scores_loop(w[s], x))

    def test_sample_rows_equal_a_sample_call_per_row(self):
        rng = np.random.default_rng(5)
        mu, lv = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        ours, theirs = np.random.default_rng(6), np.random.default_rng(6)
        expanded = _sample_rows(mu, lv, 16, ours)
        rows = [sample(GaussianEmbedding(m, v), 16, theirs) for m, v in zip(mu, lv)]
        assert np.array_equal(expanded, np.vstack(rows))
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestStackedFewShot:
    def _pool(self, rng, n, n_classes=5, d=8):
        labels = np.arange(n) % n_classes
        mu = rng.normal(size=(n, d)) + 1.5 * np.eye(n_classes, d)[labels]
        lv = rng.normal(scale=0.5, size=(n, d)) - 1.0
        return (mu, lv), labels

    @pytest.mark.parametrize("mode,n_samples", [("mu_only", 16), ("sampled", 16), ("sampled", 1)])
    def test_generators_equal_one_run_each(self, mode, n_samples):
        rng = np.random.default_rng(20)
        train, y_train = self._pool(rng, 200)
        test, y_test = self._pool(rng, 100)
        ours = [np.random.default_rng([7, s]) for s in range(5)]
        theirs = [np.random.default_rng([7, s]) for s in range(5)]
        got = few_shot(y_train, rows_of(train), test[0], y_test, 4, mode=mode, n_samples=n_samples, rngs=ours)
        want = [
            few_shot_one_rng(train, y_train, test, y_test, 4, mode, n_samples, g) for g in theirs
        ]
        assert got == want
        assert [g.bit_generator.state for g in ours] == [g.bit_generator.state for g in theirs]

    @pytest.mark.parametrize("mode", ["mu_only", "sampled"])
    def test_embeds_only_the_sorted_union_of_the_support_sets(self, mode):
        train, y_train = self._pool(np.random.default_rng(25), 200)
        test, y_test = self._pool(np.random.default_rng(26), 50)
        calls = []
        few_shot(y_train, rows_of(train, calls), test[0], y_test, 4, mode=mode,
                 rngs=[np.random.default_rng([8, s]) for s in range(3)])
        supports = [_select_support(y_train, range(5), 4, np.random.default_rng([8, s])) for s in range(3)]
        [rows] = calls
        assert rows.tolist() == sorted(set(np.concatenate(supports).tolist()))

    def test_empty_rngs_rejected(self):
        items, labels = self._pool(np.random.default_rng(21), 20)
        with pytest.raises(ValueError, match="rngs must hold at least one generator"):
            few_shot(labels, rows_of(items), items[0], labels, 2, rngs=[])

    def test_k_shot_below_1_rejected(self):
        items, labels = self._pool(np.random.default_rng(22), 20)
        with pytest.raises(ValueError, match="k_shot must be >= 1, got 0"):
            few_shot(labels, rows_of(items), items[0], labels, 0, rngs=[np.random.default_rng(0)])


class TestMultimodal:
    def test_redundant_modalities_keep_concat_competitive(self, model):
        # Both views carry the same signal: the concatenation must not lose it.
        rng = np.random.default_rng(17)
        n = 120
        labels = np.array([0, 1] * (n // 2))
        signal = labels[:, None] * 2.0
        x_a = np.hstack([signal + 0.1 * rng.normal(size=(n, 1))] * 6)
        x_b = np.hstack([signal + 0.1 * rng.normal(size=(n, 1))] * 5)
        prompts = {0: np.zeros((1, 4)), 1: np.ones((1, 4))}
        out = multimodal_classify(
            model,
            labels[: n // 2],
            views_of(model, (x_a[: n // 2], x_b[: n // 2])),
            (x_a[n // 2 :], x_b[n // 2 :]),
            labels[n // 2 :],
            8,
            prompts,
            SimilarityKind.HELLINGER,
            np.random.default_rng(18),
        )
        assert set(out["fs"]) == {"mod_a", "mod_b", "both"}
        assert out["fs"]["both"] >= max(out["fs"]["mod_a"], out["fs"]["mod_b"]) - 0.01

    def test_few_shot_equals_three_separate_fits(self, model):
        rng = np.random.default_rng(23)
        n = 80
        labels = np.arange(n) % 3
        x_a = rng.normal(size=(n, 6)) + labels[:, None]
        x_b = rng.normal(size=(n, 5)) - labels[:, None]
        half = n // 2
        prompts = {c: np.full((1, 4), float(c)) for c in range(3)}
        calls = []
        out = multimodal_classify(
            model, labels[:half], views_of(model, (x_a[:half], x_b[:half]), calls), (x_a[half:], x_b[half:]),
            labels[half:], 4, prompts, SimilarityKind.HELLINGER, np.random.default_rng(24),
        )
        views = ((Modality.MOD_A, x_a), (Modality.MOD_B, x_b))
        mu_train = [model.encode(m, x[:half])[0] for m, x in views]
        mu_test = [model.encode(m, x[half:])[0] for m, x in views]
        support = _select_support(labels[:half], [0, 1, 2], 4, np.random.default_rng(24))
        # Only the support rows were encoded, in ascending order.
        assert calls and all(rows.tolist() == sorted(support.tolist()) for rows in calls)
        want = {}
        for name, x_train, x_test in zip(
            ["mod_a", "mod_b", "both"], [*mu_train, np.hstack(mu_train)], [*mu_test, np.hstack(mu_test)]
        ):
            w = logistic_probe_loop(x_train[support], labels[:half][support], 3)
            want[name] = macro_ovr_auroc(probe_scores_loop(w, x_test), labels[half:], [0, 1, 2])
        assert out["fs"] == want

    @pytest.mark.parametrize("n_classes,k_shot", [(2, 4), (8, 3)])
    def test_few_shot_half_equals_one_support_draw(self, model, n_classes, k_shot):
        # fs_mod_a, fs_mod_b and fs_both all fit the support rows of one draw
        # from the generator passed in; each scored by the macro one-vs-rest
        # AUROC, at 2 classes as at 8.
        rng = np.random.default_rng(25)
        n = 20 * n_classes
        labels = np.arange(n) % n_classes
        x_a = rng.normal(size=(n, 6)) + labels[:, None]
        x_b = rng.normal(size=(n, 5)) - 0.5 * labels[:, None]
        half = n // 2
        prompts = {c: np.full((1, 4), float(c)) for c in range(n_classes)}
        out = multimodal_classify(
            model, labels[:half], views_of(model, (x_a[:half], x_b[:half])), (x_a[half:], x_b[half:]),
            labels[half:], k_shot, prompts, SimilarityKind.HELLINGER, np.random.default_rng(26),
        )
        classes = list(range(n_classes))
        support = _select_support(labels[:half], classes, k_shot, np.random.default_rng(26))
        mu_train = [model.encode(m, x[:half])[0][support] for m, x in zip(MULTIMODAL_PAIR, (x_a, x_b))]
        mu_test = [model.encode(m, x[half:])[0] for m, x in zip(MULTIMODAL_PAIR, (x_a, x_b))]
        want = {}
        for name, x_train, x_test in zip(
            ["mod_a", "mod_b", "both"], [*mu_train, np.hstack(mu_train)], [*mu_test, np.hstack(mu_test)]
        ):
            w = logistic_probe(x_train, labels[:half][support], n_classes)
            want[name] = macro_ovr_auroc(probe_scores(w, x_test), labels[half:], classes)
        assert out["fs"] == want

    def test_k_shot_below_1_rejected(self, model):
        with pytest.raises(ValueError, match="k_shot must be >= 1, got 0"):
            multimodal_classify(
                model,
                [0, 0, 1, 1],
                views_of(model, (np.zeros((4, 6)), np.zeros((4, 5)))),
                (np.zeros((4, 6)), np.zeros((4, 5))),
                [0, 0, 1, 1],
                0,
                {0: np.zeros((1, 4)), 1: np.ones((1, 4))},
                SimilarityKind.HELLINGER,
                np.random.default_rng(0),
            )

    def test_fusion_validation(self, model):
        with pytest.raises(ValueError, match="unknown fusion"):
            multimodal_classify(
                model,
                [0, 0, 1, 1],
                views_of(model, (np.zeros((4, 6)), np.zeros((4, 5)))),
                (np.zeros((4, 6)), np.zeros((4, 5))),
                [0, 0, 1, 1],
                2,
                {0: np.zeros((1, 4)), 1: np.ones((1, 4))},
                SimilarityKind.HELLINGER,
                np.random.default_rng(0),
                fusion="typo",
            )


class TestNoiseProbe:
    def test_level_zero_matches_clean_encoding(self, model):
        rng = np.random.default_rng(19)
        items = rng.normal(size=(5, 6))
        series, _ = mean_uncertainty_by_noise(
            model, Modality.MOD_A, items, [0.0, 0.5, 1.0], np.random.default_rng(20)
        )
        _, clean_log_var = model.encode(Modality.MOD_A, items)
        assert series[0][1] == pytest.approx(np.mean(prompt_uncertainty(clean_log_var)))

    def test_deterministic_given_seed(self, model):
        rng = np.random.default_rng(21)
        items = rng.normal(size=(5, 6))
        p1 = mean_uncertainty_by_noise(model, Modality.MOD_A, items, [0.0, 1.0], np.random.default_rng(7))
        p2 = mean_uncertainty_by_noise(model, Modality.MOD_A, items, [0.0, 1.0], np.random.default_rng(7))
        assert p1 == p2

    def test_levels_must_ascend_from_zero(self, model):
        with pytest.raises(ValueError, match="ascend"):
            mean_uncertainty_by_noise(
                model, Modality.MOD_A, np.zeros((2, 6)), [0.5, 1.0], np.random.default_rng(0)
            )
        with pytest.raises(ValueError, match="ascend"):
            mean_uncertainty_by_noise(
                model, Modality.MOD_A, np.zeros((2, 6)), [0.0, 1.0, 0.5], np.random.default_rng(0)
            )

    def test_batch_version_returns_probe(self, model):
        rng = np.random.default_rng(22)
        items = rng.normal(size=(10, 6))
        series, rho = mean_uncertainty_by_noise(
            model, Modality.MOD_A, items, [0.0, 1.0, 2.0], np.random.default_rng(1)
        )
        assert [level for level, _ in series] == [0.0, 1.0, 2.0]
        assert rho == spearman([0.0, 1.0, 2.0], [value for _, value in series])


class TestEvalReport:
    def test_round_trip(self, tmp_path):
        report = EvalReport("retrieval", {"rsum": 123.4}, {"tasks": {"a": 1}})
        report.save(tmp_path / "r.json")
        again = json.loads((tmp_path / "r.json").read_text())
        assert again == {"protocol": "retrieval", "metrics": {"rsum": 123.4}, "details": {"tasks": {"a": 1}}}

    def test_numpy_values_serialize(self, tmp_path):
        report = EvalReport("x", {"v": np.float64(1.5)}, {"arr": np.arange(3)})
        report.save(tmp_path / "n.json")
        again = json.loads((tmp_path / "n.json").read_text())
        assert again["metrics"]["v"] == 1.5
        assert again["details"]["arr"] == [0, 1, 2]


def test_macro_ovr_matches_binary_auroc():
    rng = np.random.default_rng(23)
    labels = rng.integers(0, 2, size=50)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    scores1 = rng.normal(size=50)
    matrix = np.stack([-scores1, scores1], axis=1)
    macro = macro_ovr_auroc(matrix, labels, [0, 1])
    assert macro == pytest.approx(
        0.5 * (auroc(-scores1, (labels == 0).astype(int)) + auroc(scores1, labels))
    )

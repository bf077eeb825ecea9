"""What the learned variances buy you: three uncertainty-driven protocols.

1. Prompt filtering: build zero-shot class prototypes from only the
   least-uncertain text prompts and compare against using all prompts.
2. Sampling-based few-shot: expand a tiny support set with reparameterized
   draws before fitting the linear probe.
3. Noise probe: predicted uncertainty should grow with input corruption.

Trains a small model first (about a minute on one core).

Run:  python demos/04_uncertainty_tools.py
"""

import numpy as np

from probalign.data import NOISY_PROMPT_SCALE, CorpusConfig, Modality, generate, synth_text_prompts
from probalign.evaluation import (
    PromptSet,
    encode_prompts,
    few_shot,
    filtered_zero_shot,
    macro_ovr_auroc,
    mean_uncertainty_by_noise,
    zero_shot,
)
from probalign.gaussians import SimilarityKind
from probalign.training import TrainConfig, train

A, T = Modality.MOD_A, Modality.TEXT
KIND = SimilarityKind.HELLINGER

corpus = generate(CorpusConfig(n_records=4000), seed=7)
result = train(corpus=corpus, cfg=TrainConfig(total_steps=1000, batch_size=48, seed=1, eval_every=500))
model = result.model
print(f"trained: best validation RSUM {result.best_rsum:.1f}\n")

# A split is columns; rows are picked with index arrays.
test_rows = corpus.test.rows_with_views(A)
items = model.encode(A, corpus.test.views[A][test_rows])
labels = corpus.test.labels[test_rows]

# -- 1. uncertainty-based prompt filtering ----------------------------------
rng = np.random.default_rng(3)
clean = synth_text_prompts(corpus, 3, rng=rng)
noisy_scale = corpus.config.noise_scales[T] * NOISY_PROMPT_SCALE
noisy = synth_text_prompts(corpus, 3, noise_scale=noisy_scale, rng=rng)
prompts = PromptSet({c: clean[c] + noisy[c] for c in clean})

encoded = encode_prompts(model, prompts)
base = zero_shot(items, encoded, KIND)
print("Zero-shot with 3 clean + 3 noisy prompts per class.")
unc = base.prompt_uncertainties[0]
print(f"  predicted prompt uncertainty, class 0: clean {np.round(unc[:3], 3)} noisy {np.round(unc[3:], 3)}")
print(f"  all prompts:   macro AUROC {macro_ovr_auroc(base.scores, labels, base.classes):.4f}")
for k in (1, 2, 3, 4, 5):
    r = filtered_zero_shot(items, encoded, k, KIND)
    print(f"  keep best {k}:   macro AUROC {macro_ovr_auroc(r.scores, labels, r.classes):.4f}")

# -- 2. sampling-based few-shot ----------------------------------------------
print("\nFew-shot linear probe, mean-only vs sampling-expanded support:")
train_rows = corpus.train.rows_with_views(A)
tr_labels = corpus.train.labels[train_rows]


def embed_train(rows):
    # few_shot asks for the support rows only, so only those are encoded.
    return model.encode(A, corpus.train.views[A][train_rows[rows]])


for shot in (2, 4, 8):
    args = (tr_labels, embed_train, items[0], labels, shot)  # test items scored on their means
    mu_only = few_shot(*args, mode="mu_only", rngs=[np.random.default_rng([shot, s]) for s in range(5)])
    sampled = few_shot(
        *args, mode="sampled", n_samples=16, rngs=[np.random.default_rng([shot, s]) for s in range(5)]
    )
    print(
        f"  {shot}-shot over 5 seeds: mu-only {np.mean(mu_only):.4f}   "
        f"sampled(16) {np.mean(sampled):.4f}"
    )

# -- 3. uncertainty under input noise ----------------------------------------
print("\nMean predicted uncertainty under growing input noise (100 items):")
probe = mean_uncertainty_by_noise(
    model, A, corpus.test.views[A][test_rows[:100]], [0, 0.5, 1, 2, 3, 5], np.random.default_rng(4)
)
for level, value in probe.series:
    print(f"  noise sd {level:4.1f} -> mean sigma {value:.4f}")
print(f"  Spearman(level, uncertainty) = {probe.spearman:.3f}")

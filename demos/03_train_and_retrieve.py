"""Generate a synthetic multimodal corpus, train the encoders, run retrieval.

A compressed version of the full pipeline (small corpus, few steps) that
prints the contrastive loss falling and text->modality recall rising. Takes
roughly a minute on one core.

Run:  python demos/03_train_and_retrieve.py
"""

import numpy as np

from probalign.data import CorpusConfig, Modality, TRAINABLE_PAIRS, generate
from probalign.evaluation import recall_at_k
from probalign.gaussians import SimilarityKind, pairwise_similarity_arrays
from probalign.training import TrainConfig, train, validation_retrieval

corpus = generate(CorpusConfig(n_records=3000), seed=7)
print("Corpus: 3000 records, 5 latent classes, pair availability per split:")
for pair in TRAINABLE_PAIRS:
    name = " + ".join(m.value for m in pair)
    counts = [len(s.pair_rows(pair)) for s in corpus.splits.values()]
    print(f"  {name:16s} train/valid/test = {counts}")

cfg = TrainConfig(total_steps=800, batch_size=48, seed=1, eval_every=200)
print(f"\nTraining {cfg.total_steps} steps (hellinger, alpha=1.0 beta=0.5 gamma=1e-4 tau=0.07)...")
result = train(cfg, corpus)
for v in result.validation_history:
    print(f"  step {v['step']:4d}: validation RSUM {v['rsum']:6.2f}   symmetric InfoNCE {v['info_nce']:.4f}")
print(f"  untrained InfoNCE level is ln(batch) = {np.log(cfg.batch_size):.4f}")

model = result.model
print("\nTest-split text->modality retrieval with the trained model:")
out = validation_retrieval(model, corpus.test, SimilarityKind.HELLINGER)
for task, recalls in out["tasks"].items():
    print(f"  {task:15s} {recalls}")
print(f"  RSUM = {out['rsum']:.2f}")

print("\nSame retrieval ranked by cosine on the means only:")
out_cos = validation_retrieval(model, corpus.test, SimilarityKind.COSINE)
print(f"  RSUM = {out_cos['rsum']:.2f}")

print("\nPer-query example: the five nearest gallery items for one text query.")
# A split is columns; rows are picked with index arrays.
test = corpus.test
pool = test.pair_rows((Modality.MOD_A, Modality.TEXT))[:200]
texts = test.text[pool, 0]  # each record's first text variant
views = test.views[Modality.MOD_A][pool]
ids, labels = test.record_ids[pool], test.labels[pool]
# encode returns (mu, log_var) arrays, the kernel's arguments.
sim = pairwise_similarity_arrays(
    *model.encode(Modality.TEXT, texts), *model.encode(Modality.MOD_A, views), SimilarityKind.HELLINGER
)
top = np.argsort(-sim[0])[:5]
print(f"  query record {ids[0]} (class {labels[0]}) ->")
for rank, g in enumerate(top, 1):
    marker = "  <-- ground truth" if g == 0 else ""
    print(f"    rank {rank}: record {ids[g]} (class {labels[g]}), PS={sim[0, g]:.4f}{marker}")
result5 = recall_at_k(sim, list(range(len(pool))), [1, 5])
print(f"  over these {len(pool)} queries: R@1={result5.recall_at[1]:.1f}  R@5={result5.recall_at[5]:.1f}")

"""The benchmark's tracer (perfbench/spans.py) wraps probalign functions by
module attribute, some of them imported only so the tracer can wrap them
there (``cli.auroc``). Installing it must keep working, so that removing such
a name breaks this test rather than ``perfbench/run.py --trace 1``. The
tracer also reads call shapes: the similarity kind as the fifth positional
argument of ``pairwise_similarity_arrays``, and eval mode from an
``Encoder.encode`` call without ``train``; the evaluation paths must still
record those spans. It counts a ``pair_loss`` graph's nodes by walking
``Tensor._parents``, and the count must not change when the engine does. Its
set-up layers wrap ``generate``, ``write_corpus`` and ``read_corpus`` as
``cli`` attributes, so ``gen`` and a corpus read must still pass through them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs in a child process: install() replaces module attributes for good.
TRACED_CALLS = """
import json
import spans
from probalign import data, evaluation, training
from probalign.encoders import AlignmentModel, Modality

tracer = spans.Tracer()
spans.install(tracer)
corpus = data.generate(data.CorpusConfig(n_records=200, latent_dim=4), 0)
model = AlignmentModel.build(0, corpus.config.view_dims, hidden_dim=8, embed_dim=4)
test = corpus.test
items = model.encode(Modality.MOD_A, test.views[Modality.MOD_A][test.calls_for(Modality.MOD_A)])
prompts = {0: items, 1: model.encode(Modality.TEXT, test.text[test.calls_for(Modality.TEXT), 0])}
names = {}
for kind in spans.KINDS:
    tracer.spans.clear()
    evaluation.score_prototypes(items, prompts, kind)
    names["score_prototypes." + kind] = [span[0] for span in tracer.spans]
tracer.spans.clear()
training.validation_retrieval(model, corpus.train, "csd")
names["validation_retrieval"] = [span[0] for span in tracer.spans]
print(json.dumps(names))
"""

# One traced pair_loss per similarity kind, through two train-mode encoders.
TRACED_PAIR_LOSS = """
import json
import numpy as np
import spans
from probalign import training
from probalign.encoders import EncoderDims, init_encoder
from probalign.gaussians import SimilarityKind
from probalign.losses import LossWeights

tracer = spans.Tracer()
spans.install(tracer)
rng = np.random.default_rng(0)
enc1 = init_encoder(0, EncoderDims(6, 8, 4), bn_enabled=True)
enc2 = init_encoder(1, EncoderDims(5, 8, 4), bn_enabled=True)
counts = {}
for kind in spans.KINDS:
    tracer.counters.clear()
    b1 = enc1.encode(rng.normal(size=(8, 6)), train=True)
    b2 = enc2.encode(rng.normal(size=(8, 5)), train=True)
    training.pair_loss(b1, b2, LossWeights(), SimilarityKind(kind), rng=rng)
    counts[kind] = tracer.counters[(0, "losses.pair_loss.graph_nodes")]
print(json.dumps(counts))
"""

# gen through cli.main, then a corpus read through cli: the benchmark's set-up layers.
TRACED_CORPUS = """
import json
import tempfile
from pathlib import Path
import spans
from probalign import cli

tracer = spans.Tracer()
spans.install(tracer)
with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    (root / "config.json").write_text(json.dumps({"seed": 1, "corpus": {"n_records": 50}}))
    code = cli.main(["gen", "--config", str(root / "config.json"), "--out", str(root / "corpus")])
    corpus = cli.read_corpus(root / "corpus")
    print(json.dumps({"code": code, "train": len(corpus.train), "spans": [span[0] for span in tracer.spans]}))
"""


def run_traced(code: str) -> subprocess.CompletedProcess:
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        timeout=120,
    )


def test_perfbench_tracer_installs():
    proc = run_traced("import spans; spans.install(spans.Tracer())")
    assert proc.returncode == 0, proc.stderr


def test_evaluation_calls_record_kind_and_eval_spans():
    proc = run_traced(TRACED_CALLS)
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout)
    for kind in ("hellinger", "bhattacharyya", "csd", "cosine"):
        assert f"gaussians.pairwise_similarity_arrays.{kind}" in names[f"score_prototypes.{kind}"]
    recorded = names["validation_retrieval"]
    assert "training.validation_retrieval" in recorded
    assert "gaussians.pairwise_similarity_arrays.csd" in recorded
    assert "encoders.encode.eval" in recorded and "encoders.encode.train" not in recorded


def test_pair_loss_graph_node_counts_are_unchanged():
    # The counts the engine gave before its ops were built through one node
    # constructor: the graph is the same op for op.
    proc = run_traced(TRACED_PAIR_LOSS)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"hellinger": 116, "bhattacharyya": 109, "csd": 109, "cosine": 112}


def test_gen_and_corpus_read_record_the_setup_spans():
    proc = run_traced(TRACED_CORPUS)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 0 and out["train"] == 40
    for name in ("data.generate", "data.write_corpus", "data.read_corpus"):
        assert name in out["spans"]

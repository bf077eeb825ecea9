"""In-memory spans around calls into probalign's modules, and their summary.

A span is ``[name, start, end, parent, pass_id]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 at the
top) and ``pass_id`` the workload iteration the call belongs to. Wrappers are
installed from here, never inside ``src/``: each replaces a public function in
the namespace it is *called through*. A name imported with ``from .x import f``
is therefore wrapped in the importing module (``training.pair_loss``,
``cli.read_corpus``), and a method on its class (``Tensor.backward``,
``Encoder.encode``). Spans are named ``<defining module>.<function>``.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import time

KINDS = ("hellinger", "bhattacharyya", "csd", "cosine")

VERIFICATION_CHECKS = (
    "check_hellinger_quadrature",
    "check_vib_monte_carlo",
    "check_csd_monte_carlo",
    "check_gaussian_identity",
    "check_similarity_gradients",
    "check_pair_loss_gradient",
)

# Every per-layer metric, in the order BENCHMARK.json lists them, with its unit.
# A layer the workload never calls reports 0.
LAYER_METRICS = {
    "autodiff.backward.ms_p50": "ms",
    "losses.pair_loss.ms_p50": "ms",
    "losses.sis_loss.ms_p50": "ms",
    "losses.pair_loss.graph_nodes": "count",
    "gaussians.pairwise_similarity_graph.ms_p50": "ms",
    **{f"gaussians.pairwise_similarity_arrays.{k}.s": "s" for k in KINDS},
    **{f"gaussians.pairwise_similarity_arrays.{k}.pairs": "count" for k in KINDS},
    "gaussians.pairwise_similarity_arrays.rss_rise_mb": "MB",
    "encoders.encode.train.ms_p50": "ms",
    "encoders.encode.eval.s": "s",
    "encoders.save_checkpoint.s": "s",
    "encoders.load_checkpoint.s": "s",
    "training.train_step.self_ms_p50": "ms",
    "training.train.self_s": "s",
    "training.validation_retrieval.s": "s",
    "training.validation_retrieval.calls": "count",
    "training.validation_info_nce.s": "s",
    "data.pair_batch.ms_p50": "ms",
    "data.generate.s": "s",
    "data.write_corpus.s": "s",
    "data.corpus_bytes": "bytes",
    "data.read_corpus.s": "s",
    "data.read_corpus.calls": "count",
    "evaluation.recall_at_k.s": "s",
    "evaluation.auroc.s": "s",
    "evaluation.auroc.calls": "count",
    "evaluation.logistic_probe.s": "s",
    "evaluation.logistic_probe.calls": "count",
    "evaluation.zero_shot.s": "s",
    "evaluation.filtered_zero_shot.s": "s",
    "evaluation.multimodal_classify.s": "s",
    "evaluation.mean_uncertainty_by_noise.s": "s",
    **{f"verification.{c}.s": "s" for c in VERIFICATION_CHECKS},
    "cli.main.self_s": "s",
    "trace_overhead.pass_s": "s",
    "trace_overhead.peak_rss_mb": "MB",
}

# Layers that train and eval call only in set-up, where their corpus is
# written: a traced run adds the set-up's value to the measured passes' value.
SETUP_LAYERS = ("data.generate.s", "data.write_corpus.s", "data.corpus_bytes")

# Metrics that must repeat exactly from one pass to the next of the same run.
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS.items() if unit in ("count", "bytes"))


class Tracer:
    """Collects spans and per-pass counters; one per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pass_id = 0
        self.counters: dict[tuple[int, str], int] = {}
        self.rss_rise_mb = 0.0

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def add(self, key: str, value: int) -> None:
        slot = (self.pass_id, key)
        self.counters[slot] = self.counters.get(slot, 0) + value

    def wrap(self, fn, name, after=None):
        """``fn`` timed as a span; ``name`` is a string or ``f(args, kwargs)``.

        ``after(result)`` runs outside the span, so its cost is not charged to it.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = self.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result)
            return result

        return wrapper

    def stream(self, make, name: str):
        """Wrap a batch-stream factory so each ``next()`` is a span."""

        @functools.wraps(make)
        def wrapper(*args, **kwargs):
            return self._timed(make(*args, **kwargs), name)

        return wrapper

    def _timed(self, stream, name):
        while True:
            index = self.open(name)
            try:
                item = next(stream)
            except StopIteration:
                return
            finally:
                self.close(index)
            yield item

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"], "spans": self.spans}, fh)


def graph_nodes(root) -> int:
    """Distinct autodiff nodes reachable from ``root`` through ``_parents``."""
    seen = {id(root)}
    todo = [root]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def install(tracer: Tracer) -> None:
    """Install every layer wrapper; call once, before the first traced pass."""
    from probalign import autodiff, cli, data, encoders, evaluation, gaussians, losses
    from probalign import training, verification

    def patch(module, attr, name, after=None):
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, after))

    autodiff.Tensor.backward = tracer.wrap(autodiff.Tensor.backward, "autodiff.backward")
    encoders.Encoder.encode = tracer.wrap(
        encoders.Encoder.encode,
        lambda a, k: "encoders.encode.train"
        if k.get("train", a[2] if len(a) > 2 else False)
        else "encoders.encode.eval",
    )

    def count_nodes(result):
        # A span of its own, so the walk is not charged to the caller's self time.
        index = tracer.open("perfbench.graph_walk")
        try:
            tracer.add("losses.pair_loss.graph_nodes", graph_nodes(result[0]))
        finally:
            tracer.close(index)

    for module in (training, verification):
        patch(module, "pair_loss", "losses.pair_loss", count_nodes)
    patch(losses, "sis_loss", "losses.sis_loss")
    for module in (losses, verification):
        patch(module, "pairwise_similarity_graph", "gaussians.pairwise_similarity_graph")

    def similarity_arrays(fn):
        # Spans per kind; counts the pairs scored and how far the process's
        # peak RSS rose during the call (the kernel's temporaries).
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kind = gaussians.SimilarityKind(kwargs.get("kind", args[4] if len(args) > 4 else None))
            label = f"gaussians.pairwise_similarity_arrays.{kind.value}"
            before = _maxrss_mb()
            index = tracer.open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer.rss_rise_mb += _maxrss_mb() - before
            tracer.add(label + ".pairs", int(out.size))
            return out

        return wrapper

    for module in (training, cli, evaluation):
        module.pairwise_similarity_arrays = similarity_arrays(module.pairwise_similarity_arrays)

    patch(training, "save_checkpoint", "encoders.save_checkpoint")
    patch(cli, "load_checkpoint", "encoders.load_checkpoint")
    patch(training, "train_step", "training.train_step")
    patch(cli, "train", "training.train")
    for module in (training, cli):
        patch(module, "validation_retrieval", "training.validation_retrieval")
    patch(training, "validation_info_nce", "training.validation_info_nce")
    training.make_pair_batches = tracer.stream(training.make_pair_batches, "data.pair_batch")

    patch(cli, "generate", "data.generate")
    patch(cli, "write_corpus", "data.write_corpus")
    for module in (cli, data):
        patch(module, "read_corpus", "data.read_corpus")

    # validation_retrieval imports recall_at_k from evaluation at call time.
    patch(evaluation, "recall_at_k", "evaluation.recall_at_k")
    for module in (evaluation, cli):
        patch(module, "auroc", "evaluation.auroc")
    patch(evaluation, "logistic_probe", "evaluation.logistic_probe")
    for fn in ("zero_shot", "filtered_zero_shot", "multimodal_classify", "mean_uncertainty_by_noise"):
        patch(cli, fn, f"evaluation.{fn}")

    for check in VERIFICATION_CHECKS:
        patch(verification, check, f"verification.{check}")

    patch(cli, "main", "cli.main")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(tracer: Tracer, n_passes: int) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, plus the per-pass counts behind them.

    ``.ms_p50`` is the median over all calls; ``.s`` and ``.self_s`` are the
    per-pass total, median over passes; counts are per pass and returned for
    every pass so the caller can check that they repeat exactly.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    durations: dict[str, list[float]] = {}
    selfs: dict[str, list[float]] = {}
    per_pass: dict[tuple[str, int], float] = {}
    per_pass_self: dict[tuple[str, int], float] = {}
    calls: dict[tuple[str, int], int] = {}
    for i, (name, start, end, parent, pass_id) in enumerate(spans):
        dur = end - start
        durations.setdefault(name, []).append(dur)
        selfs.setdefault(name, []).append(dur - child_time[i])
        per_pass[name, pass_id] = per_pass.get((name, pass_id), 0.0) + dur
        per_pass_self[name, pass_id] = per_pass_self.get((name, pass_id), 0.0) + dur - child_time[i]
        calls[name, pass_id] = calls.get((name, pass_id), 0) + 1

    passes = range(n_passes)

    def total(name, table=per_pass):
        return _median([table.get((name, p), 0.0) for p in passes])

    def ms_p50(name, table=durations):
        return 1000.0 * _median(table.get(name, []))

    counts = {
        name: [tracer.counters.get((p, name), 0) for p in passes]
        for name in COUNT_METRICS
        if not name.endswith(".calls")
    }
    for name in ("training.validation_retrieval", "data.read_corpus", "evaluation.auroc", "evaluation.logistic_probe"):
        counts[name + ".calls"] = [calls.get((name, p), 0) for p in passes]
    # graph_nodes is per call of pair_loss: keep the per-pass value per call.
    loss_calls = [calls.get(("losses.pair_loss", p), 0) for p in passes]
    counts["losses.pair_loss.graph_nodes"] = [
        n // c if c else 0 for n, c in zip(counts["losses.pair_loss.graph_nodes"], loss_calls)
    ]

    metrics = {
        "autodiff.backward.ms_p50": ms_p50("autodiff.backward"),
        "losses.pair_loss.ms_p50": ms_p50("losses.pair_loss"),
        "losses.sis_loss.ms_p50": ms_p50("losses.sis_loss"),
        "gaussians.pairwise_similarity_graph.ms_p50": ms_p50("gaussians.pairwise_similarity_graph"),
        "gaussians.pairwise_similarity_arrays.rss_rise_mb": tracer.rss_rise_mb,
        "encoders.encode.train.ms_p50": ms_p50("encoders.encode.train"),
        "training.train_step.self_ms_p50": ms_p50("training.train_step", selfs),
        "training.train.self_s": total("training.train", per_pass_self),
        "data.pair_batch.ms_p50": ms_p50("data.pair_batch"),
        "cli.main.self_s": total("cli.main", per_pass_self),
    }
    for kind in KINDS:
        metrics[f"gaussians.pairwise_similarity_arrays.{kind}.s"] = total(
            f"gaussians.pairwise_similarity_arrays.{kind}"
        )
    for name in LAYER_METRICS:
        if name.endswith(".s") and name not in metrics:
            metrics[name] = total(name[: -len(".s")])
    for name, values in counts.items():
        metrics[name] = _median(values)
    return metrics, counts

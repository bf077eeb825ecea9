"""One workload's set-up or measured phase, in a fresh process started by run.py.

    python3 perfbench/workload.py setup   WORKLOAD --seed N --dir DIR [--spans FILE]
    python3 perfbench/workload.py measure WORKLOAD --seed N --dir DIR --seconds S [--spans FILE]

Commands run in-process through ``probalign.cli.main``; the corpus workload
reads back through ``probalign.data.read_corpus``. One closed-loop client:
each command starts only after the previous one returned. A pass is one
iteration of the workload's command sequence; another pass starts while the
median pass so far still fits in ``--seconds``, and at least ``MIN_PASSES``
run so that every output can be compared with the first pass's. ``--spans``
turns on the layer wrappers of ``spans.py`` and writes the spans there; on
set-up it traces the corpus write. The last stdout line is one JSON document
for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from probalign import cli, data, training

import spans

TRAIN_STEPS = 300
CHECKPOINT_STEPS = 100
MIN_PASSES = 2
# No further pass starts once this much measuring is done: a run has 180 s.
MAX_MEASURE_S = 90.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)

# The eval protocol mix: (group, protocol flags); one pass runs all nine.
EVAL_MIX = (
    *(("retrieval", ["--protocol", "retrieval", "--similarity", k]) for k in spans.KINDS),
    ("zeroshot", ["--protocol", "zeroshot", "--noisy-prompts", "6", "--filter-prompts", "sweep"]),
    ("zeroshot", ["--protocol", "zeroshot", "--prototypes", "mod_c"]),
    ("fewshot", ["--protocol", "fewshot", "--fewshot-mode", "sampled"]),
    ("multimodal", ["--protocol", "multimodal"]),
    ("noiseprobe", ["--protocol", "noiseprobe"]),
)


class Checks:
    """Operations attempted and the ones that failed, with the reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


class Context:
    def __init__(self, workload: str, seed: int, root: Path):
        self.workload = workload
        self.seed = str(seed)
        self.root = root
        self.config = root / "config.json"
        self.corpus = root / "corpus"
        self.checkpoint = root / "checkpoint" / "checkpoint.json"
        self.checks = Checks()
        self.first: dict[str, str] = {}  # output digests of pass 0, by output name
        self.argv: list[list[str]] = []  # every command of set-up and the first pass
        self.pass_index = 0
        self.last_corpus = None

    def run(self, argv: list[str]) -> tuple[int, float, str, str]:
        """One CLI command; returns (exit code, wall seconds, stdout, stderr tail)."""
        if self.pass_index == 0:
            self.argv.append(argv)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            code = -1
            err.write(traceback.format_exc())
        return code, time.perf_counter() - start, out.getvalue(), err.getvalue()[-400:]

    def same_as_first(self, name: str, digest: str) -> list[str]:
        expected = self.first.setdefault(name, digest)
        return [] if digest == expected else [f"{name} differs from the first pass"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def corpus_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir())


def exit_problems(code: int, err: str) -> list[str]:
    return [] if code == 0 else [f"exit {code}: {err.strip()}"]


# -- set-up ---------------------------------------------------------------------------


def gen_argv(ctx: Context, out: Path) -> list[str]:
    return ["gen", "--config", str(ctx.config), "--out", str(out), "--seed", ctx.seed]


def setup(ctx: Context, tracer) -> None:
    ctx.config.write_text(json.dumps({"seed": int(ctx.seed)}) + "\n", encoding="utf-8")
    commands = []
    if ctx.workload in ("train", "eval"):
        commands.append(gen_argv(ctx, ctx.corpus))
    if ctx.workload == "eval":
        commands.append(
            ["train", "--config", str(ctx.config), "--corpus", str(ctx.corpus),
             "--out", str(ctx.checkpoint.parent), "--seed", ctx.seed,
             "--steps", str(CHECKPOINT_STEPS)]
        )
    for argv in commands:
        code, _, _, err = ctx.run(argv)
        ctx.checks.op(f"setup {argv[0]}", exit_problems(code, err))
        if tracer is not None and argv[0] == "gen" and code == 0:
            tracer.add("data.corpus_bytes", corpus_bytes(ctx.corpus))


# -- passes ---------------------------------------------------------------------------


def train_pass(ctx: Context) -> dict:
    out = ctx.root / "train"
    code, seconds, _, err = ctx.run(
        ["train", "--config", str(ctx.config), "--corpus", str(ctx.corpus), "--out", str(out),
         "--seed", ctx.seed, "--steps", str(TRAIN_STEPS)]
    )
    problems = exit_problems(code, err)
    named = {"train_s": seconds}
    if not problems:
        for name in ("checkpoint.json", "metrics.csv", "train_summary.json"):
            problems += ctx.same_as_first(name, sha256(out / name))
        summary = json.loads((out / "train_summary.json").read_text(encoding="utf-8"))
        rows = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
        last = rows[-max(1, len(rows) // 10):]
        named["train_best_rsum"] = float(summary["best_rsum"])
        named["train_loss_last"] = statistics.fmean(float(r.split(",")[2]) for r in last)
        if len(rows) != TRAIN_STEPS:
            problems.append(f"metrics.csv has {len(rows)} rows, expected {TRAIN_STEPS}")
        if not all(math.isfinite(named[k]) for k in ("train_best_rsum", "train_loss_last")):
            problems.append("non-finite best RSUM or loss")
    ctx.checks.op("train", problems)
    return {"pass_s": seconds, "named": named}


def _report_problems(metrics: dict) -> list[str]:
    problems = []
    for key, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{key} = {value} is not finite")
        elif ("auroc" in key or key.startswith(("fs_", "zs_"))) and not 0.0 <= value <= 1.0:
            problems.append(f"{key} = {value} outside [0, 1]")
    return problems


def eval_pass(ctx: Context) -> dict:
    named = {"eval_mix_s": 0.0, "eval_retrieval_s": 0.0, "eval_zeroshot_s": 0.0, "eval_fewshot_s": 0.0}
    for i, (group, flags) in enumerate(EVAL_MIX):
        out = ctx.root / "eval" / f"{i}-{group}"
        code, seconds, _, err = ctx.run(
            ["eval", "--checkpoint", str(ctx.checkpoint), "--corpus", str(ctx.corpus),
             "--seed", ctx.seed, "--out", str(out), *flags]
        )
        problems = exit_problems(code, err)
        if not problems:
            report = out / "report.json"
            problems += ctx.same_as_first(f"eval {i} report.json", sha256(report))
            problems += _report_problems(json.loads(report.read_text(encoding="utf-8"))["metrics"])
        ctx.checks.op(f"eval {' '.join(flags)}", problems)
        named["eval_mix_s"] += seconds
        if f"eval_{group}_s" in named:
            named[f"eval_{group}_s"] += seconds
    return {"pass_s": named["eval_mix_s"], "named": named}


def corpus_pass(ctx: Context, tracer) -> dict:
    ctx.last_corpus = None  # the previous pass's corpus must not add to this pass's peak
    code, gen_s, _, err = ctx.run(gen_argv(ctx, ctx.corpus))
    problems = exit_problems(code, err)
    ctx.checks.op("gen", problems)
    read_s = 0.0
    if not problems:
        if ctx.pass_index == 0:
            ctx.argv.append(["data.read_corpus", str(ctx.corpus)])
        start = time.perf_counter()
        try:
            ctx.last_corpus = data.read_corpus(ctx.corpus)
        except Exception as exc:  # counted as a failed read, the run goes on
            problems.append(f"read_corpus raised {exc!r}")
        read_s = time.perf_counter() - start
        manifest = json.loads((ctx.corpus / "manifest.json").read_text(encoding="utf-8"))
        for split, expected in manifest["checksums"].items():
            digest = sha256(ctx.corpus / f"{split}.jsonl")
            if digest != expected:
                problems.append(f"{split}.jsonl sha256 does not match the manifest")
            problems += ctx.same_as_first(f"{split}.jsonl", digest)
        if tracer is not None:
            tracer.add("data.corpus_bytes", corpus_bytes(ctx.corpus))
        ctx.checks.op("read_corpus", problems)
    return {"pass_s": gen_s + read_s, "named": {"gen_s": gen_s, "corpus_read_s": read_s}}


def verify_pass(ctx: Context) -> dict:
    # Plain `probalign verify`: the oracle lines on stdout are the output checked.
    code, seconds, stdout, err = ctx.run(["verify"])
    problems = exit_problems(code, err)
    lines = stdout.splitlines()
    problems += [line for line in lines if line.startswith("[FAIL]")]
    passed = sum(line.startswith("[PASS]") for line in lines)
    if passed != len(spans.VERIFICATION_CHECKS):
        problems.append(f"{passed} oracles passed, expected {len(spans.VERIFICATION_CHECKS)}")
    ctx.checks.op("verify", problems)
    return {"pass_s": seconds, "named": {"verify_s": seconds}}


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return 50.0, ordered[math.ceil(n / 2) - 1]


def blas_name() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        return "unknown"


def measure(ctx: Context, seconds: float, tracer, min_passes: int) -> dict:
    step_s: list[float] = []
    if ctx.workload == "train":
        # The one timer allowed in the untraced run.
        inner = training.train_step

        def timed_step(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                step_s.append(time.perf_counter() - start)

        training.train_step = timed_step

    run_pass = {
        "train": train_pass,
        "eval": eval_pass,
        "corpus": lambda c: corpus_pass(c, tracer),
        "verify": verify_pass,
    }[ctx.workload]
    passes = []
    start = time.perf_counter()

    def next_pass_fits() -> bool:
        # Predicted from the median pass, so a run measures about --seconds and
        # a long pass does not overshoot it by a whole pass.
        ends = time.perf_counter() - start + statistics.median(p["pass_s"] for p in passes)
        return ends <= min(seconds, MAX_MEASURE_S)

    while len(passes) < min_passes or next_pass_fits():
        ctx.pass_index = len(passes)
        if tracer is not None:
            tracer.pass_id = len(passes)
        before = resource.getrusage(resource.RUSAGE_SELF)
        passes.append(run_pass(ctx))
        after = resource.getrusage(resource.RUSAGE_SELF)
        passes[-1]["rusage"] = {
            "user_s": after.ru_utime - before.ru_utime,
            "sys_s": after.ru_stime - before.ru_stime,
            "minor_faults": after.ru_minflt - before.ru_minflt,
        }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if ctx.workload == "corpus" and ctx.last_corpus is not None:
        reference = data.generate(data.CorpusConfig(), int(ctx.seed))
        ctx.checks.op(
            "read_corpus equals the generated corpus",
            [] if ctx.last_corpus == reference else ["Corpus.__eq__ is False"],
        )

    named: dict[str, float] = {}
    for key in passes[0]["named"]:
        values = [p["named"][key] for p in passes if key in p["named"]]
        named[key] = statistics.median(values)
    result = {
        "passes": len(passes),
        "pass_s": [p["pass_s"] for p in passes],
        "rusage": [p["rusage"] for p in passes],
        "named": named,
        "peak_rss_mb": peak_rss_mb,
        "attempted": ctx.checks.attempted,
        "failures": ctx.checks.failures,
        "outputs": ctx.first,
        "argv": ctx.argv,
        "numpy": np.__version__,
        "blas": blas_name(),
        "python": sys.version.split()[0],
    }
    if step_s:
        p, value = tail(step_s)
        named["train_step_p50_ms"] = 1000.0 * statistics.median(step_s)
        named["train_step_tail_ms"] = 1000.0 * value
        result["train_step_tail"] = {"percentile": p, "samples": len(step_s)}
    if tracer is not None:
        layers, counts = spans.summarize(tracer, len(passes))
        result["layers"] = layers
        result["counts"] = counts
        result["nesting"] = nesting(tracer)
    return result


def nesting(tracer) -> dict:
    """How often the spans the prediction table relies on sit where it says."""
    table = tracer.spans

    def under(index: int, name: str) -> bool:
        parent = table[index][3]
        while parent >= 0:
            if table[parent][0] == name:
                return True
            parent = table[parent][3]
        return False

    out = {}
    for child, parent in (
        ("training.validation_retrieval", "training.train"),
        ("data.read_corpus", "cli.main"),
        ("gaussians.pairwise_similarity_arrays.hellinger", "training.validation_retrieval"),
        ("autodiff.backward", "training.train_step"),
    ):
        idx = [i for i, s in enumerate(table) if s[0] == child]
        out[f"{child} in {parent}"] = [sum(under(i, parent) for i in idx), len(idx)]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=["setup", "measure"])
    parser.add_argument("workload", choices=["train", "eval", "corpus", "verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--min-passes", type=int, default=MIN_PASSES)
    args = parser.parse_args(argv)
    ctx = Context(args.workload, args.seed, Path(args.dir))
    tracer = None
    if args.spans:
        tracer = spans.Tracer()
        spans.install(tracer)
    if args.phase == "setup":
        setup(ctx, tracer)
        result = {"attempted": ctx.checks.attempted, "failures": ctx.checks.failures, "argv": ctx.argv}
        if tracer is not None:
            layers, _ = spans.summarize(tracer, 1)
            result["layers"] = {k: layers[k] for k in spans.SETUP_LAYERS}
    else:
        result = measure(ctx, args.seconds, tracer, args.min_passes)
    if tracer is not None:
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

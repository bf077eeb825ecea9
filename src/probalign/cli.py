"""Command-line entry point: gen / train / eval / verify.

Commands read a JSON config file (flags override individual fields), write
all outputs under a run directory, and echo the effective configuration there
for provenance. Every command is deterministic given config plus seed; run
directories are timestamped only in their default NAME, never in file
contents, so reruns into a fixed ``--out`` produce bit-identical artifacts.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure (non-finite
training loss, a non-finite embedding during eval, or a failed verification
oracle).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .data import (
    NOISY_PROMPT_SCALE,
    SPLITS,
    TRAINABLE_PAIRS,
    Corpus,
    Modality,
    config_from_json,
    from_json,
    generate,
    json_object,
    read_corpus,
    synth_text_prompts,
    write_corpus,
)
from .encoders import NonFiniteEmbedding, load_checkpoint
from .evaluation import (
    MULTIMODAL_PAIR,
    EvalReport,
    encode_prompts,
    few_shot,
    filtered_zero_shot,
    macro_ovr_auroc,
    mean_uncertainty_by_noise,
    multimodal_classify,
    score_prototypes,
    zero_shot,
    auroc,
)
# ``pairwise_similarity_arrays`` and ``auroc`` are unused here; perfbench/spans.py wraps them here.
from .gaussians import SimilarityKind, pairwise_similarity_arrays
from .losses import LossWeights
from .training import TrainConfig, TrainingAbort, sampling_plan, train, validation_retrieval
from .verification import run_oracle_suite

ENV_REPORT_DIR = "PROBALIGN_REPORT_DIR"


class ConfigError(ValueError):
    pass


class Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# -- config plumbing ---------------------------------------------------------------


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    if not p.is_file():
        raise ConfigError(f"config path {p} is not a file")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    return json_object(f"config file {p}", doc)


def resolve_seed(args, doc: dict) -> int:
    """``--seed``, else the config's ``seed``, else 0; a config seed must be an integer >= 0."""
    if args.seed is not None:
        return args.seed
    seed = doc.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"config seed must be an integer >= 0, got {seed!r}")
    return seed


_TRAIN_CASTS = {
    "loss_weights": lambda v: from_json("train.loss_weights", LossWeights, v, {}),
    "similarity": SimilarityKind,
    "betas": tuple,
}


def train_config_from_doc(doc: dict, seed: int) -> TrainConfig:
    """TrainConfig from a config file's ``train`` section; absent keys take the
    TrainConfig defaults, unknown keys and mistyped values raise ConfigError."""
    try:
        return from_json("train", TrainConfig, doc, _TRAIN_CASTS, seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def check_out(out_flag) -> None:
    """Raise ConfigError when ``--out``, or a directory it would sit in, is an existing file."""
    out = Path(out_flag)
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            raise ConfigError(f"--out {out}: {path} exists and is not a directory")


def resolve_run_dir(out_flag, command: str) -> Path:
    if out_flag:
        run_dir = Path(out_flag)
    else:
        root = Path(os.environ.get(ENV_REPORT_DIR, "runs"))
        stamp = time.strftime("%Y%m%d-%H%M%S")
        run_dir = root / f"{command}-{stamp}"
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def echo_config(run_dir: Path, doc: dict) -> None:
    (run_dir / "effective_config.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _load_corpus(path) -> Corpus:
    """``read_corpus`` of an existing directory."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"corpus directory not found: {p}")
    return read_corpus(p)


# -- subcommands --------------------------------------------------------------------


def cmd_gen(args) -> int:
    doc = load_config(args.config)
    seed = resolve_seed(args, doc)
    cfg = config_from_json(doc.get("corpus", {}))
    run_dir = resolve_run_dir(args.out, "gen")
    corpus = generate(cfg, seed)
    manifest = write_corpus(corpus, run_dir)
    echo_config(run_dir, {"seed": seed, "corpus": doc.get("corpus", {})})
    print(f"wrote corpus to {run_dir} ({manifest['counts']})")
    return 0


def cmd_train(args) -> int:
    doc = load_config(args.config)
    seed = resolve_seed(args, doc)
    train_doc = dict(json_object("train", doc.get("train", {})))
    if args.similarity:
        train_doc["similarity"] = args.similarity
    if args.steps is not None:
        train_doc["total_steps"] = args.steps
    if args.batch_size is not None:
        train_doc["batch_size"] = args.batch_size
    if args.lr is not None:
        train_doc["lr"] = args.lr
    if args.no_sis:
        weights = json_object("train.loss_weights", train_doc.get("loss_weights", {}))
        train_doc["loss_weights"] = {**weights, "beta": 0.0}
    if args.no_bn:
        train_doc["bn_enabled"] = False
    train_doc["seed"] = seed
    cfg = train_config_from_doc(train_doc, seed)

    corpus_path = args.corpus or json_object("paths", doc.get("paths", {})).get("corpus")
    if not corpus_path:
        raise ConfigError("no corpus path: pass --corpus or set paths.corpus in the config")
    if not isinstance(corpus_path, str):
        raise ConfigError(f"paths.corpus must be a string, got {type(corpus_path).__name__}")
    # Every split's checksum is verified here; training parses only train and valid.
    corpus = _load_corpus(corpus_path)
    sampling_plan(cfg, corpus)  # a batch size the train split cannot fill exits here

    run_dir = resolve_run_dir(args.out, "train")
    echo_config(run_dir, {"seed": seed, "train": train_doc, "paths": {"corpus": str(corpus_path)}})
    result = train(
        cfg,
        corpus,
        metrics_path=run_dir / "metrics.csv",
        checkpoint_path=run_dir / "checkpoint.json",
    )
    summary = {
        "best_step": result.best_step,
        "best_rsum": result.best_rsum,
        "validation": result.validation_history,
    }
    (run_dir / "train_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8"
    )
    print(f"trained {cfg.total_steps} steps; best validation RSUM {result.best_rsum:.2f}")
    print(f"checkpoint: {run_dir / 'checkpoint.json'}")
    return 0


# Protocols that always read the same splits, so --split does not apply to
# them, with the splits they read. The few-shot protocols read all of train's
# columns, a raw read of its file, and embed only its support rows.
FIXED_SPLITS = {
    "fewshot": "the train and test splits",
    "multimodal": "the train and test splits",
    "noiseprobe": "the test split",
}


def _check_split(args) -> None:
    """Rejects a --split the protocol would ignore, and sets an unset one to test."""
    reads = FIXED_SPLITS.get(args.protocol)
    if reads is not None:
        if args.split is not None:
            raise ConfigError(f"--split does not apply to --protocol {args.protocol}, which reads {reads}")
        return
    if args.split is None:
        args.split = "test"
    if args.split not in SPLITS:
        raise ConfigError(f"unknown split {args.split!r}")


def cmd_eval(args) -> int:
    _check_split(args)
    model = load_checkpoint(args.checkpoint)
    corpus = _load_corpus(args.corpus)
    kind = SimilarityKind(args.similarity)
    rng = np.random.default_rng(args.seed)
    if args.protocol == "retrieval":
        report = _protocol_retrieval(model, corpus, kind, args)
    elif args.protocol == "zeroshot":
        report = _protocol_zeroshot(model, corpus, kind, args, rng)
    elif args.protocol == "fewshot":
        report = _protocol_fewshot(model, corpus, args, rng)
    elif args.protocol == "multimodal":
        report = _protocol_multimodal(model, corpus, kind, args, rng)
    else:
        report = _protocol_noiseprobe(model, corpus, args, rng)

    # Made only once there is a report: a protocol that exits early leaves no run directory.
    run_dir = resolve_run_dir(args.out, f"eval-{args.protocol}")
    echo_config(
        run_dir,
        {
            "protocol": args.protocol,
            "checkpoint": str(args.checkpoint),
            "corpus": str(args.corpus),
            "similarity": kind.value,
            "seed": args.seed,
        },
    )
    report.save(run_dir / "report.json")
    print(report.to_json())
    print(f"report: {run_dir / 'report.json'}")
    return 0


def _protocol_retrieval(model, corpus, kind, args) -> EvalReport:
    split = corpus.split(args.split)
    ks = args.ks
    out = validation_retrieval(model, split, kind, ks=tuple(ks), max_gallery=args.max_gallery)
    if not out["tasks"]:
        pools = [len(split.pair_rows(p)) for p in TRAINABLE_PAIRS if Modality.TEXT in p]
        gallery = min(max(pools), args.max_gallery)
        raise ConfigError(
            f"no retrieval task ran: the largest gallery in split {args.split} holds {gallery} records "
            f"(--max-gallery {args.max_gallery}), and a gallery must hold more than the largest K ({max(ks)})"
        )
    return EvalReport("retrieval", {"rsum": out["rsum"]}, {"tasks": out["tasks"], "ks": ks})


def _prompt_set(corpus, args, rng) -> dict:
    """``{class: prompt rows}``: the clean prompts, then any noisy ones."""
    prompts = synth_text_prompts(corpus, args.n_prompts, rng=rng)
    if args.noisy_prompts > 0:
        noisy_scale = corpus.config.noise_scales[Modality.TEXT] * NOISY_PROMPT_SCALE
        noisy = synth_text_prompts(corpus, args.noisy_prompts, noise_scale=noisy_scale, rng=rng)
        prompts = {cls: np.vstack([rows, noisy[cls]]) for cls, rows in prompts.items()}
    return prompts


def _protocol_zeroshot(model, corpus, kind, args, rng) -> EvalReport:
    modality = Modality(args.modality)
    split = corpus.split(args.split)
    rows = split.rows_with_views(modality)
    if not len(rows):
        raise ConfigError(f"no {modality.value} views in split {args.split}")
    labels = split.labels[rows]
    items = model.encode(modality, split.views[modality][rows])

    if args.prototypes == "text":
        prompts = _prompt_set(corpus, args, rng)
        per_k = {}
        if args.filter_prompts == "sweep":
            ks = range(1, min(map(len, prompts.values())) + 1)
        else:
            ks = [args.filter_prompts] if args.filter_prompts else []
        encoded = encode_prompts(model, prompts)
        classes = sorted(prompts)
        metrics = {"auroc_all_prompts": macro_ovr_auroc(zero_shot(items, encoded, kind), labels, classes)}
        for k in ks:
            per_k[k] = macro_ovr_auroc(filtered_zero_shot(items, encoded, k, kind), labels, classes)
        if per_k:
            best_k = max(per_k, key=per_k.get)
            metrics["auroc_best_k"] = per_k[best_k]
            metrics["best_k"] = best_k
        return EvalReport("zeroshot", metrics, {"auroc_by_k": per_k})

    # Cross-modality prototypes: class means of another modality's embeddings,
    # the emergent-alignment read-out.
    proto_modality = Modality(args.prototypes)
    proto_rows = corpus.valid.rows_with_views(proto_modality)
    if not len(proto_rows):
        raise ConfigError(f"no {proto_modality.value} views in valid split for prototypes")
    mu, log_var = model.encode(proto_modality, corpus.valid.views[proto_modality][proto_rows])
    proto_labels = corpus.valid.labels[proto_rows]
    by_class = {int(c): (mu[proto_labels == c], log_var[proto_labels == c]) for c in np.unique(proto_labels)}
    value = macro_ovr_auroc(score_prototypes(items, by_class, kind), labels, sorted(by_class))
    return EvalReport(
        "zeroshot",
        {"auroc": value},
        {"prototypes": proto_modality.value, "item_modality": modality.value},
    )


def _train_embedder(model, train, rows, modality):
    """A ``few_shot`` embedder of train rows given as positions in ``rows``
    (rows of the train split), encoding only those."""
    return lambda chosen: model.encode(modality, train.views[modality][rows[chosen]])


def _protocol_fewshot(model, corpus, args, rng) -> EvalReport:
    modality = Modality(args.modality)
    train_rows = corpus.train.rows_with_views(modality)
    test_rows = corpus.test.rows_with_views(modality)
    for name, rows in (("train", train_rows), ("test", test_rows)):
        if not len(rows):
            raise ConfigError(f"no {modality.value} views in split {name}")
    y_train = corpus.train.labels[train_rows]
    embed = _train_embedder(model, corpus.train, train_rows, modality)
    test_mu, _ = model.encode(modality, corpus.test.views[modality][test_rows])
    y_test = corpus.test.labels[test_rows]
    table = {}
    for shot in args.shots:
        rngs = [np.random.default_rng([args.seed, shot, s]) for s in range(args.seeds)]
        per_seed = few_shot(
            y_train,
            embed,
            test_mu,
            y_test,
            shot,
            mode=args.fewshot_mode,
            n_samples=args.n,
            rngs=rngs,
        )
        table[shot] = {"mean_auroc": float(np.mean(per_seed)), "per_seed": per_seed}
    metrics = {f"auroc_{shot}shot": table[shot]["mean_auroc"] for shot in args.shots}
    return EvalReport("fewshot", metrics, {"mode": args.fewshot_mode, "table": table})


def _protocol_multimodal(model, corpus, kind, args, rng) -> EvalReport:
    train_rows = corpus.train.rows_with_views(*MULTIMODAL_PAIR)
    test_rows = corpus.test.rows_with_views(*MULTIMODAL_PAIR)
    if not len(train_rows) or not len(test_rows):
        raise ConfigError("multimodal protocol needs records with both mod_a and mod_b views")
    prompts = _prompt_set(corpus, args, rng)
    result = multimodal_classify(
        model,
        corpus.train.labels[train_rows],
        [_train_embedder(model, corpus.train, train_rows, m) for m in MULTIMODAL_PAIR],
        tuple(corpus.test.views[m][test_rows] for m in MULTIMODAL_PAIR),
        corpus.test.labels[test_rows],
        args.k_shot,
        prompts,
        kind,
        rng,
        fusion=args.fusion,
    )
    metrics = {f"fs_{name}": v for name, v in result["fs"].items()}
    metrics.update({f"zs_{name}": v for name, v in result["zs"].items()})
    return EvalReport("multimodal", metrics, {"k_shot": args.k_shot, "fusion": args.fusion})


def _protocol_noiseprobe(model, corpus, args, rng) -> EvalReport:
    modality = Modality(args.modality)
    rows = corpus.test.rows_with_views(modality)[: args.n_items]
    if not len(rows):
        raise ConfigError(f"no {modality.value} views in split test")
    series, rho = mean_uncertainty_by_noise(model, modality, corpus.test.views[modality][rows], args.levels, rng)
    return EvalReport("noiseprobe", {"spearman": rho}, {"series": series, "n_items": len(rows)})


def cmd_verify(args) -> int:
    results = run_oracle_suite(fast=args.fast)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    if args.out:
        run_dir = resolve_run_dir(args.out, "verify")
        doc = [
            {"name": r.name, "error": r.error, "tolerance": r.tolerance, "passed": r.passed}
            for r in results
        ]
        (run_dir / "verify_report.json").write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    if failed:
        print(f"{len(failed)} oracle(s) FAILED")
        return 2
    print("all oracles passed")
    return 0


# -- argument wiring -----------------------------------------------------------------


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_ints(text: str) -> list[int]:
    """A comma-separated list of integers >= 1."""
    return [positive_int(part) for part in text.split(",")]


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def sweep_or_positive_int(text: str) -> str | int:
    """'sweep', or an integer >= 1."""
    return text if text == "sweep" else positive_int(text)


def noise_levels(text: str) -> list[float]:
    """A comma-separated list of finite floats that ascends from 0."""
    levels = [float(part) for part in text.split(",")]
    if not all(map(math.isfinite, levels)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    if levels != sorted(levels) or levels[0] != 0.0:
        raise argparse.ArgumentTypeError(f"must ascend from 0, got {text}")
    return levels


def build_parser() -> Parser:
    parser = Parser(prog="probalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic corpus")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", default=None, help="corpus output directory")
    p_gen.add_argument("--seed", type=nonnegative_int, default=None)

    p_train = sub.add_parser("train", help="train the four encoders")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--corpus", default=None)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--seed", type=nonnegative_int, default=None)
    p_train.add_argument("--similarity", choices=[k.value for k in SimilarityKind], default=None)
    p_train.add_argument("--steps", type=nonnegative_int, default=None)
    p_train.add_argument("--batch-size", type=positive_int, default=None)
    p_train.add_argument("--lr", type=float, default=None)
    p_train.add_argument("--no-sis", action="store_true")
    p_train.add_argument("--no-bn", action="store_true")

    p_eval = sub.add_parser("eval", help="run an evaluation protocol")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument(
        "--protocol",
        required=True,
        choices=["retrieval", "zeroshot", "fewshot", "multimodal", "noiseprobe"],
    )
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--seed", type=nonnegative_int, default=0)
    p_eval.add_argument("--similarity", choices=[k.value for k in SimilarityKind], default="hellinger")
    p_eval.add_argument("--split", default=None, help="retrieval and zeroshot only (default test)")
    p_eval.add_argument("--ks", type=positive_ints, default="1,5")
    p_eval.add_argument("--max-gallery", type=positive_int, default=1000)
    p_eval.add_argument("--modality", default="mod_a", choices=["mod_a", "mod_b", "mod_c"])
    p_eval.add_argument("--prototypes", default="text", choices=["text", "mod_a", "mod_b", "mod_c"])
    p_eval.add_argument("--n-prompts", type=positive_int, default=6)
    p_eval.add_argument("--noisy-prompts", type=nonnegative_int, default=0)
    p_eval.add_argument(
        "--filter-prompts", type=sweep_or_positive_int, default=None, help="an integer k >= 1, or 'sweep'"
    )
    p_eval.add_argument("--fewshot-mode", default="mu_only", choices=["mu_only", "sampled"])
    p_eval.add_argument("--n", type=positive_int, default=16, help="samples per item in sampled mode")
    p_eval.add_argument("--shots", type=positive_ints, default="2,4,8,16")
    p_eval.add_argument("--seeds", type=positive_int, default=5)
    p_eval.add_argument("--k-shot", type=positive_int, default=16)
    p_eval.add_argument("--fusion", default="mean", choices=["mean", "max"])
    p_eval.add_argument("--levels", type=noise_levels, default="0,0.25,0.5,0.75,1,1.5,2,3,4,5")
    p_eval.add_argument("--n-items", type=positive_int, default=100)

    p_verify = sub.add_parser("verify", help="run the oracle suite")
    p_verify.add_argument("--fast", action="store_true")
    p_verify.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "train": cmd_train,
        "eval": cmd_eval,
        "verify": cmd_verify,
    }
    try:
        if args.out:
            check_out(args.out)
        return handlers[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"probalign {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (TrainingAbort, NonFiniteEmbedding) as exc:
        print(f"probalign {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"probalign {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

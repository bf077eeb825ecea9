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
import os
import sys
import time
from pathlib import Path

import numpy as np

from .data import (
    SPLITS,
    Corpus,
    Modality,
    TRAINABLE_PAIRS,
    config_from_json,
    eligible_records,
    generate,
    read_corpus,
    reject_unknown_keys,
    synth_text_prompts,
    write_corpus,
)
from .encoders import NonFiniteEmbedding, load_checkpoint
from .evaluation import (
    EvalReport,
    PromptSet,
    class_prototype,
    few_shot,
    filtered_zero_shot,
    macro_ovr_auroc,
    mean_uncertainty_by_noise,
    multimodal_classify,
    recall_at_k,
    zero_shot,
    auroc,
)
from .gaussians import SimilarityKind, pairwise_similarity_arrays, stack_embeddings
from .losses import LossWeights
from .training import TrainConfig, TrainingAbort, train, validation_retrieval
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
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc


_TRAIN_CASTS = {
    "loss_weights": lambda v: LossWeights(**v),
    "similarity": SimilarityKind,
    "betas": tuple,
    "pair_sampling_weights": lambda v: (
        {(Modality(p[0]), Modality(p[1])): float(w) for p, w in v} if v else None
    ),
}


def train_config_from_doc(doc: dict, seed: int) -> TrainConfig:
    """TrainConfig from a config file's ``train`` section; absent keys take the
    TrainConfig defaults, unknown keys raise ConfigError."""
    try:
        reject_unknown_keys("train", doc, TrainConfig)
        reject_unknown_keys("train.loss_weights", doc.get("loss_weights", {}), LossWeights)
        kwargs = {k: _TRAIN_CASTS.get(k, lambda v: v)(v) for k, v in doc.items()}
        return TrainConfig(**{"seed": seed, **kwargs})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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


def _load_corpus(path, splits=SPLITS) -> Corpus:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"corpus directory not found: {p}")
    return read_corpus(p, splits=splits)


# -- subcommands --------------------------------------------------------------------


def cmd_gen(args) -> int:
    doc = load_config(args.config)
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    cfg = config_from_json(doc.get("corpus", {}))
    run_dir = resolve_run_dir(args.out, "gen")
    corpus = generate(cfg, seed)
    manifest = write_corpus(corpus, run_dir)
    echo_config(run_dir, {"seed": seed, "corpus": doc.get("corpus", {})})
    print(f"wrote corpus to {run_dir} ({manifest['counts']})")
    return 0


def cmd_train(args) -> int:
    doc = load_config(args.config)
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    train_doc = dict(doc.get("train", {}))
    if args.similarity:
        train_doc["similarity"] = args.similarity
    if args.steps is not None:
        train_doc["total_steps"] = args.steps
    if args.batch_size is not None:
        train_doc["batch_size"] = args.batch_size
    if args.lr is not None:
        train_doc["lr"] = args.lr
    if args.no_sis:
        train_doc["sis_enabled"] = False
    if args.no_bn:
        train_doc["bn_enabled"] = False
    train_doc["seed"] = seed

    corpus_path = args.corpus or doc.get("paths", {}).get("corpus")
    if not corpus_path:
        raise ConfigError("no corpus path: pass --corpus or set paths.corpus in the config")
    corpus = _load_corpus(corpus_path)
    cfg = train_config_from_doc(train_doc, seed)

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
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"trained {cfg.total_steps} steps; best validation RSUM {result.best_rsum:.2f}")
    print(f"checkpoint: {run_dir / 'checkpoint.json'}")
    return 0


# Protocols that always read the same splits, so --split does not apply to them.
FIXED_SPLITS = {"fewshot": ("train", "test"), "multimodal": ("train", "test"), "noiseprobe": ("test",)}


def _eval_splits(args) -> set[str]:
    """The corpus splits an eval protocol reads, so only those are parsed.

    Rejects a --split the protocol would ignore, and sets an unset one to test.
    """
    fixed = FIXED_SPLITS.get(args.protocol)
    if fixed is not None:
        if args.split is not None:
            raise ConfigError(
                f"--split does not apply to --protocol {args.protocol}, which reads the "
                f"{' and '.join(fixed)} split{'s' if len(fixed) > 1 else ''}"
            )
        return set(fixed)
    if args.split is None:
        args.split = "test"
    if args.split not in SPLITS:
        raise ConfigError(f"unknown split {args.split!r}")
    if args.protocol == "zeroshot" and args.prototypes != "text":
        return {args.split, "valid"}  # cross-modality prototypes come from valid
    return {args.split}


def _embed_items(model, records, modality: Modality):
    x = np.stack([r.views[modality] for r in records])
    return model.encode(modality, x, train=False)


def _records_with_view(records, modality: Modality):
    return [r for r in records if modality in r.views]


def cmd_eval(args) -> int:
    splits = _eval_splits(args)
    model = load_checkpoint(args.checkpoint)
    corpus = _load_corpus(args.corpus, splits=splits)
    kind = SimilarityKind(args.similarity)
    rng = np.random.default_rng(args.seed)
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

    report.save(run_dir / "report.json")
    print(report.to_json())
    print(f"report: {run_dir / 'report.json'}")
    return 0


def _protocol_retrieval(model, corpus, kind, args) -> EvalReport:
    records = corpus.splits[args.split]
    ks = [int(k) for k in args.ks.split(",")]
    out = validation_retrieval(model, records, kind, ks=tuple(ks), max_gallery=args.max_gallery)
    return EvalReport("retrieval", {"rsum": out["rsum"]}, {"tasks": out["tasks"], "ks": ks})


def _prompt_set(corpus, args, rng) -> PromptSet:
    clean = synth_text_prompts(corpus, args.n_prompts, rng=rng)
    if args.noisy_prompts > 0:
        noisy_scale = corpus.config.noise_scales[Modality.TEXT] * args.noisy_prompt_scale
        noisy = synth_text_prompts(corpus, args.noisy_prompts, noise_scale=noisy_scale, rng=rng)
        for cls in clean:
            clean[cls] = clean[cls] + noisy[cls]
    return PromptSet(clean)


def _protocol_zeroshot(model, corpus, kind, args, rng) -> EvalReport:
    modality = Modality(args.modality)
    records = _records_with_view(corpus.splits[args.split], modality)
    if not records:
        raise ConfigError(f"no {modality.value} views in split {args.split}")
    labels = np.array([r.class_label for r in records])
    items = _embed_items(model, records, modality)

    if args.prototypes == "text":
        prompts = _prompt_set(corpus, args, rng)
        per_k = {}
        if args.filter_prompts == "sweep":
            ks = range(1, prompts.prompts_per_class() + 1)
        elif args.filter_prompts:
            ks = [int(args.filter_prompts)]
        else:
            ks = []
        base = zero_shot(model, items, prompts, kind)
        base_auroc = macro_ovr_auroc(base.scores, labels, base.classes)
        for k in ks:
            result = filtered_zero_shot(model, items, prompts, k, kind)
            per_k[int(k)] = macro_ovr_auroc(result.scores, labels, result.classes)
        metrics = {"auroc_all_prompts": base_auroc}
        if per_k:
            best_k = max(per_k, key=per_k.get)
            metrics["auroc_best_k"] = per_k[best_k]
            metrics["best_k"] = best_k
        return EvalReport("zeroshot", metrics, {"auroc_by_k": per_k})

    # Cross-modality prototypes: class means of another modality's embeddings,
    # the emergent-alignment read-out.
    proto_modality = Modality(args.prototypes)
    proto_records = _records_with_view(corpus.valid, proto_modality)
    if not proto_records:
        raise ConfigError(f"no {proto_modality.value} views in valid split for prototypes")
    proto_batch = _embed_items(model, proto_records, proto_modality)
    embeddings = proto_batch.to_embeddings()
    by_class = {}
    for r, e in zip(proto_records, embeddings):
        by_class.setdefault(r.class_label, []).append(e)
    classes = sorted(by_class)
    prototypes = [class_prototype(by_class[c]) for c in classes]
    mu_p, lv_p = stack_embeddings(prototypes)
    scores = pairwise_similarity_arrays(items.mu.data, items.log_var.data, mu_p, lv_p, kind)
    value = macro_ovr_auroc(scores, labels, classes)
    return EvalReport(
        "zeroshot",
        {"auroc": value},
        {"prototypes": proto_modality.value, "item_modality": modality.value},
    )


def _protocol_fewshot(model, corpus, args, rng) -> EvalReport:
    modality = Modality(args.modality)
    train_records = _records_with_view(corpus.train, modality)
    test_records = _records_with_view(corpus.test, modality)
    train_items = _embed_items(model, train_records, modality)
    test_items = _embed_items(model, test_records, modality)
    y_train = [r.class_label for r in train_records]
    y_test = [r.class_label for r in test_records]
    shots = [int(s) for s in args.shots.split(",")]
    table = {}
    for shot in shots:
        per_seed = []
        for s in range(args.seeds):
            seed_rng = np.random.default_rng([args.seed, shot, s])
            per_seed.append(
                few_shot(
                    train_items,
                    y_train,
                    test_items,
                    y_test,
                    shot,
                    mode=args.fewshot_mode,
                    n_samples=args.n,
                    rng=seed_rng,
                )
            )
        table[shot] = {"mean_auroc": float(np.mean(per_seed)), "per_seed": per_seed}
    metrics = {f"auroc_{shot}shot": table[shot]["mean_auroc"] for shot in shots}
    return EvalReport("fewshot", metrics, {"mode": args.fewshot_mode, "table": table})


def _protocol_multimodal(model, corpus, kind, args, rng) -> EvalReport:
    pair = (Modality.MOD_A, Modality.MOD_B)
    train_records = [r for r in corpus.train if all(m in r.views for m in pair)]
    test_records = [r for r in corpus.test if all(m in r.views for m in pair)]
    if not train_records or not test_records:
        raise ConfigError("multimodal protocol needs records with both mod_a and mod_b views")
    prompts = _prompt_set(corpus, args, rng)
    result = multimodal_classify(
        model,
        tuple(np.stack([r.views[m] for r in train_records]) for m in pair),
        [r.class_label for r in train_records],
        tuple(np.stack([r.views[m] for r in test_records]) for m in pair),
        [r.class_label for r in test_records],
        args.k_shot,
        prompts,
        kind,
        rng,
        pair=pair,
        fusion=args.fusion,
    )
    metrics = {f"fs_{name}": v for name, v in result["fs"].items()}
    metrics.update({f"zs_{name}": v for name, v in result["zs"].items()})
    return EvalReport("multimodal", metrics, {"k_shot": args.k_shot, "fusion": args.fusion})


def _protocol_noiseprobe(model, corpus, args, rng) -> EvalReport:
    modality = Modality(args.modality)
    records = _records_with_view(corpus.test, modality)[: args.n_items]
    if not records:
        raise ConfigError(f"no {modality.value} views in test split")
    levels = [float(v) for v in args.levels.split(",")]
    items = np.stack([r.views[modality] for r in records])
    probe = mean_uncertainty_by_noise(model, modality, items, levels, rng)
    return EvalReport(
        "noiseprobe",
        {"spearman": probe.spearman},
        {"series": probe.series, "n_items": len(records)},
    )


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


def build_parser() -> Parser:
    parser = Parser(prog="probalign", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic corpus")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", default=None, help="corpus output directory")
    p_gen.add_argument("--seed", type=int, default=None)

    p_train = sub.add_parser("train", help="train the four encoders")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--corpus", default=None)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--similarity", choices=[k.value for k in SimilarityKind], default=None)
    p_train.add_argument("--steps", type=int, default=None)
    p_train.add_argument("--batch-size", type=int, default=None)
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
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--similarity", choices=[k.value for k in SimilarityKind], default="hellinger")
    p_eval.add_argument("--split", default=None, help="retrieval and zeroshot only (default test)")
    p_eval.add_argument("--ks", default="1,5")
    p_eval.add_argument("--max-gallery", type=int, default=1000)
    p_eval.add_argument("--modality", default="mod_a")
    p_eval.add_argument("--prototypes", default="text", choices=["text", "mod_a", "mod_b", "mod_c"])
    p_eval.add_argument("--n-prompts", type=int, default=6)
    p_eval.add_argument("--noisy-prompts", type=int, default=0)
    p_eval.add_argument("--noisy-prompt-scale", type=float, default=8.0)
    p_eval.add_argument("--filter-prompts", default=None, help="an integer k, or 'sweep'")
    p_eval.add_argument("--fewshot-mode", default="mu_only", choices=["mu_only", "sampled"])
    p_eval.add_argument("--n", type=int, default=16, help="samples per item in sampled mode")
    p_eval.add_argument("--shots", default="2,4,8,16")
    p_eval.add_argument("--seeds", type=int, default=5)
    p_eval.add_argument("--k-shot", type=int, default=16)
    p_eval.add_argument("--fusion", default="mean", choices=["mean", "max"])
    p_eval.add_argument("--levels", default="0,0.25,0.5,0.75,1,1.5,2,3,4,5")
    p_eval.add_argument("--n-items", type=int, default=100)

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

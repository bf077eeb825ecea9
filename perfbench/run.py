"""The probalign benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload train|eval|corpus|verify|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing, the
children import ``probalign`` from ``src/``. Each workload runs set-up
``SETUP_REPEATS`` times, each in a fresh process, then its measured phase in
another fresh process (``workload.py``), so ``peak_rss_mb`` belongs to that
workload alone. ``--trace 1`` also runs the measured phase a second time with
the layer wrappers of ``spans.py`` and reports per-layer metrics plus the
tracing overhead (traced minus untraced). ``--workload all`` runs the four
workloads one after the other and prints every named metric.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
The full record (argv of every command, environment, named metrics, layer
counts per pass) goes to ``.perfbench/results/``; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS, SETUP_LAYERS  # stdlib only: the parent never imports numpy or probalign

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "eval", "corpus", "verify")
# Set-up runs this often per run; setup_s is the median. Eval's set-up trains a
# checkpoint (about 13 s) and runs once, to keep 70 runs inside the time budget;
# the import-only set-ups of corpus and verify are cheap, so they run most.
SETUP_REPEATS = {"train": 3, "eval": 1, "corpus": 5, "verify": 5}
RUN_BUDGET_S = 175.0

# Reported on every workload; the keys of the JSON result with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
}

# The metrics a researcher reads per workload: (unit, better, workloads).
NAMED = {
    "setup_s": ("s", "lower", WORKLOADS),
    "peak_rss_mb": ("MB", "lower", WORKLOADS),
    "train_s": ("s", "lower", ("train",)),
    "train_step_p50_ms": ("ms", "lower", ("train",)),
    "train_step_tail_ms": ("ms", "lower", ("train",)),
    "train_best_rsum": ("%", "higher", ("train",)),
    "train_loss_last": ("nats", "lower", ("train",)),
    "eval_mix_s": ("s", "lower", ("eval",)),
    "eval_retrieval_s": ("s", "lower", ("eval",)),
    "eval_zeroshot_s": ("s", "lower", ("eval",)),
    "eval_fewshot_s": ("s", "lower", ("eval",)),
    "gen_s": ("s", "lower", ("corpus",)),
    "corpus_read_s": ("s", "lower", ("corpus",)),
    "verify_s": ("s", "lower", ("verify",)),
}


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def llc() -> str:
    """Size of the highest cache level of cpu0, read from /sys."""
    best = (0, "unknown")
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], deadline: float) -> tuple[dict, float]:
    """Run ``workload.py`` to completion; returns its JSON result and wall time."""
    start = time.perf_counter()
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget of the run used up")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), *argv],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload.py {' '.join(argv[:2])} did not finish in time") from exc
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"workload.py {' '.join(argv[:2])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    name = f"{workload}-seed{seed}-trace{int(trace)}"
    work = Path(".perfbench", "work", name)  # relative to ROOT, the children's cwd
    results = ROOT / ".perfbench" / "results"
    shutil.rmtree(ROOT / work, ignore_errors=True)
    (ROOT / work).mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    common = [workload, "--seed", str(seed), "--dir", str(work)]
    try:
        if trace:
            setup_spans = ["--spans", str(results / f"{name}.setup-spans.json")]
            setup_runs = [run_child(["setup", *common, *setup_spans], deadline)]
        else:
            setup_runs = [run_child(["setup", *common], deadline) for _ in range(SETUP_REPEATS[workload])]
        # With --trace 1 the untraced phase is only the baseline of the overhead.
        baseline = ["--min-passes", "1"] if trace else []
        measured, _ = run_child(["measure", *common, "--seconds", str(seconds), *baseline], deadline)
        traced = None
        if trace:
            spans_file = results / f"{name}.spans.json"
            traced, _ = run_child(
                ["measure", *common, "--seconds", str(seconds), "--spans", str(spans_file)], deadline
            )
    finally:
        shutil.rmtree(ROOT / work, ignore_errors=True)

    failures = [f for result, _ in setup_runs for f in result["failures"]]
    attempted = sum(result["attempted"] for result, _ in setup_runs)
    for result in filter(None, (measured, traced)):
        attempted += result["attempted"]
        failures += result["failures"]
    setup_s = statistics.median(wall for _, wall in setup_runs)
    named = {"setup_s": setup_s, "peak_rss_mb": measured["peak_rss_mb"], **measured["named"]}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "numpy": measured["numpy"],
        "blas": measured["blas"],
        "python": measured["python"],
        "platform": platform.platform(),
        "nproc": nproc(),
        "llc": llc(),
        "thread_env": {k: v for k, v in child_env().items() if k.endswith("_NUM_THREADS")},
        "setup_argv": setup_runs[0][0]["argv"],
        "argv": measured["argv"],
        "passes": measured["passes"],
        "pass_s": measured["pass_s"],
        "pass_rusage": measured["rusage"],
        "setup_runs_s": [wall for _, wall in setup_runs],
    }
    if "train_step_tail" in measured:
        record["train_step_tail"] = measured["train_step_tail"]
    end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": measured["peak_rss_mb"],
        "pass_s": statistics.median(measured["pass_s"]),
    }
    out = {
        "record": record,
        "named": named,
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failures": failures,
    }
    if traced is not None:
        out["attempted"] += 2
        if traced["outputs"] != measured["outputs"]:
            failures.append("traced outputs differ from untraced outputs")
        unsteady = {k: v for k, v in traced["counts"].items() if len(set(v)) > 1}
        if unsteady:
            failures.append(f"counts differ between passes: {unsteady}")
        layers = dict(traced["layers"])
        for key in SETUP_LAYERS:
            layers[key] += setup_runs[0][0]["layers"][key]
        layers["trace_overhead.pass_s"] = statistics.median(traced["pass_s"]) - end_to_end["pass_s"]
        layers["trace_overhead.peak_rss_mb"] = traced["peak_rss_mb"] - measured["peak_rss_mb"]
        out["layers"] = layers
        out["counts"] = traced["counts"]
        out["nesting"] = traced["nesting"]
        out["overhead_named"] = {
            k: traced["named"][k] - v for k, v in measured["named"].items() if k in traced["named"]
        }
        record["spans_file"] = str(spans_file.relative_to(ROOT))
        record["traced_pass_s"] = traced["pass_s"]
    (results / f"{name}.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return out


def print_run(out: dict) -> None:
    workload = out["record"]["workload"]
    overhead = out.get("overhead_named", {})
    for metric, (unit, better, where) in NAMED.items():
        if workload in where and metric in out["named"]:
            extra = ""
            if metric == "train_step_tail_ms":
                tail = out["record"]["train_step_tail"]
                extra += f"  (p{tail['percentile']:g} of {tail['samples']} steps)"
            if metric in overhead:
                extra += f"  tracing adds {overhead[metric]:+.4f}"
            print(f"  {workload:7s} {metric:20s} {out['named'][metric]:12.4f} {unit:5s} {better} is better{extra}")
    for argv in out["record"]["setup_argv"] + out["record"]["argv"]:
        print(f"  {workload:7s} argv: {' '.join(argv)}")
    for relation, (inside, total) in out.get("nesting", {}).items():
        print(f"  {workload:7s} spans: {inside} of {total} {relation}")
    for failure in out["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "probalign" / "cli.py").is_file():
        print(f"perfbench: no probalign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + (RUN_BUDGET_S if args.workload != "all" else 4 * RUN_BUDGET_S)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    outs = []
    try:
        for workload in workloads:
            outs.append(run_workload(workload, args.seed, args.seconds, bool(args.trace), deadline))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    first = outs[0]["record"]
    print(
        f"perfbench seed={args.seed} seconds={args.seconds} trace={args.trace} numpy={first['numpy']} "
        f"blas={first['blas']} python={first['python']} nproc={first['nproc']} llc={first['llc']} "
        f"threads={first['thread_env']}"
    )
    for out in outs:
        print_run(out)
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(len(o["failures"]) for o in outs)
    if args.workload == "all":
        metrics = {}
        for out in outs:
            for metric, value in out["named"].items():
                unit, _, where = NAMED[metric]
                key = f"{out['record']['workload']}.{metric}" if where == WORKLOADS else metric
                metrics[key] = {"value": value, "unit": unit}
    elif args.trace:
        metrics = {k: {"value": outs[0]["layers"][k], "unit": u} for k, u in LAYER_METRICS.items()}
    else:
        metrics = {k: {"value": outs[0]["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

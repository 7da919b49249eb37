"""Benchmark of the minfeat CLI: end-to-end metrics and an outside-in layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload explain-fine --seed 0 --seconds 40 --trace 0

Each run builds the corpus it explains or evaluates from --seed with
``build_toy_corpus``, trains the toy model on the bundled corpus through
the CLI, and runs the workload's ``minfeat`` command in a child process
(``session.py``), so the peak resident memory belongs to that workload. This process then checks every output and
prints the metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics with tracing off. --trace 1
alternates two untraced and two traced sessions and reports per-layer
calls, busy and self time and counts (see NOTES.md for what each should
move).

The run refuses to start while any MINFEAT_* variable is set, because
the CLI's config loader would apply it to the workload without a trace.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from typing import Any

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".bench_out")
SESSION_TIMEOUT_S = 160
ENV_PREFIX = "MINFEAT_"

# Share of summed self time that the named spans must exceed on a
# workload's traced command, and spans that must be called only there.
PROFILES = {
    "explain-fine": (("attribution.", "model.input_gradient"), 0.5),
    "explain-long": (("knapsack.", "pipeline.sample_perturbations"), 0.5),
}
ONLY_ON = {"metrics.fms_words": "evaluate-short"}

# Counts that must repeat exactly between two traced sessions.
EXACT_COUNTS = (
    "knapsack.solve_dp.cells",
    "knapsack.solve_dp.items",
    "knapsack.solve_dp.trivial",
    "pipeline.sample_perturbations.pairs",
)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def environment() -> dict[str, Any]:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload_cpus": 1,
        "cpu": cpu,
    }


def run_session(args: argparse.Namespace, workdir: str) -> dict[str, Any] | None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    argv = [
        sys.executable,
        os.path.join(BENCH_DIR, "session.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]  # fmt: skip
    log_path = os.path.join(workdir, "session.log")
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=SESSION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        with open(log_path, "r", encoding="utf-8") as log:
            sys.stderr.write(log.read()[-4000:])
        why = "timed out" if code is None else f"exited {code}"
        print(f"error: workload session {why}", file=sys.stderr)
        return None
    with open(os.path.join(workdir, "session.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(workload_name: str, workdir: str, seed: int, config: dict, chunks) -> dict:
    """Failure reasons per chunk that ran, one per record without a valid output."""
    from minfeat.model import load_model

    import checks
    from session import WORKLOADS, Paths, workload_chunks

    workload = WORKLOADS[workload_name]
    paths = Paths(workdir, workload)
    corpus = workload_chunks(workload, seed)
    if workload.command == "evaluate":
        return {k: checks.check_metrics_table(paths.output(k), corpus[k]) for k in chunks}
    model = load_model(paths.model)
    return {k: checks.check_reports(paths.output(k), corpus[k], model, config) for k in chunks}


def end_to_end(session: dict, chunk_size: int, failures: dict) -> tuple[dict, int, int, list]:
    """Throughput pooled over every command of the run: valid records / wall."""
    reps = session["reps"]
    final_sha = {rep["chunk"]: rep["sha256"] for rep in reps}
    problems = []
    valid = 0
    for k, rep in enumerate(reps):
        if rep["exit_code"] != 0:
            problems.append(f"command {k} (chunk {rep['chunk']}) exited {rep['exit_code']}")
        elif rep["sha256"] != final_sha[rep["chunk"]]:
            problems.append(
                f"chunk {rep['chunk']} output hash {rep['sha256']} then {final_sha[rep['chunk']]}"
            )
        else:
            valid += chunk_size - len(failures[rep["chunk"]])
    attempted = chunk_size * len(reps)
    metrics = {
        "records_per_s": {
            "value": valid / math.fsum(rep["wall_s"] for rep in reps),
            "unit": "records/s",
        },
        "setup_s": {"value": statistics.median(session["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": session["peak_rss_mb"], "unit": "MB"},
    }
    return metrics, attempted, attempted - valid, problems


def per_layer(
    workload_name: str, session: dict, n_records: int, failures: dict
) -> tuple[dict, int, int, list]:
    from tracer import SPAN_NAMES

    traced = session["traced"]
    untraced = session["untraced"]
    problems = []
    runs = untraced + traced
    failed = 0
    for k, rep in enumerate(runs):
        if rep["exit_code"] != 0:
            problems.append(f"session {k} command exited {rep['exit_code']}")
            failed += n_records
        elif rep["sha256"] != traced[-1]["sha256"]:
            problems.append(f"session {k} output hash differs between traced and untraced runs")
            failed += n_records
        else:
            failed += len(failures[0])

    def combined(rep: dict, name: str, key: str) -> float:
        return rep["setup_stats"][name][key] + rep["command_stats"][name][key]

    first, second = traced[0], traced[1]
    for name in SPAN_NAMES:
        if combined(first, name, "calls") != combined(second, name, "calls"):
            problems.append(f"{name}.calls differs between traced sessions")
    for key in EXACT_COUNTS:
        if first["counts"].get(key, 0) != second["counts"].get(key, 0):
            problems.append(f"{key} differs between traced sessions")

    metrics: dict[str, dict[str, Any]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = {"value": combined(first, name, "calls"), "unit": "count"}
        for key in ("busy_s", "self_s"):
            value = statistics.fmean(combined(rep, name, key) for rep in traced)
            metrics[f"{name}.{key}"] = {"value": value, "unit": "s"}
    counts = first["counts"]
    solves = combined(first, "knapsack.solve_dp", "calls")
    metrics.update(
        {
            "knapsack.solve_dp.cells": {"value": counts.get("knapsack.solve_dp.cells", 0), "unit": "count"},
            "knapsack.solve_dp.items": {"value": counts.get("knapsack.solve_dp.items", 0), "unit": "count"},
            "knapsack.solve_dp.trivial_share": {
                "value": counts.get("knapsack.solve_dp.trivial", 0) / solves if solves else 0.0,
                "unit": "share",
            },
            "pipeline.sample_perturbations.pairs": {
                "value": counts.get("pipeline.sample_perturbations.pairs", 0),
                "unit": "count",
            },
            "attribution.gradients_per_record": {
                "value": first["command_stats"]["model.input_gradient"]["calls"] / n_records,
                "unit": "count/record",
            },
            "reports.bytes": {"value": counts.get("reports.bytes", 0), "unit": "B"},
            "trace.overhead_s": {
                "value": statistics.fmean(rep["session_s"] for rep in traced)
                - statistics.fmean(rep["session_s"] for rep in untraced),
                "unit": "s",
            },
        }
    )
    print_profile(workload_name, first)
    return metrics, n_records * len(runs), failed, problems


def print_profile(workload_name: str, rep: dict) -> None:
    """Layer shares of the traced command's CPU time, summed over threads."""
    stats = rep["command_stats"]
    total = sum(entry["self_s"] for entry in stats.values())
    layers: dict[str, float] = {}
    for name, entry in stats.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
    print(
        f"note: busy_s and self_s are thread CPU times summed over threads, so they can exceed "
        f"wall time; the traced command took {rep['wall_s']:.3f} s wall and {total:.3f} s of "
        f"summed self time"
    )
    shares = ", ".join(f"{layer} {value / total:.3f}" for layer, value in sorted(layers.items()))
    print(f"layer shares of self time: {shares}")
    if workload_name in PROFILES:
        prefixes, floor = PROFILES[workload_name]
        share = sum(e["self_s"] for n, e in stats.items() if n.startswith(prefixes)) / total
        verdict = "holds" if share > floor else "DOES NOT HOLD"
        print(f"profile: {' + '.join(prefixes)} share {share:.3f} (expected > {floor}): {verdict}")
    for name, owner in ONLY_ON.items():
        calls = stats[name]["calls"]
        ok = (calls > 0) == (workload_name == owner)
        print(f"profile: {name}.calls = {calls} (nonzero only on {owner}): {'holds' if ok else 'DOES NOT HOLD'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    leaked = sorted(name for name in os.environ if name.startswith(ENV_PREFIX))
    if leaked:
        return fail(
            f"refusing to run with {', '.join(leaked)} set: the CLI would apply it to every "
            "workload config; unset it"
        )
    if not os.path.isfile(os.path.join(SRC, "minfeat", "cli.py")):
        return fail(f"no minfeat sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    from session import WORKLOADS, resolved_config

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    workdir = os.path.join(OUT_DIR, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    config = resolved_config(WORKLOADS[args.workload])
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    print(f"config {json.dumps(config, sort_keys=True)}")

    session = run_session(args, workdir)
    if session is None:
        return 1
    chunk_size = WORKLOADS[args.workload].chunk
    if args.trace:
        failures = check_outputs(args.workload, workdir, args.seed, config, [0])
        metrics, attempted, failed, problems = per_layer(args.workload, session, chunk_size, failures)
        first_sha = session["traced"][-1]["sha256"]
    else:
        chunks = sorted({rep["chunk"] for rep in session["reps"]})
        failures = check_outputs(args.workload, workdir, args.seed, config, chunks)
        metrics, attempted, failed, problems = end_to_end(session, chunk_size, failures)
        first_sha = session["reps"][0]["sha256"]
        print(f"commands {len(session['reps'])} over chunks {chunks} of {chunk_size} records")
    if any(code != 0 for code in session["setup_exit_codes"]):
        problems.append(f"minfeat train exit codes {session['setup_exit_codes']}")
        failed = attempted
    problems += [failure for chunk in sorted(failures) for failure in failures[chunk]]

    print(f"output sha256 of chunk 0: {first_sha}")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    for name, metric in sorted(metrics.items()):
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_share {failed / attempted:.6g} share")
    correct = not problems
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
            sort_keys=True,
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Alternating paired runs of the benchmark in two checkouts.

    python3 scripts/paired_bench.py --parent DIR --change DIR \\
        --workload evaluate-short --seed 11 --pairs 10

Each pair runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, from its root: the parent
runs first in the first pair, the change in the second, and so on. Each
checkout is a full source tree, for example a ``git worktree`` or a
``git archive`` of a commit. perfbench writes its runs under the
checkout, so two paired runs at once need four checkouts. The run length T defaults to the
``run_seconds`` of the change's BENCHMARK.json and is the same for both
sides.

For every end-to-end metric that BENCHMARK.json names, the script prints
each side's median and quartiles with every run's value in pair order,
so a report can quote each run, then the change/parent ratio of every pair
and the number of pairs the change won (ties count for neither side).
It then gives each metric a no-regression verdict with the metric's
bound from BENCHMARK.json (see ``verdict``), and says whether the gain
rule holds (see ``gain_holds``). Last come each side's failed share. It
exits 1 if any run failed or reported incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in checkout; its closing JSON object."""
    argv = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-4000:])
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result["correct"] = result["correct"] and proc.returncode == 0
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _better(a: float, b: float, higher: bool) -> bool:
    return a > b if higher else a < b


def verdict(parent: list[float], change: list[float], bound: float, higher: bool) -> str:
    """The no-regression verdict on one metric; bound is a share of the parent's median.

    "worse beyond bound" when the change's median is worse than the
    parent's by more than bound allows. Otherwise "unresolved" when the
    parent's quartiles lie further apart than bound allows, unless every
    change run beats every parent run. Otherwise "within bound".
    """
    q1, median, q3 = quartiles(parent)
    allowed = bound * abs(median)
    gap = quartiles(change)[1] - median
    if (-gap if higher else gap) > allowed:
        return "worse beyond bound"
    if q3 - q1 > allowed and not all(_better(c, p, higher) for c in change for p in parent):
        return "unresolved"
    return "within bound"


def gain_holds(paired: list[tuple[float, float]], higher: bool) -> bool:
    """Whether the change won at least 9 of 10 (parent, change) pairs, ties
    counting for neither side, and its median beats the parent's by more
    than the parent's interquartile range."""
    wins = sum(_better(c, p, higher) for p, c in paired)
    q1, median, q3 = quartiles([p for p, _ in paired])
    gap = quartiles([c for _, c in paired])[1] - median
    return 10 * wins >= 9 * len(paired) and (gap if higher else -gap) > q3 - q1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="run length of every run (default: run_seconds)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]

    sides = {"parent": args.parent, "change": args.change}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_once(sides[side], args.workload, args.seed, seconds))
        print(f"pair {pair + 1} of {args.pairs} done ({order[0]} first)", flush=True)

    print(f"workload {args.workload} seed {args.seed} seconds {seconds} pairs {args.pairs}")
    for metric in benchmark["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        values = [
            [r["metrics"].get(name, {}).get("value") for r in results[side]] for side in ("parent", "change")
        ]
        paired = [(p, c) for p, c in zip(*values) if p is not None and c is not None]
        if not paired:
            print(f"{name}: no complete pair")
            continue
        print(f"{name} ({metric['unit']}, {'higher' if higher else 'lower'} is better)")
        parent_runs, change_runs = [p for p, _ in paired], [c for _, c in paired]
        for side, runs in (("parent", parent_runs), ("change", change_runs)):
            q1, median, q3 = quartiles(runs)
            print(f"  {side:6s} median {median:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
            print(f"  {side:6s} runs {' '.join(f'{v:.6g}' for v in runs)}")
        ratios = [c / p if p else float("inf") for p, c in paired]
        wins = sum(_better(c, p, higher) for p, c in paired)
        print(f"  change/parent per pair: {' '.join(f'{r:.3f}' for r in ratios)}")
        print(f"  change wins {wins} of {len(paired)} pairs")
        print(f"  verdict (bound {metric['bound']}): {verdict(parent_runs, change_runs, metric['bound'], higher)}")
        holds = "holds" if gain_holds(paired, higher) else "does not hold"
        print(f"  gain rule (9 of 10 pairs won, median gap above parent IQR): {holds}")
    for side, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        incorrect = sum(not r["correct"] for r in runs)
        share = failed / attempted if attempted else 1.0
        print(f"{side} failed_share {share:.6g} over {len(runs)} runs, {incorrect} incorrect")
    return 1 if any(not r["correct"] for runs in results.values() for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's own logic: self time, output checks, guards.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import checks
from minfeat import pipeline
from minfeat.cli import main as minfeat_main
from minfeat.config import load_config
from minfeat.corpus import save_corpus
from minfeat.data import build_toy_corpus
from minfeat.model import TrainConfig, load_model, save_model, train_toy
from minfeat.corpus import tokenize
from tracer import Span, Tracer, function_stats, self_times

REPO_ROOT = Path(__file__).resolve().parents[2]
RUN = REPO_ROOT / "perfbench" / "run.py"


def span(span_id, name, cpu_start, cpu_end, parent, thread):
    return Span(span_id, name, cpu_start, cpu_end, cpu_start, cpu_end, parent, thread)


def test_self_time_subtracts_only_children_on_the_same_thread():
    # Thread 1: run_explain [0, 10] holds load_corpus [1, 2] and write_reports [8, 9].
    # Thread 2: refine [2, 7] adopted run_explain as parent and holds solve_dp [3, 6],
    # which holds nothing. refine runs concurrently, so it does not reduce run_explain.
    spans = [
        span(1, "cli.run_explain", 0.0, 10.0, None, 1),
        span(2, "corpus.load_corpus", 1.0, 2.0, 1, 1),
        span(3, "reports.write_reports", 8.0, 9.0, 1, 1),
        span(4, "pipeline.refine", 2.0, 7.0, 1, 2),
        span(5, "knapsack.solve_dp", 3.0, 6.0, 4, 2),
    ]
    own = self_times(spans)
    assert own == {1: 8.0, 2: 1.0, 3: 1.0, 4: 2.0, 5: 3.0}
    stats = function_stats(spans)
    assert stats["pipeline.refine"] == {"calls": 1, "busy_s": 5.0, "self_s": 2.0}
    # Busy time summed over both threads exceeds the 10 s the root span lasted.
    assert sum(s["self_s"] for s in stats.values()) == 15.0
    assert stats["metrics.fms_words"]["calls"] == 0


def test_tracer_wraps_every_importer_and_restores_on_exit():
    original = pipeline.solve_dp
    examples = [(tokenize(r.text), r.label) for r in build_toy_corpus(20, seed=3)]
    model = train_toy(examples, TrainConfig(epochs=5, seed=0))
    from minfeat.model import instance_from_words

    instance, _ = instance_from_words(model, examples[0][0], examples[0][1])
    config = pipeline.CidrConfig(steps=4, n_iter=2)
    with Tracer("test") as tracer:
        assert pipeline.solve_dp is not original
        mfs = pipeline.refine(model, instance, config)
    assert pipeline.solve_dp is original
    stats = function_stats(tracer.spans)
    assert stats["pipeline.refine"]["calls"] == 1
    assert stats["pipeline.sample_perturbations"]["calls"] == 2
    assert tracer.counts["pipeline.sample_perturbations.pairs"] == 2 * len(
        mfs.pair_scores.positive_pairs
    )
    n = len(instance)
    assert stats["model.input_gradient"]["calls"] == (n + 1) * (config.steps + 1)
    by_id = {s.span_id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.name == "knapsack.solve_dp":
            assert by_id[s.parent].name == "pipeline.refine"
    assert {s.thread for s in tracer.spans} == {threading.get_ident()}


@pytest.fixture(scope="module")
def explained(tmp_path_factory):
    """A two-record explain run with a small model: corpus, model and report paths."""
    root = tmp_path_factory.mktemp("explain")
    records = build_toy_corpus(2, seed=5)
    examples = [(tokenize(r.text), r.label) for r in build_toy_corpus(40, seed=5)]
    save_model(train_toy(examples, TrainConfig(epochs=10, seed=0)), str(root / "model.json"))
    save_corpus(records, str(root / "corpus.jsonl"))
    argv = ["explain", "--corpus", str(root / "corpus.jsonl"), "--model", str(root / "model.json")]
    assert minfeat_main(argv + ["--out", str(root / "reports.jsonl")]) == 0
    return records, load_model(str(root / "model.json")), root / "reports.jsonl"


def test_output_check_passes_real_reports(explained):
    records, model, reports = explained
    assert checks.check_reports(str(reports), records, model, load_config(None, env={})) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda line: line[: len(line) // 2],
        lambda line: line.replace('"tokens":[', '"tokens":7,"x":['),
        lambda line: json.dumps({**json.loads(line), "mfs_words": [0, 1, 2]}, sort_keys=True),
        lambda line: json.dumps({**json.loads(line), "ig": [0.0] * len(json.loads(line)["ig"])}),
    ],
    ids=["truncated", "wrong-type", "mfs-words", "completeness"],
)
def test_corrupted_report_line_fails_its_record(explained, tmp_path, corrupt):
    records, model, reports = explained
    lines = reports.read_text(encoding="utf-8").splitlines()
    lines[1] = corrupt(lines[1])
    bad = tmp_path / "reports.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    failures = checks.check_reports(str(bad), records, model, load_config(None, env={}))
    assert len(failures) == 1 and failures[0].startswith(records[1].id)


def test_metrics_table_needs_six_finite_rows(tmp_path):
    records = build_toy_corpus(3, seed=1)
    rows = [
        {"method": m, "lo": -0.1, "comp": 0.2, "fms": 0.5, "n": 3, "seed": 0}
        for m in checks.METHODS
    ]
    table = tmp_path / "metrics.jsonl"
    table.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    assert checks.check_metrics_table(str(table), records) == []
    rows[2]["fms"] = float("nan")
    table.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    assert len(checks.check_metrics_table(str(table), records)) == 3


def run_benchmark(cwd, extra_env):
    env = {k: v for k, v in os.environ.items() if not k.startswith("MINFEAT_")}
    env.update(extra_env)
    argv = [sys.executable, str(RUN), "--workload", "explain-short", "--seed", "0", "--seconds", "1"]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


def test_minfeat_variable_makes_the_benchmark_refuse(tmp_path):
    result = run_benchmark(REPO_ROOT, {"MINFEAT_STEPS": "5"})
    assert result.returncode != 0
    assert "MINFEAT_STEPS" in result.stderr
    assert result.stdout == ""


def test_refuses_without_minfeat_sources(tmp_path):
    result = run_benchmark(tmp_path, {})
    assert result.returncode != 0
    assert result.stdout == ""

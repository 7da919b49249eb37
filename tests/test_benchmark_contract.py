"""The functions the benchmark's tracer wraps must stay where it looks,
and the outputs its checks read must pass them.

perfbench/tracer.py patches minfeat's layers from outside the package by
name. Renaming, moving or inlining one of its targets would break
``perfbench/run.py --trace 1``; these checks catch that in the unit suite.
perfbench/checks.py validates every report and metrics table the
benchmark writes; a report field built wrong fails them here first.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import threading
from pathlib import Path

import pytest

from conftest import predicted_pair_map
from minfeat import cli, evaluation, pipeline
from minfeat.config import load_config
from minfeat.corpus import save_corpus
from minfeat.knapsack import quantize
from minfeat.model import save_model
from minfeat.reports import read_reports

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


def test_every_target_resolves(tracer):
    for layer, target in tracer.TARGETS:
        home = importlib.import_module(f"minfeat.{layer}")
        if "." in target:
            cls_name, method = target.split(".")
            assert method in vars(getattr(home, cls_name)), f"{layer}.{target}"
        else:
            assert callable(getattr(home, target, None)), f"{layer}.{target}"


def test_parallel_map_exists():
    assert callable(evaluation.parallel_map)


def test_refine_records_bound_and_solver_spans(tracer, toy_model, toy_instances):
    config = pipeline.CidrConfig(n_iter=2, steps=12)
    pair_map = predicted_pair_map(toy_model, toy_instances[1], config)
    with tracer.Tracer("contract") as trace:
        pipeline.refine(pair_map, config)
    names = {span.name for span in trace.spans}
    assert {"pipeline.refine", "pipeline.perturbed_upper_bound", "knapsack.solve_dp"} <= names


def test_refine_counts_match_the_exact_count_gate(tracer, toy_model, toy_instances):
    # perfbench/run.py gates on these counts repeating exactly; its counters
    # read positional arguments, so a changed call shape would break them.
    # refine samples all its iterations in one call, so the pair count is
    # the number of positive pairs, not n_iter times it.
    config = pipeline.CidrConfig(n_iter=3, steps=12)
    pair_map = predicted_pair_map(toy_model, toy_instances[1], config)
    with tracer.Tracer("contract") as trace:
        mfs = pipeline.refine(pair_map, config)
    n_pairs = len(mfs.pair_scores.positive_pairs)
    solves = sum(1 for span in trace.spans if span.name == "knapsack.solve_dp")
    assert n_pairs > 0 and solves > 0
    assert trace.counts["pipeline.sample_perturbations.pairs"] == n_pairs
    assert trace.counts["knapsack.solve_dp.items"] == solves * n_pairs


def test_solve_dp_counter_reads_quantized_instances(tracer):
    # The tracer counts len(instance.items) items, items x (capacity + 1)
    # cells, and a trivial solve when the integer weights (1, 2, 3) fit.
    fits, below = quantize((1.0, 2.0, 3.0), [[0.5] * 3] * 2, (6.5, 4.0), 0)
    assert [tracer._count_solve_dp((instance,)) for instance in (fits, below)] == [
        {"knapsack.solve_dp.cells": 21, "knapsack.solve_dp.items": 3, "knapsack.solve_dp.trivial": 1},
        {"knapsack.solve_dp.cells": 15, "knapsack.solve_dp.items": 3, "knapsack.solve_dp.trivial": 0},
    ]


def test_evaluate_records_every_metric_span(tracer, toy_model, toy_instances):
    config = pipeline.CidrConfig(n_iter=2, steps=8)
    with tracer.Tracer("contract") as trace:
        evaluation.evaluate_methods(toy_model, toy_instances[:2], list(evaluation.METHODS), config)
    names = {span.name for span in trace.spans}
    assert {
        "metrics.comprehensiveness",
        "metrics.log_odds",
        "metrics.fms_pairs",
        "metrics.fms_words",
    } <= names


def test_metrics_score_removals_without_forward(tracer, toy_model, toy_instances):
    # Every metric removal goes through Model.removal_probabilities, one
    # head call per mask stack; a Model.forward under a metric span means
    # a per-removal loop came back.
    config = pipeline.CidrConfig(n_iter=2, steps=8)
    with tracer.Tracer("contract") as trace:
        evaluation.evaluate_methods(toy_model, toy_instances[:2], list(evaluation.METHODS), config)
    names = {span.span_id: span.name for span in trace.spans}
    assert any(name.startswith("metrics.") for name in names.values())
    under_metrics = [
        span for span in trace.spans
        if span.name == "model.forward" and names.get(span.parent, "").startswith("metrics.")
    ]
    assert under_metrics == []


def test_explain_records_single_instance_metrics_span(tracer, toy_model, toy_corpus, tmp_path):
    model, corpus, config = tmp_path / "model.json", tmp_path / "corpus.jsonl", tmp_path / "c.json"
    save_model(toy_model, str(model))
    save_corpus(toy_corpus[:2], str(corpus))
    config.write_text(json.dumps({"steps": 8, "n_iter": 2}), encoding="utf-8")
    argv = ["explain", "--corpus", str(corpus), "--model", str(model), "--config", str(config)]
    with tracer.Tracer("contract") as trace:
        assert cli.main(argv + ["--out", str(tmp_path / "r.jsonl")]) == 0
    assert "evaluation.single_instance_metrics" in {span.name for span in trace.spans}


def test_explain_runs_every_record_on_the_calling_thread(tracer, toy_model, toy_corpus, tmp_path):
    # Each record's refine is a direct child of the command's span, with
    # no worker threads in between.
    model, corpus, config = tmp_path / "model.json", tmp_path / "corpus.jsonl", tmp_path / "c.json"
    save_model(toy_model, str(model))
    save_corpus(toy_corpus[:3], str(corpus))
    config.write_text(json.dumps({"steps": 8, "n_iter": 2}), encoding="utf-8")
    argv = ["explain", "--corpus", str(corpus), "--model", str(model), "--config", str(config)]
    with tracer.Tracer("contract") as trace:
        assert cli.main(argv + ["--out", str(tmp_path / "r.jsonl")]) == 0
    assert {span.thread for span in trace.spans} == {threading.get_ident()}
    (command,) = [span for span in trace.spans if span.name == "cli.run_explain"]
    refines = [span for span in trace.spans if span.name == "pipeline.refine"]
    assert len(refines) == 3
    assert {span.parent for span in refines} == {command.span_id}


def test_cli_outputs_pass_the_benchmark_checks(toy_model, toy_corpus, tmp_path):
    checks = _load("checks")
    model, corpus, config = tmp_path / "model.json", tmp_path / "corpus.jsonl", tmp_path / "c.json"
    records = toy_corpus[:2]
    save_model(toy_model, str(model))
    save_corpus(records, str(corpus))
    config.write_text(json.dumps({"n_iter": 3}), encoding="utf-8")
    common = ["--corpus", str(corpus), "--model", str(model), "--config", str(config)]
    reports, table = tmp_path / "r.jsonl", tmp_path / "m.jsonl"
    assert cli.main(["explain", *common, "--out", str(reports)]) == 0
    assert cli.main(["evaluate", *common, "--out", str(table)]) == 0
    # the u2_prime count is only checked on non-degenerate reports
    assert not all(r.degenerate for r in read_reports(str(reports)))
    values = load_config(str(config), env={})
    assert checks.check_reports(str(reports), records, toy_model, values) == []
    assert checks.check_metrics_table(str(table), records) == []


def test_fine_explain_passes_the_report_checks(toy_model, toy_corpus, tmp_path):
    # explain-fine's config: at 300 steps the checks hold the completeness
    # residual to 1e-3 on the path the benchmark times.
    checks = _load("checks")
    model, corpus, config = tmp_path / "model.json", tmp_path / "corpus.jsonl", tmp_path / "c.json"
    records = toy_corpus[:2]
    save_model(toy_model, str(model))
    save_corpus(records, str(corpus))
    config.write_text(json.dumps({"steps": 300}), encoding="utf-8")
    reports = tmp_path / "r.jsonl"
    argv = ["explain", "--corpus", str(corpus), "--model", str(model), "--config", str(config)]
    assert cli.main(argv + ["--out", str(reports)]) == 0
    values = load_config(str(config), env={})
    assert checks.check_reports(str(reports), records, toy_model, values) == []

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
    # A batch's bounds are array work inside refine's own span; its draws,
    # its one quantize call and each record's solve are spans of their own.
    config = pipeline.CidrConfig(n_iter=2, steps=12)
    pair_maps = [predicted_pair_map(toy_model, inst, config) for inst in toy_instances[:3]]
    with tracer.Tracer("contract") as trace:
        pipeline.refine(pair_maps, config)
    names = [span.name for span in trace.spans]
    once = ("pipeline.refine", "pipeline.sample_perturbations", "knapsack.quantize")
    assert [names.count(name) for name in once] == [1, 1, 1]
    assert "knapsack.solve_dp" in names


def test_refine_counts_match_the_exact_count_gate(tracer, toy_model, toy_instances):
    # perfbench/run.py gates on these counts repeating exactly; its counters
    # read positional arguments, so a changed call shape would break them.
    # refine samples every iteration of every record in its batch in one
    # call, so the pair count is the batch's total positive pairs, not
    # n_iter times it; solve_dp counts each record's pairs once per solve.
    config = pipeline.CidrConfig(n_iter=3, steps=12)
    pair_maps = [predicted_pair_map(toy_model, inst, config) for inst in toy_instances[:4]]
    with tracer.Tracer("contract") as trace:
        results = pipeline.refine(pair_maps, config)
    sizes = [len(mfs.pair_scores.positive_pairs) for mfs in results]
    # A record is solved when one of its solver capacities is positive.
    margins = [size * 10.0 ** (-config.q) / 2.0 for size in sizes]
    solved = [
        size for size, margin, mfs in zip(sizes, margins, results) if (mfs.capacities - margin > 0.0).any()
    ]
    solves = sum(1 for span in trace.spans if span.name == "knapsack.solve_dp")
    assert len(solved) > 1 and solves == len(solved)
    assert trace.counts["pipeline.sample_perturbations.pairs"] == sum(sizes)
    assert trace.counts["knapsack.solve_dp.items"] == sum(solved)


def test_solve_dp_counter_reads_quantized_instances(tracer):
    # The tracer counts len(batch.items) items, items x (capacity + 1)
    # cells with capacity the batch's largest, and a trivial solve when
    # the integer weights (1, 2, 3) fit it.
    fits, below = quantize([(1.0, 2.0, 3.0)] * 2, [[[0.5] * 3], [[0.5] * 3] * 2], [(6.5,), (1.0, 4.0)], 0)
    assert [tracer._count_solve_dp((batch,)) for batch in (fits, below)] == [
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
    # explain scores each refine group in one call; its two records are
    # one group. The call opens no metrics.* span: those spans are the
    # corpus means, which evaluate times.
    model, corpus, config = tmp_path / "model.json", tmp_path / "corpus.jsonl", tmp_path / "c.json"
    save_model(toy_model, str(model))
    save_corpus(toy_corpus[:2], str(corpus))
    config.write_text(json.dumps({"steps": 8, "n_iter": 2}), encoding="utf-8")
    argv = ["explain", "--corpus", str(corpus), "--model", str(model), "--config", str(config)]
    with tracer.Tracer("contract") as trace:
        assert cli.main(argv + ["--out", str(tmp_path / "r.jsonl")]) == 0
    names = [span.name for span in trace.spans]
    assert names.count("pipeline.refine") == 1
    assert names.count("evaluation.single_instance_metrics") == 1
    assert not [name for name in names if name.startswith("metrics.")]


def test_explain_runs_every_record_on_the_calling_thread(tracer, toy_model, toy_corpus, tmp_path):
    # The command refines its corpus one group at a time, each in one
    # refine call that is a direct child of the command's span, with no
    # worker threads in between; these three records are one group.
    model, corpus, config = tmp_path / "model.json", tmp_path / "corpus.jsonl", tmp_path / "c.json"
    save_model(toy_model, str(model))
    save_corpus(toy_corpus[:3], str(corpus))
    config.write_text(json.dumps({"steps": 8, "n_iter": 2}), encoding="utf-8")
    argv = ["explain", "--corpus", str(corpus), "--model", str(model), "--config", str(config)]
    with tracer.Tracer("contract") as trace:
        assert cli.main(argv + ["--out", str(tmp_path / "r.jsonl")]) == 0
    assert {span.thread for span in trace.spans} == {threading.get_ident()}
    (command,) = [span for span in trace.spans if span.name == "cli.run_explain"]
    (refine,) = [span for span in trace.spans if span.name == "pipeline.refine"]
    assert refine.parent == command.span_id


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
    values = load_config(str(config))
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
    values = load_config(str(config))
    assert checks.check_reports(str(reports), records, toy_model, values) == []

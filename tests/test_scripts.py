"""Smoke tests for the scripts: they run and print their summaries."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_demo_prints_pair_scores(capsys):
    # Record 1 has a non-empty minimal feature set on the default model.
    assert _load("run_demo").main(["--index", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("cig=" in line for line in lines)


def test_make_toy_corpus_writes_every_record(tmp_path):
    out = tmp_path / "corpus.jsonl"
    assert _load("make_toy_corpus").main(["--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 200


def test_directional_study_prints_seed_means(capsys):
    # Only the shape of the output: the figures move whenever the model
    # or the sampler does.
    assert _load("directional_study").main(["--seeds", "1", "--methods", "cidr,random"]) == 0
    out = capsys.readouterr().out
    means = out.split("seed means:")[1].splitlines()
    assert [line.split()[0] for line in means if line.strip()][1:] == ["cidr", "random"]


def test_output_digests_prints_one_line_per_output(capsys):
    assert _load("output_digests").main(["--seeds", "3", "--workloads", "explain-short", "--chunks", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[1] for line in lines] == [f"explain-short/seed3/output-{k}.jsonl" for k in (0, 1)]
    digests = [line.split("  ")[0] for line in lines]
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests) and digests[0] != digests[1]


def test_paired_bench_prints_every_metric(capsys):
    # One pair of this checkout against itself, at a run length too short
    # to mean anything: only the shape of the summary.
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "evaluate-short",
            "--seed", "0", "--pairs", "1", "--seconds", "0.2"]
    assert _load("paired_bench").main(argv) == 0
    out = capsys.readouterr().out
    for name in ("records_per_s", "setup_s", "peak_rss_mb"):
        assert f"\n{name} (" in out
    assert out.count("change wins") == 3
    assert "parent failed_share 0 over 1 runs, 0 incorrect" in out

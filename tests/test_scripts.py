"""Smoke tests for the scripts: they run and print their summaries."""

from __future__ import annotations

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from minfeat.model import Model
from minfeat.reports import ExplanationReport, MfsEntry, PairScoreEntry, write_reports

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


def test_run_demo_makes_one_forward(monkeypatch, capsys):
    # The explained class and its printed probability come from one vector.
    calls = []
    forward = Model.forward
    monkeypatch.setattr(Model, "forward", lambda self, embeddings: calls.append(1) or forward(self, embeddings))
    assert _load("run_demo").main(["--index", "1"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "script, argv, named",
    [("run_demo", ["--beta", "2"], "--beta"), ("run_demo", ["--beta", "nan"], "--beta"),
     ("run_demo", ["--seed", "-1"], "--seed"), ("directional_study", ["--seeds", "0"], "--seeds"),
     ("directional_study", ["--methods", "cidr,bogus"], "--methods"),
     ("directional_study", ["--methods", "random,random"], "--methods"),
     ("run_demo", ["--index", "200"], "--index"), ("run_demo", ["--index", "-1"], "--index")],
)  # fmt: skip
def test_scripts_reject_bad_arguments_naming_them(capsys, script, argv, named):
    with pytest.raises(SystemExit) as exit_info:
        _load(script).main(argv)
    assert exit_info.value.code == 2
    (message,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert f"error: {named}" in message


def test_make_toy_corpus_writes_every_record(tmp_path):
    out = tmp_path / "corpus.jsonl"
    assert _load("make_toy_corpus").main(["--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 200


@pytest.mark.parametrize(
    "argv, named",
    [(["--size", "-3"], "--size"), (["--size", "0"], "--size"), (["--seed", "-1"], "--seed"),
     (["--min-len", "2"], "--min-len"), (["--max-len", "10"], "--max-len"),
     (["--anchor-rate", "nan"], "--anchor-rate"), (["--anchor-rate", "1.5"], "--anchor-rate")],
)  # fmt: skip
def test_make_toy_corpus_rejects_bad_values_naming_the_argument(tmp_path, capsys, argv, named):
    out = tmp_path / "corpus.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        _load("make_toy_corpus").main(["--out", str(out)] + argv)
    assert exit_info.value.code == 2
    (message,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert f"error: {named} must" in message
    assert not out.exists()


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
    names = ["model.json"] + [f"output-{k}.jsonl" for k in (0, 1)]
    assert [line.split("  ")[1] for line in lines] == [f"explain-short/seed3/{name}" for name in names]
    digests = [line.split("  ")[0] for line in lines]
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests) and len(set(digests)) == 3


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
    for side in ("parent", "change"):
        # One pair: each metric's line holds that side's one run value.
        runs = [line.split()[2:] for line in out.splitlines() if line.startswith(f"  {side} runs ")]
        assert len(runs) == 3 and all(len(values) == 1 and float(values[0]) > 0 for values in runs)
    assert "parent failed_share 0 over 1 runs, 0 incorrect" in out


def test_report_diff_tells_float_moves_from_changed_fields(tmp_path, capsys):
    report = ExplanationReport(
        instance_id="r0", tokens=("a", "fine", "film"), predicted_class=1, predicted_probability=0.75,
        ig=(0.1, 0.3, 0.2), positive_pairs=(PairScoreEntry(0, 1, 0.5), PairScoreEntry(1, 2, 0.7)),
        mfs_pairs=(MfsEntry(1, 2, 0.6),), mfs_words=(1, 2), u1=1.2, u2=0.9, u2_prime=(0.8, 1.0),
        degenerate=False, oov_count=0, config={"beta": 0.5, "seed": 0}, seed=0,
        comp=0.4, lo=-1.5, fms=1.0,
    )  # fmt: skip
    variants = {
        "base": report,
        "same": report,
        "nudged": replace(report, ig=(0.1, 0.3 + 2**-54, 0.2)),  # one ulp of 0.3
        "other-pair": replace(report, mfs_pairs=(MfsEntry(0, 1, 0.6),)),
    }
    paths = {name: str(tmp_path / f"{name}.jsonl") for name in variants}
    for name, variant in variants.items():
        write_reports([variant], paths[name])
    script = _load("report_diff")

    def moves() -> dict[str, float]:
        lines = capsys.readouterr().out.splitlines()
        return {name.strip(): float(move) for name, move in (line.split(" largest move ") for line in lines)}

    assert script.main([paths["base"], paths["same"]]) == 0
    same = moves()
    assert list(same) == list(script.FLOAT_FIELDS) and set(same.values()) == {0.0}
    assert script.main([paths["base"], paths["nudged"]]) == 0
    assert moves() == {**same, "ig": float(f"{2**-54:.3g}")}
    assert script.main([paths["base"], paths["other-pair"]]) == 1
    assert "mfs_pairs" in capsys.readouterr().out

"""Every entry point works on one model: the checkpoint `minfeat train`
writes from the bundled corpus, `train_toy` under `TrainConfig()`, and
the README's Python quick start, which must agree with `minfeat explain`."""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from minfeat import build_toy_corpus, tokenize
from minfeat.cli import main
from minfeat.corpus import save_corpus
from minfeat.model import TrainConfig, save_model, train_toy
from minfeat.reports import read_reports

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """The bundled corpus trained and explained through the CLI, with no
    config file or flag."""
    root = tmp_path_factory.mktemp("entry")
    paths = {name: root / name for name in ("corpus.jsonl", "model.json", "reports.jsonl")}
    save_corpus(build_toy_corpus(), str(paths["corpus.jsonl"]))
    with contextlib.redirect_stdout(io.StringIO()):
        corpus, model = str(paths["corpus.jsonl"]), str(paths["model.json"])
        assert main(["train", "--corpus", corpus, "--out", model]) == 0
        assert main(["explain", "--corpus", corpus, "--model", model, "--out", str(paths["reports.jsonl"])]) == 0
    return paths


def _quick_start_source() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (Python)", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], flags=re.S)
    return block


def test_train_config_default_trains_the_cli_checkpoint(cli_run, tmp_path):
    examples = [(tokenize(r.text), r.label) for r in build_toy_corpus()]
    path = tmp_path / "model.json"
    save_model(train_toy(examples, TrainConfig()), str(path))
    assert path.read_bytes() == cli_run["model.json"].read_bytes()


def test_readme_quick_start_matches_the_explain_report(cli_run):
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(_quick_start_source(), str(README), "exec"), namespace)
    mfs = namespace["mfs"]
    (report,) = [r for r in read_reports(str(cli_run["reports.jsonl"])) if r.instance_id == "toy-0003"]
    assert mfs.pairs  # a non-empty set, so the comparison below has a subject
    assert [(e.i, e.j, e.frequency) for e in report.mfs_pairs] == [
        (i, j, f) for (i, j), f in zip(mfs.pairs, mfs.frequencies)
    ]
    assert len(printed.getvalue().splitlines()) == len(mfs.pairs)


def test_minfeat_variables_leave_the_metrics_file_unchanged(cli_run, tmp_path, monkeypatch):
    # A metrics row records only the seed, so no shell variable may change it.
    argv = ["evaluate", "--corpus", str(cli_run["corpus.jsonl"]), "--model", str(cli_run["model.json"])]
    argv += ["--methods", "cidr"]
    unset, overridden = tmp_path / "unset.jsonl", tmp_path / "overridden.jsonl"
    monkeypatch.delenv("MINFEAT_BETA", raising=False)
    monkeypatch.delenv("MINFEAT_STEPS", raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(unset)]) == 0
        monkeypatch.setenv("MINFEAT_BETA", "0.0")
        monkeypatch.setenv("MINFEAT_STEPS", "5")
        assert main(argv + ["--out", str(overridden)]) == 0
    assert overridden.read_bytes() == unset.read_bytes()
    (row,) = [json.loads(line) for line in unset.read_text(encoding="utf-8").splitlines()]
    assert row["fms"] == pytest.approx(0.11)

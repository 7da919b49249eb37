"""Smoke test for the demo script."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_run_demo_prints_pair_scores(capsys):
    spec = importlib.util.spec_from_file_location("run_demo", SCRIPTS / "run_demo.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Record 1 has a non-empty minimal feature set on the default model.
    assert module.main(["--index", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("cig=" in line for line in lines)

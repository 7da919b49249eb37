"""Output files are replaced whole or left as they were."""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from conftest import make_random_model
from minfeat.corpus import CorpusRecord, save_corpus
from minfeat.files import atomic_write
from minfeat.model import save_model
from minfeat.reports import write_reports
from test_reports import sample_report


def test_completed_block_replaces_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with atomic_write(str(path)) as fh:
        fh.write("new\n")
    assert path.read_text(encoding="utf-8") == "new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failed_block_keeps_previous_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with atomic_write(str(path)) as fh:
            fh.write("partial")
            raise RuntimeError("serialization failed")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failed_first_write_leaves_nothing(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(str(tmp_path / "out.txt")) as fh:
            fh.write("partial")
            raise RuntimeError("serialization failed")
    assert os.listdir(tmp_path) == []


def test_os_error_from_the_block_passes_through(tmp_path):
    # Only creating and renaming the temporary file become InputError.
    with pytest.raises(FileNotFoundError):
        with atomic_write(str(tmp_path / "out.txt")):
            open(tmp_path / "absent.txt", encoding="utf-8")
    assert os.listdir(tmp_path) == []


def _bad_model():
    # An unserializable last parameter makes json.dump fail after the
    # other keys have been written.
    model = make_random_model(0)
    return dataclasses.replace(model, w2=np.full(model.w2.shape, object()))


WRITERS = {
    "reports": (write_reports, lambda: [sample_report(), object()]),
    "corpus": (save_corpus, lambda: [CorpusRecord(id="a", text="good plot", label=1), object()]),
    "model": (save_model, _bad_model),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writer_failing_mid_write_keeps_previous_file(tmp_path, writer):
    write, bad_input = WRITERS[writer]
    path = tmp_path / "out.jsonl"
    path.write_text("previous\n", encoding="utf-8")
    with pytest.raises((AttributeError, TypeError)):
        write(bad_input(), str(path))
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert os.listdir(tmp_path) == ["out.jsonl"]

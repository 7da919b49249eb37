"""Input files read whole, and output files replaced whole or not at all."""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from typing import Iterator, TextIO

from .errors import InputError


def read_text(path: str, what: str) -> str:
    """The text of a UTF-8 file; one unreadable or not UTF-8 is an InputError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


@contextmanager
def atomic_write(path: str) -> Iterator[TextIO]:
    """Open a text file that replaces path only once the block completes.

    The text goes to a temporary file in path's directory, which
    os.replace then renames over path. If the block raises, the temporary
    file is deleted, path keeps its previous contents and the exception
    passes through unchanged. Failing to create the temporary file or to
    rename it raises InputError naming path. This guards against a run
    failing part-way through a write, not against power loss: nothing is
    flushed to disk before the rename.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    try:
        # Exclusive creation keeps the usual umask-derived permissions.
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)

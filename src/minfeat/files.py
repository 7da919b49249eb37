"""Input files read whole and parsed as JSON; output files replaced whole or not at all."""

from __future__ import annotations

import json
import os
import uuid
from contextlib import contextmanager
from typing import Any, Iterator, TextIO

from .errors import InputError


def read_text(path: str, what: str) -> str:
    """The text of a UTF-8 file; one unreadable or not UTF-8 is an InputError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


# Built once: json.loads builds a decoder on every call that passes a hook.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def parse_json(text: str, what: str) -> Any:
    """The JSON value of text; invalid JSON is an InputError naming what.

    So is a repeated key, whose meaning RFC 8259 (section 4) leaves
    unpredictable, and an integer too long or a nesting too deep to parse.
    """
    try:
        return _DECODER.decode(text)
    except (ValueError, RecursionError) as exc:  # ValueError includes JSONDecodeError
        raise InputError(f"{what} is not valid JSON: {exc}") from exc


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

"""Output files that are replaced whole or not at all."""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from typing import Iterator, TextIO


@contextmanager
def atomic_write(path: str) -> Iterator[TextIO]:
    """Open a text file that replaces path only once the block completes.

    The text goes to a temporary file in path's directory, which
    os.replace then renames over path. If the block raises, the temporary
    file is deleted and path keeps its previous contents. This guards
    against a run failing part-way through a write, not against power
    loss: nothing is flushed to disk before the rename.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    try:
        # Exclusive creation keeps the usual umask-derived permissions.
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)

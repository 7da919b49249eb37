"""Corpus ingestion: line-delimited JSON records with id, text, and label,
each checked by CorpusRecord, whether read from a file or built in Python."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InputError
from .files import atomic_write, parse_json, read_text


@dataclass(frozen=True)
class CorpusRecord:
    id: str
    text: str
    label: int

    def __post_init__(self) -> None:
        if not isinstance(self.id, str):
            raise InputError("id must be a string")
        if not isinstance(self.text, str):
            raise InputError("text must be a string")
        if not isinstance(self.label, int) or isinstance(self.label, bool):
            raise InputError("label must be an integer")
        if not self.id:
            raise InputError("record id must be a nonempty string")
        if not self.text.strip():
            raise InputError("record text must be nonempty")
        if self.label < 0:
            raise InputError("record label must be a non-negative class index")


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization after lowercasing. No further normalization."""
    return text.lower().split()


def _parse_line(line: str, line_no: int) -> CorpusRecord:
    try:
        raw = parse_json(line, "record")
        if not isinstance(raw, dict):
            raise InputError("record must be a JSON object")
        for field_name in ("id", "text", "label"):
            if field_name not in raw:
                raise InputError(f"record missing field {field_name!r}")
        return CorpusRecord(id=raw["id"], text=raw["text"], label=raw["label"])
    except InputError as exc:
        raise InputError(f"line {line_no}: {exc}") from exc


def load_corpus(path: str) -> list[CorpusRecord]:
    """Parse one JSON record per line; CRLF endings are accepted.

    Blank lines are skipped. Errors name the offending line number, and a
    duplicate id reports both lines involved.
    """
    text = read_text(path, "corpus")
    records: list[CorpusRecord] = []
    seen: dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        record = _parse_line(stripped, line_no)
        if record.id in seen:
            raise InputError(
                f"duplicate id {record.id!r} on lines {seen[record.id]} and {line_no}"
            )
        seen[record.id] = line_no
        records.append(record)
    if not records:
        raise InputError("corpus file contains no records")
    return records


def save_corpus(records: list[CorpusRecord], path: str) -> None:
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(
                json.dumps(
                    {"id": rec.id, "text": rec.text, "label": rec.label},
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
            fh.write("\n")

"""Per-instance explanation reports and their line-delimited form.

One report captures everything the pipeline produced for one corpus
record: token-level attribution, the positive cooperative pairs, the
minimal feature set with frequencies, the bounds, the exact config, and
the instance-level metric values. Serialization is canonical JSON
(sorted keys, fixed separators), so identical inputs yield identical
bytes and every file round-trips losslessly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Callable, Mapping

from .errors import InputError


@dataclass(frozen=True)
class PairScoreEntry:
    i: int
    j: int
    cig: float


@dataclass(frozen=True)
class MfsEntry:
    i: int
    j: int
    frequency: float


@dataclass(frozen=True)
class ExplanationReport:
    instance_id: str
    tokens: tuple[str, ...]
    predicted_class: int
    predicted_probability: float
    ig: tuple[float, ...]
    positive_pairs: tuple[PairScoreEntry, ...]
    mfs_pairs: tuple[MfsEntry, ...]
    mfs_words: tuple[int, ...]
    u1: float
    u2: float
    u2_prime: tuple[float, ...]
    degenerate: bool
    oov_count: int
    config: Mapping[str, Any]
    seed: int
    comp: float
    lo: float
    fms: float

    def __post_init__(self) -> None:
        n = len(self.tokens)
        if len(self.ig) != n:
            raise InputError("one attribution score per token is required")
        for entry in list(self.positive_pairs) + list(self.mfs_pairs):
            if not (0 <= entry.i < entry.j < n):
                raise InputError(f"pair ({entry.i}, {entry.j}) out of range for {n} tokens")
        for w in self.mfs_words:
            if not 0 <= w < n:
                raise InputError(f"word index {w} out of range for {n} tokens")


def report_to_dict(report: ExplanationReport) -> dict[str, Any]:
    payload = asdict(report)
    payload["tokens"] = list(report.tokens)
    payload["config"] = dict(report.config)
    return payload


def _field(raw: Mapping[str, Any], name: str, convert: Callable[[Any], Any]) -> Any:
    if name not in raw:
        raise InputError(f"report record missing field {name!r}")
    try:
        return convert(raw[name])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"report field {name!r} is malformed: {exc!r}") from exc


def _pair_scores(raw: Any) -> tuple[PairScoreEntry, ...]:
    return tuple(PairScoreEntry(i=int(p["i"]), j=int(p["j"]), cig=float(p["cig"])) for p in raw)


def _mfs_entries(raw: Any) -> tuple[MfsEntry, ...]:
    return tuple(
        MfsEntry(i=int(p["i"]), j=int(p["j"]), frequency=float(p["frequency"])) for p in raw
    )


def _floats(raw: Any) -> tuple[float, ...]:
    return tuple(float(v) for v in raw)


def report_from_dict(raw: Any) -> ExplanationReport:
    """Rebuild a report from its JSON object; InputError names a missing
    or malformed field."""
    if not isinstance(raw, Mapping):
        raise InputError(f"report record must be a JSON object, not {type(raw).__name__}")
    return ExplanationReport(
        instance_id=_field(raw, "instance_id", lambda v: v),
        tokens=_field(raw, "tokens", tuple),
        predicted_class=_field(raw, "predicted_class", int),
        predicted_probability=_field(raw, "predicted_probability", float),
        ig=_field(raw, "ig", _floats),
        positive_pairs=_field(raw, "positive_pairs", _pair_scores),
        mfs_pairs=_field(raw, "mfs_pairs", _mfs_entries),
        mfs_words=_field(raw, "mfs_words", lambda v: tuple(int(w) for w in v)),
        u1=_field(raw, "u1", float),
        u2=_field(raw, "u2", float),
        u2_prime=_field(raw, "u2_prime", _floats),
        degenerate=_field(raw, "degenerate", bool),
        oov_count=_field(raw, "oov_count", int),
        config=_field(raw, "config", dict),
        seed=_field(raw, "seed", int),
        comp=_field(raw, "comp", float),
        lo=_field(raw, "lo", float),
        fms=_field(raw, "fms", float),
    )


def report_to_line(report: ExplanationReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":"))


def report_from_line(line: str) -> ExplanationReport:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InputError(f"report line is not valid JSON: {exc}") from exc
    return report_from_dict(raw)


def write_reports(reports: list[ExplanationReport], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for report in reports:
            fh.write(report_to_line(report))
            fh.write("\n")


def read_reports(path: str) -> list[ExplanationReport]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read report file: {exc}") from exc
    return [report_from_line(line) for line in lines if line.strip()]

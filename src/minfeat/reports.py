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
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .errors import InputError
from .files import atomic_write, parse_json, read_text


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
    """The report as a JSON-ready dict, one key per field.

    Written out field by field rather than with dataclasses.asdict, which
    deep-copies every nested value; tuples of numbers are immutable and
    shared as they are.
    """
    return {
        "instance_id": report.instance_id,
        "tokens": list(report.tokens),
        "predicted_class": report.predicted_class,
        "predicted_probability": report.predicted_probability,
        "ig": report.ig,
        "positive_pairs": tuple({"i": e.i, "j": e.j, "cig": e.cig} for e in report.positive_pairs),
        "mfs_pairs": tuple({"i": e.i, "j": e.j, "frequency": e.frequency} for e in report.mfs_pairs),
        "mfs_words": report.mfs_words,
        "u1": report.u1,
        "u2": report.u2,
        "u2_prime": report.u2_prime,
        "degenerate": report.degenerate,
        "oov_count": report.oov_count,
        "config": dict(report.config),
        "seed": report.seed,
        "comp": report.comp,
        "lo": report.lo,
        "fms": report.fms,
    }


def _field(raw: Mapping[str, Any], name: str, convert: Callable[[Any], Any]) -> Any:
    if name not in raw:
        raise InputError(f"report record missing field {name!r}")
    try:
        return convert(raw[name])
    except (KeyError, TypeError, OverflowError) as exc:
        raise InputError(f"report field {name!r} is malformed: {exc!r}") from exc


def _typed(kind: str, check: Callable[[Any], bool]) -> Callable[[Any], Any]:
    """A reader that returns a JSON value unchanged if check accepts it."""

    def read(value: Any) -> Any:
        if not check(value):
            raise TypeError(f"expected {kind}, got {type(value).__name__}")
        return value

    return read


# JSON parses true/false as bool, a subclass of int, so integers exclude it.
_int = _typed("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_bool = _typed("true or false", lambda v: isinstance(v, bool))
_str = _typed("a string", lambda v: isinstance(v, str))
_object = _typed("a JSON object", lambda v: isinstance(v, Mapping))
_number = _typed("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool))
# report_to_dict leaves tuples in place; JSON text yields lists.
_list = _typed("a list", lambda v: isinstance(v, (list, tuple)))


def _float(value: Any) -> float:
    return float(_number(value))


def _tuple_of(read: Callable[[Any], Any]) -> Callable[[Any], tuple]:
    return lambda value: tuple(read(v) for v in _list(value))


def _pair_score(raw: Any) -> PairScoreEntry:
    raw = _object(raw)
    return PairScoreEntry(i=_int(raw["i"]), j=_int(raw["j"]), cig=_float(raw["cig"]))


def _mfs_entry(raw: Any) -> MfsEntry:
    raw = _object(raw)
    return MfsEntry(i=_int(raw["i"]), j=_int(raw["j"]), frequency=_float(raw["frequency"]))


def report_from_dict(raw: Any) -> ExplanationReport:
    """Rebuild a report from its JSON object.

    Every field must have the JSON type that report_to_dict writes:
    nothing is coerced, so a string where a list or a boolean belongs is
    rejected rather than read as something else. InputError names the
    missing or malformed field.
    """
    if not isinstance(raw, Mapping):
        raise InputError(f"report record must be a JSON object, not {type(raw).__name__}")
    return ExplanationReport(
        instance_id=_field(raw, "instance_id", _str),
        tokens=_field(raw, "tokens", _tuple_of(_str)),
        predicted_class=_field(raw, "predicted_class", _int),
        predicted_probability=_field(raw, "predicted_probability", _float),
        ig=_field(raw, "ig", _tuple_of(_float)),
        positive_pairs=_field(raw, "positive_pairs", _tuple_of(_pair_score)),
        mfs_pairs=_field(raw, "mfs_pairs", _tuple_of(_mfs_entry)),
        mfs_words=_field(raw, "mfs_words", _tuple_of(_int)),
        u1=_field(raw, "u1", _float),
        u2=_field(raw, "u2", _float),
        u2_prime=_field(raw, "u2_prime", _tuple_of(_float)),
        degenerate=_field(raw, "degenerate", _bool),
        oov_count=_field(raw, "oov_count", _int),
        config=_field(raw, "config", lambda v: dict(_object(v))),
        seed=_field(raw, "seed", _int),
        comp=_field(raw, "comp", _float),
        lo=_field(raw, "lo", _float),
        fms=_field(raw, "fms", _float),
    )


def report_to_line(report: ExplanationReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":"))


def report_from_line(line: str) -> ExplanationReport:
    return report_from_dict(parse_json(line, "report line"))


def write_reports(reports: list[ExplanationReport], path: str) -> None:
    with atomic_write(path) as fh:
        for report in reports:
            fh.write(report_to_line(report))
            fh.write("\n")


def read_reports(path: str) -> list[ExplanationReport]:
    """Parse one report per non-blank line, ended by a newline alone; errors name the line number."""
    lines = read_text(path, "report file").split("\n")
    reports = []
    for line_no, line in enumerate(lines, start=1):
        if line.strip():
            try:
                reports.append(report_from_line(line))
            except InputError as exc:
                raise InputError(f"line {line_no}: {exc}") from exc
    return reports

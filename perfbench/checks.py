"""Output checks for the minfeat benchmark.

The checks are invariants of the pipeline, not golden values, so a change
that alters report bytes on purpose still passes while a wrong report
fails. Each check returns one failure reason per record that did not get
a valid output.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping, Sequence

from minfeat.corpus import CorpusRecord, tokenize
from minfeat.evaluation import METHODS
from minfeat.model import Model, instance_from_words
from minfeat.reports import ExplanationReport, report_from_line

# |sum(ig) - (p_c(x) - p_c(all-PAD))|: the trapezoidal rule leaves a
# residual that shrinks with the step count. At 50 steps on the toy model
# the largest seen is 1.2e-4; a wrong sweep or baseline is off by far more.
COMPLETENESS_TOLERANCE = 1e-3


def completeness_residual(model: Model, report: ExplanationReport, label: int) -> float:
    instance, _ = instance_from_words(model, list(report.tokens), label)
    c = report.predicted_class
    gap = model.forward(instance.embeddings)[c] - model.forward(
        model.baseline_embeddings(len(instance))
    )[c]
    return abs(math.fsum(report.ig) - float(gap))


def report_problem(
    report: ExplanationReport,
    record: CorpusRecord,
    model: Model,
    config: Mapping[str, Any],
) -> str | None:
    if report.instance_id != record.id:
        return f"report {report.instance_id!r} where {record.id!r} was expected"
    if list(report.tokens) != tokenize(record.text):
        return "tokens differ from the corpus text"
    positive = {(p.i, p.j) for p in report.positive_pairs}
    mfs = [(p.i, p.j) for p in report.mfs_pairs]
    if not set(mfs) <= positive:
        return f"mfs pairs {sorted(set(mfs) - positive)} are not positive pairs"
    low = [p for p in report.mfs_pairs if not p.frequency >= config["epsilon"]]
    if low:
        return f"{len(low)} retained pairs below epsilon {config['epsilon']}"
    members = tuple(sorted({pos for pair in mfs for pos in pair}))
    if tuple(report.mfs_words) != members:
        return f"mfs_words {report.mfs_words} are not the pair members {members}"
    if not report.degenerate and len(report.u2_prime) != config["n_iter"]:
        return f"{len(report.u2_prime)} u2_prime entries for n_iter {config['n_iter']}"
    residual = completeness_residual(model, report, record.label)
    if not residual <= COMPLETENESS_TOLERANCE:
        return f"completeness residual {residual:.3g} above {COMPLETENESS_TOLERANCE}"
    return None


def _lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if line.strip()]


def check_reports(
    path: str, records: Sequence[CorpusRecord], model: Model, config: Mapping[str, Any]
) -> list[str]:
    """One report per record, in corpus order, each parsed and checked."""
    try:
        lines = _lines(path)
    except OSError as exc:
        return [f"{rec.id}: no report file ({exc})" for rec in records]
    if len(lines) != len(records):
        return [f"{rec.id}: {len(lines)} reports for {len(records)} records" for rec in records]
    failures = []
    for record, line in zip(records, lines):
        try:
            report = report_from_line(line)
        except Exception as exc:  # a corrupted line may raise anything; it fails its record
            failures.append(f"{record.id}: report does not parse ({exc!r})")
            continue
        problem = report_problem(report, record, model, config)
        if problem is not None:
            failures.append(f"{record.id}: {problem}")
    return failures


def metrics_table_problem(path: str, n_records: int) -> str | None:
    try:
        rows = [json.loads(line) for line in _lines(path)]
    except (OSError, json.JSONDecodeError) as exc:
        return f"metrics table unreadable ({exc})"
    methods = [row.get("method") if isinstance(row, dict) else None for row in rows]
    if methods != list(METHODS):
        return f"methods {methods} where {list(METHODS)} were expected"
    for row in rows:
        for key in ("lo", "comp", "fms"):
            value = row.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                return f"{row['method']}: {key} = {value!r} is not finite"
        if row.get("n") != n_records:
            return f"{row['method']}: n = {row.get('n')!r} for {n_records} records"
    return None


def check_metrics_table(path: str, records: Sequence[CorpusRecord]) -> list[str]:
    """Six finite rows with n equal to the record count; else every record fails."""
    problem = metrics_table_problem(path, len(records))
    return [] if problem is None else [f"{rec.id}: {problem}" for rec in records]

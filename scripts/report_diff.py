"""Compare two explain report files field by field.

    PYTHONPATH=src python3 scripts/report_diff.py A.jsonl B.jsonl

The files must hold the same records in the same order, and every field
that is not a float score must be equal: instance ids, tokens, predicted
class, positive-pair indices, MFS pairs with their frequencies, MFS
words, ``degenerate``, the OOV count, config and seed. If one differs,
the script names the first difference and exits 1. Otherwise it prints
the largest absolute move of each float field (predicted probability,
ig, the positive pairs' cig, u1, u2, u2_prime, comp, lo, fms) over all
records and exits 0. A float that is NaN in one file and not in the
other is a difference. An unreadable file exits 2.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from minfeat.errors import InputError
from minfeat.reports import read_reports, report_to_dict

FLOAT_FIELDS = ("predicted_probability", "ig", "cig", "u1", "u2", "u2_prime", "comp", "lo", "fms")


def split_report(report) -> tuple[dict, dict[str, np.ndarray]]:
    """The exact fields of a report, and each float field as an array."""
    fields = report_to_dict(report)
    pairs = fields.pop("positive_pairs")
    fields["positive_pairs"] = [(entry["i"], entry["j"]) for entry in pairs]
    fields["cig"] = [entry["cig"] for entry in pairs]
    floats = {name: np.atleast_1d(np.asarray(fields.pop(name), dtype=np.float64)) for name in FLOAT_FIELDS}
    return fields, floats


def compare(path_a: str, path_b: str) -> tuple[str | None, dict[str, float]]:
    """The first exact difference (None if there is none) and the largest
    absolute move of each float field."""
    reports_a, reports_b = read_reports(path_a), read_reports(path_b)
    if len(reports_a) != len(reports_b):
        return f"{len(reports_a)} reports against {len(reports_b)}", {}
    moves = dict.fromkeys(FLOAT_FIELDS, 0.0)
    for number, (a, b) in enumerate(zip(reports_a, reports_b), start=1):
        exact_a, floats_a = split_report(a)
        exact_b, floats_b = split_report(b)
        for name in exact_a:
            if exact_a[name] != exact_b[name]:
                return f"report {number} ({a.instance_id}): {name} {exact_a[name]!r} != {exact_b[name]!r}", {}
        for name in FLOAT_FIELDS:
            x, y = floats_a[name], floats_b[name]
            if x.shape != y.shape:
                return f"report {number} ({a.instance_id}): {name} has {x.size} values against {y.size}", {}
            if not np.array_equal(np.isnan(x), np.isnan(y)):
                return f"report {number} ({a.instance_id}): {name} is NaN in one file only", {}
            moved = (x != y) & ~np.isnan(x)
            if moved.any():
                moves[name] = max(moves[name], float(np.abs(x[moved] - y[moved]).max()))
    return None, moves


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="first explain report file")
    parser.add_argument("b", help="second explain report file")
    args = parser.parse_args(argv)
    try:
        difference, moves = compare(args.a, args.b)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if difference is not None:
        print(f"differs: {difference}")
        return 1
    for name, move in moves.items():
        print(f"{name:<22} largest move {move:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

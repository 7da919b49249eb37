"""Command-line entry points: train, explain, evaluate.

Exit codes: 0 on success, 1 when the reader closes standard output,
2 for caller-correctable input or configuration problems, 70 for
internal invariant failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import traceback
from typing import Any, Mapping

from .config import cidr_config_from, load_config, train_config_from
from .corpus import CorpusRecord, load_corpus, tokenize
from .errors import InputError, InternalError
from .evaluation import METHODS, CorpusArtifacts, evaluate_methods, map_refined, single_instance_metrics
from .evaluation import _ranked_pairs
from .files import atomic_write
from .model import instance_from_words, load_model, save_model, train_toy, training_accuracy
from .pipeline import MinimalFeatureSet
from .reports import ExplanationReport, MfsEntry, PairScoreEntry, write_reports


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minfeat",
        description="Minimal feature-set explanations for text classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train the bundled toy classifier")
    train.add_argument("--corpus", required=True, help="corpus file, one JSON record per line")
    train.add_argument("--out", required=True, help="model checkpoint path to write")
    train.add_argument("--config", help="flat JSON config file")
    train.add_argument("--seed", type=int, help="override the config seed")

    explain = sub.add_parser("explain", help="write one explanation report per record")
    explain.add_argument("--config", help="flat JSON config file")
    explain.add_argument("--corpus", required=True)
    explain.add_argument("--model", required=True, help="model checkpoint path")
    explain.add_argument("--out", required=True, help="report file to write")
    explain.add_argument("--seed", type=int, help="override the config seed")

    evaluate = sub.add_parser("evaluate", help="score explanation methods on a corpus")
    evaluate.add_argument("--config", help="flat JSON config file")
    evaluate.add_argument("--corpus", required=True)
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--out", help="metrics table file to write (JSON lines)")
    evaluate.add_argument("--seed", type=int, help="override the config seed")
    evaluate.add_argument(
        "--methods",
        default=",".join(METHODS),
        help=f"comma-separated subset of {', '.join(METHODS)}",
    )
    return parser


def _resolved_config(args: argparse.Namespace) -> dict[str, Any]:
    values = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
    return values


def _warn_oov(total_oov: int) -> None:
    if total_oov:
        print(
            f"warning: {total_oov} out-of-vocabulary tokens were treated as PAD",
            file=sys.stderr,
        )


def run_train(args: argparse.Namespace) -> int:
    values = _resolved_config(args)
    records = load_corpus(args.corpus)
    examples = [(tokenize(rec.text), rec.label) for rec in records]
    model = train_toy(examples, train_config_from(values))
    accuracy = training_accuracy(model, examples)
    save_model(model, args.out)
    print(f"trained on {len(examples)} records, training accuracy {accuracy:.3f}")
    print(f"model written to {args.out}")
    return 0


def _build_report(
    record: CorpusRecord,
    probability: float,
    mfs: MinimalFeatureSet,
    metrics: tuple[float, float, float],
    words: list[str],
    oov: int,
    config_echo: Mapping[str, Any],
) -> ExplanationReport:
    """The report of record, explained with probability, refined set mfs
    and the (comp, lo, fms) of its ranked pairs."""
    pair_map = mfs.pair_scores
    comp, lo, fms = metrics
    return ExplanationReport(
        instance_id=record.id,
        tokens=tuple(words),
        predicted_class=mfs.target_class,
        predicted_probability=probability,
        ig=tuple(float(s) for s in pair_map.ig),
        positive_pairs=tuple(
            PairScoreEntry(i=i, j=j, cig=float(pair_map.cig[i, j]))
            for (i, j) in pair_map.positive_pairs
        ),
        mfs_pairs=tuple(
            MfsEntry(i=i, j=j, frequency=f) for (i, j), f in zip(mfs.pairs, mfs.frequencies)
        ),
        mfs_words=mfs.words,
        u1=mfs.u1,
        u2=mfs.u2,
        u2_prime=tuple(mfs.u2_prime.tolist()),
        degenerate=mfs.degenerate,
        oov_count=oov,
        config=dict(config_echo),
        seed=int(config_echo["seed"]),
        comp=comp,
        lo=lo,
        fms=fms,
    )


def run_explain(args: argparse.Namespace) -> int:
    values = _resolved_config(args)
    config = cidr_config_from(values)
    model = load_model(args.model)
    records = load_corpus(args.corpus)
    words = [tokenize(record.text) for record in records]
    built = [instance_from_words(model, w, record.label) for w, record in zip(words, records)]
    corpus = CorpusArtifacts(model, [instance for instance, _ in built], config)
    predicted = [float(p[c]) for p, c in zip(corpus.probabilities, corpus.targets)]

    def explain_group(part: slice, sets: list[MinimalFeatureSet]) -> list[ExplanationReport]:
        ranked = [_ranked_pairs(mfs) for mfs in sets]
        scores = single_instance_metrics(model, corpus.instances[part], ranked, config.t)
        return [
            _build_report(records[k], predicted[k], mfs, metrics, words[k], built[k][1], values)
            for k, mfs, metrics in zip(range(part.start, part.stop), sets, scores)
        ]

    reports = map_refined(explain_group, corpus.pair_maps, config)
    write_reports(reports, args.out)
    _warn_oov(sum(r.oov_count for r in reports))
    degenerate = sum(1 for r in reports if r.degenerate)
    print(f"wrote {len(reports)} reports to {args.out} ({degenerate} degenerate)")
    return 0


def run_evaluate(args: argparse.Namespace) -> int:
    values = _resolved_config(args)
    config = cidr_config_from(values)
    model = load_model(args.model)
    records = load_corpus(args.corpus)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]

    built = [instance_from_words(model, tokenize(rec.text), rec.label) for rec in records]
    instances = [instance for instance, _ in built]

    rows = evaluate_methods(model, instances, methods, config)
    _warn_oov(sum(oov for _, oov in built))

    header = f"{'method':<18}{'LO':>12}{'Comp':>12}{'FMS':>12}{'N':>8}{'seed':>21}"
    print(header)
    for row in rows:
        print(
            f"{row.method:<18}{row.lo:>12.6f}{row.comp:>12.6f}{row.fms:>12.6f}"
            f"{row.n:>8d}{row.seed:>21d}"
        )
    if args.out:
        with atomic_write(args.out) as fh:
            for row in rows:
                fh.write(json.dumps(dataclasses.asdict(row), sort_keys=True, separators=(",", ":")))
                fh.write("\n")
        print(f"metrics written to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # Looked up per call, so a wrapper patched over run_* is the one called.
        status = {"train": run_train, "explain": run_explain, "evaluate": run_evaluate}[args.command](args)
        sys.stdout.flush()  # a closed reader raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # As the Python signal docs advise for SIGPIPE: devnull keeps the
        # flush at interpreter exit quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 70
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - unexpected bugs
        traceback.print_exc()
        return 70


if __name__ == "__main__":
    sys.exit(main())

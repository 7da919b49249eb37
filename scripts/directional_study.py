"""Multi-seed method comparison on the bundled toy corpus.

Runs every requested explanation method across several pipeline seeds
and prints per-seed metric rows plus the seed means. The expected
ordering: cidr beats random removal on comprehensiveness and its own
no-refinement variant on FMS. cidr's FMS (fms_pairs, restoring a pair
at a time) and ig-top2k's (fms_words, a word at a time) are on two
scales, so their FMS columns are not compared.
The model is the one `minfeat train` writes from the bundled corpus
with no config (TrainConfig() shares the CLI's defaults), so a seed's
rows equal `minfeat evaluate --seed S` on that checkpoint.
A seed count below 1 or a method list that evaluate_methods rejects
exits 2 with a usage message naming the argument.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from minfeat.corpus import tokenize
from minfeat.data import build_toy_corpus
from minfeat.errors import InputError
from minfeat.evaluation import METHODS, evaluate_methods
from minfeat.model import TrainConfig, instance_from_words, train_toy
from minfeat.pipeline import CidrConfig


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5, help="number of pipeline seeds")
    parser.add_argument(
        "--methods",
        default=",".join(METHODS),
        help=f"comma-separated subset of {', '.join(METHODS)}",
    )
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]

    corpus = build_toy_corpus()
    examples = [(tokenize(r.text), r.label) for r in corpus]
    model = train_toy(examples, TrainConfig())
    instances = [instance_from_words(model, tokenize(r.text), r.label)[0] for r in corpus]

    header = f"{'seed':>4}  {'method':<16}{'LO':>12}{'Comp':>12}{'FMS':>12}"
    print(header)
    totals = {m: [0.0, 0.0, 0.0] for m in methods}
    for seed in range(args.seeds):
        try:
            rows = evaluate_methods(model, instances, methods, replace(CidrConfig(), seed=seed))
        except InputError as exc:
            parser.error(f"--methods: {exc}")
        for row in rows:
            print(f"{seed:>4}  {row.method:<16}{row.lo:>12.6f}{row.comp:>12.6f}{row.fms:>12.6f}")
            totals[row.method][0] += row.lo
            totals[row.method][1] += row.comp
            totals[row.method][2] += row.fms

    print("\nseed means:")
    print(f"{'':>4}  {'method':<16}{'LO':>12}{'Comp':>12}{'FMS':>12}")
    for method in methods:
        lo, comp, fms = (v / args.seeds for v in totals[method])
        print(f"{'':>4}  {method:<16}{lo:>12.6f}{comp:>12.6f}{fms:>12.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

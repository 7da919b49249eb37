"""Materialize the bundled toy corpus as a JSON-lines file.

The corpus is generated deterministically from its seed, so the default
invocation always reproduces the same 200 sentences the test suite and
the directional study use. A size below 1, a negative seed, lengths that
cannot fit the keywords or an anchor rate outside [0, 1] exit 2 with a
usage message naming the argument.
"""

from __future__ import annotations

import argparse
import sys

from minfeat.corpus import save_corpus
from minfeat.data import (
    DEFAULT_ANCHOR_RATE,
    DEFAULT_CORPUS_SEED,
    DEFAULT_CORPUS_SIZE,
    build_toy_corpus,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="toy_corpus.jsonl", help="output path")
    parser.add_argument("--size", type=int, default=DEFAULT_CORPUS_SIZE)
    parser.add_argument("--seed", type=int, default=DEFAULT_CORPUS_SEED)
    parser.add_argument("--min-len", type=int, default=11)
    parser.add_argument("--max-len", type=int, default=13)
    parser.add_argument(
        "--anchor-rate",
        type=float,
        default=DEFAULT_ANCHOR_RATE,
        help="fraction of sentences carried by a single strong word",
    )
    args = parser.parse_args(argv)
    if args.size < 1:
        parser.error(f"--size must be >= 1, got {args.size}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if args.min_len < 3:
        parser.error(f"--min-len must be >= 3 to fit the keywords, got {args.min_len}")
    if args.max_len < args.min_len:
        parser.error(f"--max-len must be >= --min-len ({args.min_len}), got {args.max_len}")
    if not 0.0 <= args.anchor_rate <= 1.0:
        parser.error(f"--anchor-rate must lie in [0, 1], got {args.anchor_rate}")

    records = build_toy_corpus(
        size=args.size,
        seed=args.seed,
        min_len=args.min_len,
        max_len=args.max_len,
        anchor_rate=args.anchor_rate,
    )
    save_corpus(records, args.out)
    positives = sum(1 for r in records if r.label == 1)
    print(f"wrote {len(records)} records to {args.out} ({positives} positive)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

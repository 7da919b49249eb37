"""Train the toy classifier and walk through one explanation end to end.

Prints the per-token attribution, the positive cooperative pairs, the
refined minimal feature set, and the instance-level metrics for a single
sentence from the bundled corpus. A --beta or --seed that CidrConfig
rejects, or an --index outside the corpus, exits 2 with a usage message
naming the argument. The model is the one `minfeat train` writes from the
bundled corpus with no config: TrainConfig() shares the CLI's defaults.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from minfeat.corpus import tokenize
from minfeat.data import build_toy_corpus
from minfeat.errors import InputError
from minfeat.evaluation import CorpusArtifacts, _ranked_pairs, single_instance_metrics
from minfeat.model import TrainConfig, instance_from_words, train_toy, training_accuracy
from minfeat.pipeline import CidrConfig, refine


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--index", type=int, default=0, help="corpus record to explain")
    parser.add_argument("--seed", type=int, default=0, help="pipeline seed")
    parser.add_argument("--beta", type=float, default=0.5)
    args = parser.parse_args(argv)
    config = CidrConfig()
    for name in ("beta", "seed"):
        try:
            config = replace(config, **{name: getattr(args, name)})
        except InputError as exc:
            parser.error(f"--{name}: {exc}")

    corpus = build_toy_corpus()
    if not 0 <= args.index < len(corpus):
        parser.error(f"--index must lie in [0, {len(corpus)}), got {args.index}")
    examples = [(tokenize(r.text), r.label) for r in corpus]
    print("training toy classifier on the bundled corpus ...")
    model = train_toy(examples, TrainConfig())
    print(f"training accuracy: {training_accuracy(model, examples):.3f}\n")

    record = corpus[args.index]
    words = tokenize(record.text)
    instance, oov = instance_from_words(model, words, record.label)
    # The artifacts of a one-record corpus, as explain builds them: one
    # forward gives the explained class and the printed probability, and
    # one refine call over the pair maps gives its minimal feature set.
    artifacts = CorpusArtifacts(model, [instance], config)
    (mfs,) = refine(artifacts.pair_maps, config)

    print(f"record {record.id} (label {record.label}, {oov} OOV tokens)")
    print(f"  text: {record.text}")
    probability = artifacts.probabilities[0][artifacts.targets[0]]
    print(f"  predicted class {mfs.target_class} with probability {probability:.3f}\n")

    ig = mfs.pair_scores.ig
    print("per-token attribution (positive tokens marked *):")
    for pos, word in enumerate(words):
        mark = "*" if ig[pos] > 0 else " "
        print(f"  {pos:>3} {mark} {word:<14} {ig[pos]:+.4f}")

    print(f"\npositive pairs: {len(mfs.pair_scores.positive_pairs)}")
    print(f"bounds: u1={mfs.u1:.4f} u2={mfs.u2:.4f}")
    if mfs.degenerate:
        print("instance is degenerate; no pairs to refine")
        return 0

    print(f"\nminimal feature set after {config.n_iter} refinement iterations:")
    for (i, j), frequency in zip(mfs.pairs, mfs.frequencies):
        print(
            f"  ({words[i]}, {words[j]})  cig={mfs.pair_scores.cig[i, j]:+.4f}"
            f"  kept in {frequency:.0%} of candidate sets"
        )
    print(f"covered words: {', '.join(words[w] for w in mfs.words)}")

    comp, lo, fms = single_instance_metrics(model, [instance], [_ranked_pairs(mfs)], config.t)[0]
    print(f"\ninstance metrics: comp={comp:.3f} lo={lo:.3f} fms={fms:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

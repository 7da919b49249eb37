"""Train the toy classifier and walk through one explanation end to end.

Prints the per-token attribution, the positive cooperative pairs, the
refined minimal feature set, and the instance-level metrics for a single
sentence from the bundled corpus.
"""

from __future__ import annotations

import argparse
import sys

from minfeat.attribution import cooperative_integrated_gradients
from minfeat.corpus import tokenize
from minfeat.data import build_toy_corpus
from minfeat.evaluation import single_instance_metrics
from minfeat.model import TrainConfig, instance_from_words, train_toy, training_accuracy
from minfeat.pipeline import CidrConfig, refine


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--index", type=int, default=0, help="corpus record to explain")
    parser.add_argument("--seed", type=int, default=0, help="pipeline seed")
    parser.add_argument("--beta", type=float, default=0.5)
    args = parser.parse_args(argv)

    corpus = build_toy_corpus()
    examples = [(tokenize(r.text), r.label) for r in corpus]
    print("training toy classifier on the bundled corpus ...")
    model = train_toy(examples, TrainConfig())
    print(f"training accuracy: {training_accuracy(model, examples):.3f}\n")

    record = corpus[args.index % len(corpus)]
    words = tokenize(record.text)
    instance, oov = instance_from_words(model, words, record.label)
    config = CidrConfig(beta=args.beta, seed=args.seed)
    target = model.predicted_class(instance.embeddings)
    mfs = refine(cooperative_integrated_gradients(model, instance, target, config.beta, config.steps), config)

    probs = model.forward(instance.embeddings)
    print(f"record {record.id} (label {record.label}, {oov} OOV tokens)")
    print(f"  text: {record.text}")
    print(f"  predicted class {mfs.target_class} with probability {probs[mfs.target_class]:.3f}\n")

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

    comp, lo, fms = single_instance_metrics(model, instance, mfs, config.t)
    print(f"\ninstance metrics: comp={comp:.3f} lo={lo:.3f} fms={fms:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

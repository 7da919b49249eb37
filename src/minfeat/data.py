"""Bundled synthetic sentiment corpus.

Sentences are keyword-separable by construction, with two strength
tiers per polarity. Most sentences pair two mild keywords of the label
polarity against one intense keyword of the opposite polarity; the
rest anchor the intense tier by pitting one intense label keyword
against a single mild opposite word. Training on the mix pins the
strength ordering mild < intense < 2 x mild, so the two mild keywords
of a sentence only win together. The mild keyword pair is what keeps
the label (sufficiency): no single word is sufficient on its own. It
is not the removal minimal feature set. With the CLI's seed-0 model,
removing either mild keyword alone drives the predicted-class
probability to at most 0.5 on all 141 non-anchor records, so every
record has a one-word essence set.
"""

from __future__ import annotations

import numpy as np

from .corpus import CorpusRecord

MILD_POSITIVE = ("good", "nice", "pleasant", "charming", "likable")
MILD_NEGATIVE = ("bad", "poor", "dull", "weak", "bland")
INTENSE_POSITIVE = ("masterpiece", "stunning", "magnificent")
INTENSE_NEGATIVE = ("disaster", "atrocious", "unwatchable")
FILLER_WORDS = (
    "the",
    "a",
    "movie",
    "film",
    "plot",
    "story",
    "acting",
    "scene",
    "it",
    "was",
    "quite",
    "rather",
    "and",
    "with",
    "this",
)

DEFAULT_CORPUS_SIZE = 200
DEFAULT_CORPUS_SEED = 7
DEFAULT_ANCHOR_RATE = 0.3


def build_toy_corpus(
    size: int = DEFAULT_CORPUS_SIZE,
    seed: int = DEFAULT_CORPUS_SEED,
    min_len: int = 11,
    max_len: int = 13,
    anchor_rate: float = DEFAULT_ANCHOR_RATE,
) -> list[CorpusRecord]:
    """Generate a balanced two-class corpus of keyword-bearing sentences.

    Labels alternate (even index: negative, odd: positive). A fraction
    ``anchor_rate`` of sentences are anchors holding one intense label
    keyword and one mild opposite word; the rest hold two mild label
    keywords and one intense opposite word. Fillers pad each sentence
    to a length drawn from [min_len, max_len], then token positions are
    shuffled. Fully determined by the seed.

    The anchor sentences force intense words to outweigh mild ones,
    while the majority sentences force two mild words to outweigh one
    intense word. Between those constraints a single mild keyword loses
    to the intense opposite word, so the mild pair is jointly, and only
    jointly, sufficient.
    """
    if not 0.0 <= anchor_rate <= 1.0:
        raise ValueError("anchor_rate must lie in [0, 1]")
    if min_len < 3 or max_len < min_len:
        raise ValueError("need 3 <= min_len <= max_len to fit the keywords")
    rng = np.random.default_rng(seed)
    records: list[CorpusRecord] = []
    for i in range(size):
        label = i % 2
        mild_own = MILD_POSITIVE if label == 1 else MILD_NEGATIVE
        mild_other = MILD_NEGATIVE if label == 1 else MILD_POSITIVE
        intense_own = INTENSE_POSITIVE if label == 1 else INTENSE_NEGATIVE
        intense_other = INTENSE_NEGATIVE if label == 1 else INTENSE_POSITIVE
        length = int(rng.integers(min_len, max_len + 1))
        if rng.random() < anchor_rate:
            words = [
                intense_own[int(rng.integers(len(intense_own)))],
                mild_other[int(rng.integers(len(mild_other)))],
            ]
        else:
            picks = rng.choice(len(mild_own), size=2, replace=False)
            words = [
                mild_own[int(picks[0])],
                mild_own[int(picks[1])],
                intense_other[int(rng.integers(len(intense_other)))],
            ]
        while len(words) < length:
            words.append(FILLER_WORDS[int(rng.integers(len(FILLER_WORDS)))])
        order = rng.permutation(len(words))
        text = " ".join(words[int(k)] for k in order)
        records.append(CorpusRecord(id=f"toy-{i:04d}", text=text, label=label))
    return records

"""Faithfulness and minimality metrics for removal-based explanations.

All metrics fix the evaluated class c as the model's argmax on the
unmodified input (ties to the lower class index) and simulate removal by
padding token positions. Each record's removals are one boolean mask
stack, and a metric scores every record's stack in one
`Model.removal_probabilities` call, one head call for the corpus: one
call of 2 rows per record cost more in call overhead than in arithmetic.
Minimality makes two such calls, the second only for the records that
pass essence.

An explanation is a RemovalSet: token pairs or single tokens, as its
mode says, each with a ranking score. Comprehensiveness and log-odds
remove its top-K elements, K = min(max(1, floor(0.1 n)), |S|), and
compare the class probability before and after. The minimality score
evaluates the full set: it checks that removing the set drives the class
probability to at most t (essence) and that restoring any single element
lifts it back above t (minimality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, InternalError
from .model import Instance, Model

PROBABILITY_FLOOR = 1e-12

PAIR_MODE = "pairs"
WORD_MODE = "words"


@dataclass(frozen=True)
class RemovalSet:
    """One instance's explanation: elements plus their ranking scores.

    Elements are (i, j) index pairs in pair mode and bare token indices
    in word mode; scores order them for truncation (higher first, ties by
    lower element).
    """

    mode: str
    elements: tuple
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.elements) != len(self.scores):
            raise InputError("each removal element needs exactly one ranking score")
        if self.mode not in (PAIR_MODE, WORD_MODE):
            raise InputError(f"unknown removal mode {self.mode!r}")

    def top_elements(self, k: int) -> tuple:
        order = sorted(range(len(self.elements)), key=lambda idx: (-self.scores[idx], self.elements[idx]))
        return tuple(self.elements[idx] for idx in order[:k])


@dataclass(frozen=True)
class MetricsRow:
    """Aggregated corpus-level scores for one explanation method."""

    method: str
    lo: float
    comp: float
    fms: float
    n: int
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("a metrics row must aggregate at least one instance")
        for name, value in (("lo", self.lo), ("comp", self.comp), ("fms", self.fms)):
            if not math.isfinite(value):
                raise InternalError(f"metric {name} is not finite: {value}")


def _check_corpus(instances: Sequence[Instance], sets: Sequence, kind: str) -> None:
    if not instances:
        raise InputError("metrics need at least one instance")
    if len(instances) != len(sets):
        raise InputError(f"one {kind} set per instance is required")


def _k_for(n_tokens: int, set_size: int) -> int:
    """Per-instance truncation budget, at least 1 element, at most |S|."""
    return min(max(1, n_tokens // 10), set_size)


def _element_positions(n: int, elements: Sequence) -> np.ndarray:
    """The token positions of each element (bare token indices or index
    pairs) as one (len(elements), w) index array, row g for element g.
    Positions must be integers in [0, n), so -1 cannot wrap; the first
    bad one is named."""
    try:
        positions = np.asarray(elements).reshape(len(elements), -1)
    except ValueError:
        raise InputError("removal elements must all be token indices or all be index pairs") from None
    if positions.size and positions.dtype.kind not in "iu":
        raise InputError(f"pad positions must be integers, not {positions.dtype}")
    bad = np.flatnonzero((positions < 0) | (positions >= n))
    if bad.size:
        raise InputError(f"pad position {positions.flat[bad[0]]} out of range for length {n}")
    return positions.astype(np.intp)


def _removal_probabilities(
    model: Model, instances: Sequence[Instance], removal_sets: Sequence[RemovalSet]
) -> list[tuple[float, float]]:
    """Predicted-class probability before and after removing the top-K
    elements, for each instance whose removal set is non-empty."""
    _check_corpus(instances, removal_sets, "removal")
    scored = [(inst, rs) for inst, rs in zip(instances, removal_sets) if rs.elements]
    masks = []
    for inst, rs in scored:
        top = rs.top_elements(_k_for(len(inst), len(rs.elements)))
        stack = np.zeros((2, len(inst)), dtype=bool)  # [unmasked, top-K removed]
        stack[1, _element_positions(len(inst), top)] = True
        masks.append(stack)
    probs = model.removal_probabilities([inst for inst, _ in scored], masks)
    pairs = []
    for before, after in zip(probs[0::2], probs[1::2]):
        c = int(np.argmax(before))
        pairs.append((float(before[c]), float(after[c])))
    return pairs


def comprehensiveness(
    model: Model, instances: Sequence[Instance], removal_sets: Sequence[RemovalSet]
) -> float:
    """Mean drop of the predicted-class probability after removing each
    set's top-K elements.

    Higher is better. Instances with empty removal sets contribute 0.
    """
    total = 0.0
    for before, after in _removal_probabilities(model, instances, removal_sets):
        total += before - after
    return total / len(instances)


def log_odds(
    model: Model, instances: Sequence[Instance], removal_sets: Sequence[RemovalSet]
) -> float:
    """Mean natural-log change of the predicted-class probability after
    removing each set's top-K elements.

    Negative when removal hurts the predicted class; lower is better.
    Instances with empty removal sets contribute 0. Probabilities are
    floored at 1e-12 before logging, so the result is always finite.
    """
    total = 0.0
    for before, after in _removal_probabilities(model, instances, removal_sets):
        total += math.log(max(after, PROBABILITY_FLOOR)) - math.log(max(before, PROBABILITY_FLOOR))
    return total / len(instances)


def _feature_minimality(
    model: Model, instances: Sequence[Instance], sets: Sequence[Sequence], t: float, kind: str
) -> float:
    """Share of instances whose set passes essence and minimality.

    A set passes iff removing every element drives the predicted-class
    probability to <= t and restoring any single element lifts it back
    above t. Empty sets score 0, and only sets that pass essence have
    their restorations scored.
    """
    if not 0.0 < t < 1.0:
        raise InputError("t must lie strictly between 0 and 1")
    _check_corpus(instances, sets, kind)
    scored, essence_masks = [], []
    for inst, elements in zip(instances, sets):
        if len(elements):
            positions = _element_positions(len(inst), elements)
            groups = np.zeros((len(elements), len(inst)), dtype=bool)  # row g: element g
            groups[np.arange(len(elements))[:, np.newaxis], positions] = True
            masks = np.zeros((2, len(inst)), dtype=bool)  # [unmasked, every element removed]
            masks[1, positions] = True
            scored.append((inst, groups))
            essence_masks.append(masks)
    probs = model.removal_probabilities([inst for inst, _ in scored], essence_masks)
    essential = []
    for (inst, groups), full, removed in zip(scored, probs[0::2], probs[1::2]):
        c = int(np.argmax(full))
        if removed[c] <= t:
            essential.append((inst, groups, c))
    # Restoring element g keeps removed every position another element owns.
    restored = model.removal_probabilities(
        [inst for inst, _, _ in essential], [groups.sum(axis=0) - groups > 0 for _, groups, _ in essential]
    )
    passed = 0
    end = 0
    for _, groups, c in essential:
        start, end = end, end + len(groups)
        passed += bool((restored[start:end, c] > t).all())
    return passed / len(instances)


def fms_pairs(
    model: Model,
    instances: Sequence[Instance],
    pair_sets: Sequence[Sequence[tuple[int, int]]],
    t: float,
) -> float:
    """Fraction of instances whose pair set passes essence and minimality.

    Restoration granularity is a whole pair: both member positions come
    back together (positions shared with another pair stay removed).
    """
    return _feature_minimality(model, instances, pair_sets, t, "pair")


def fms_words(
    model: Model,
    instances: Sequence[Instance],
    word_sets: Sequence[Sequence[int]],
    t: float,
) -> float:
    """Word-level variant: restoration brings back one token at a time."""
    return _feature_minimality(model, instances, word_sets, t, "word")


def top_k_baseline(scores: Sequence[float], k: int) -> tuple[int, ...]:
    """Indices of the k largest scores, ties broken toward lower indices.

    k larger than the score count is clamped. The result is sorted by
    position for stable downstream use.
    """
    n = len(scores)
    if k < 0:
        raise InputError("k must be non-negative")
    k = min(k, n)
    order = sorted(range(n), key=lambda i: (-float(scores[i]), i))
    return tuple(sorted(order[:k]))

"""Faithfulness and minimality metrics for removal-based explanations.

All metrics fix the evaluated class c as the model's argmax on the
unmodified input (ties to the lower class index) and simulate removal by
padding token positions.

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
from typing import Iterator, Sequence

import numpy as np

from .errors import InputError, InternalError
from .model import Instance, Model, pad_positions

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


def _positions_of(elements: Sequence) -> tuple[int, ...]:
    positions: set[int] = set()
    for el in elements:
        if isinstance(el, tuple):
            positions.update(el)
        else:
            positions.add(int(el))
    return tuple(sorted(positions))


def _check_corpus(instances: Sequence[Instance], sets: Sequence, kind: str) -> None:
    if not instances:
        raise InputError("metrics need at least one instance")
    if len(instances) != len(sets):
        raise InputError(f"one {kind} set per instance is required")


def _k_for(n_tokens: int, set_size: int) -> int:
    """Per-instance truncation budget, at least 1 element, at most |S|."""
    return min(max(1, n_tokens // 10), set_size)


def _truncated_positions(instance: Instance, removal: RemovalSet) -> tuple[int, ...]:
    return _positions_of(removal.top_elements(_k_for(len(instance), len(removal.elements))))


def _removal_probabilities(
    model: Model, instances: Sequence[Instance], removal_sets: Sequence[RemovalSet]
) -> Iterator[tuple[float, float]]:
    """Predicted-class probability before and after removing the top-K
    elements, for each instance whose removal set is non-empty."""
    _check_corpus(instances, removal_sets, "removal")
    for instance, removal in zip(instances, removal_sets):
        if not removal.elements:
            continue
        probs = model.forward(instance.embeddings)
        c = int(np.argmax(probs))
        padded = pad_positions(model, instance, _truncated_positions(instance, removal))
        after = float(model.forward(padded.embeddings)[c])
        yield float(probs[c]), after


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


def _essence_and_minimality(
    model: Model,
    instance: Instance,
    element_positions: Sequence[tuple[int, ...]],
    t: float,
) -> float:
    """Shared indicator logic: 1.0 iff removal of the full set drives the
    predicted-class probability to <= t and every single-element
    restoration lifts it back above t. Empty sets score 0."""
    if not element_positions:
        return 0.0
    c = model.predicted_class(instance.embeddings)
    all_positions = sorted({pos for group in element_positions for pos in group})
    removed = pad_positions(model, instance, all_positions)
    if float(model.forward(removed.embeddings)[c]) > t:
        return 0.0
    for k in range(len(element_positions)):
        rest = sorted({pos for g, group in enumerate(element_positions) if g != k for pos in group})
        partial = pad_positions(model, instance, rest)
        if not float(model.forward(partial.embeddings)[c]) > t:
            return 0.0
    return 1.0


def _check_fms_args(instances: Sequence[Instance], sets: Sequence, t: float, kind: str) -> None:
    if not 0.0 < t < 1.0:
        raise InputError("t must lie strictly between 0 and 1")
    _check_corpus(instances, sets, kind)


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
    _check_fms_args(instances, pair_sets, t, "pair")
    total = 0.0
    for instance, pairs in zip(instances, pair_sets):
        groups = [tuple(pair) for pair in pairs]
        total += _essence_and_minimality(model, instance, groups, t)
    return total / len(instances)


def fms_words(
    model: Model,
    instances: Sequence[Instance],
    word_sets: Sequence[Sequence[int]],
    t: float,
) -> float:
    """Word-level variant: restoration brings back one token at a time."""
    _check_fms_args(instances, word_sets, t, "word")
    total = 0.0
    for instance, words in zip(instances, word_sets):
        groups = [(int(w),) for w in words]
        total += _essence_and_minimality(model, instance, groups, t)
    return total / len(instances)


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

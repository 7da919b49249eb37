"""Faithfulness and minimality metrics for removal-based explanations.

All metrics fix the evaluated class c as the model's argmax on the
unmodified input (ties to the lower class index) and simulate removal by
padding token positions. One layer, `_class_probabilities`, scores every
removal: it puts each record's unmodified row before its removal rows
and scores the corpus in one `Model.removal_probabilities` call, since
one call per record cost more in call overhead than in arithmetic.
Every record brings at least one removal row, so no metric call has one
row, and a record's results do not depend on the records that share it.

An explanation is a sequence of elements, best first: token pairs
(i, j) or single token indices. Comprehensiveness and log-odds remove
its first K elements, K = min(max(1, floor(0.1 n)), |S|), and compare
the class probability before and after. The minimality score evaluates
the full set: it checks that removing the set drives the class
probability to at most t (essence) and that restoring any single element
lifts it back above t (minimality), for only the sets that pass essence.
Each metric is a per-record list first, `_top_k_removal`'s (comp, lo)
and `_feature_minimality`'s pass or fail; the public functions return
its mean, a left-to-right sum from 0.0 over the record count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, InternalError
from .model import Instance, Model

PROBABILITY_FLOOR = 1e-12


def _class_probabilities(
    model: Model, instances: Sequence[Instance], removals: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """One (1 + B,) block per record: the probability of its explained
    class c under its unmodified row, then under each row of removals[i],
    a (B, n) boolean stack that is True where the row removes a position.
    c is the argmax of the unmodified row, ties to the lower index. Every
    row goes to one Model.removal_probabilities call; in a call of two or
    more rows, a block does not depend on the records that share it.
    """
    stacks = [np.zeros((1 + len(rows), len(inst)), dtype=bool) for inst, rows in zip(instances, removals)]
    for stack, rows in zip(stacks, removals):
        stack[1:] = rows
    probs = model.removal_probabilities(instances, stacks)
    top = probs.argmax(axis=1).tolist()  # one call costs less than one per record
    bounds = np.cumsum([0] + [len(stack) for stack in stacks]).tolist()
    return [probs[first:end, top[first]] for first, end in zip(bounds, bounds[1:])]


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
    bad = (positions < 0) | (positions >= n)
    if bad.any():
        raise InputError(f"pad position {positions[bad][0]} out of range for length {n}")
    return positions.astype(np.intp, copy=False)


def _top_k_removal(
    model: Model, instances: Sequence[Instance], explanations: Sequence[Sequence]
) -> list[tuple[float, float]]:
    """Each instance's (comprehensiveness, log-odds) from one removal of
    its first K elements; an empty explanation scores (0.0, 0.0)."""
    _check_corpus(instances, explanations, "removal")
    scored = [k for k, ranked in enumerate(explanations) if len(ranked)]
    rows = [np.zeros((1, len(instances[k])), dtype=bool) for k in scored]
    for row, k in zip(rows, scored):
        n, ranked = len(instances[k]), explanations[k]
        row[0, _element_positions(n, ranked[: _k_for(n, len(ranked))])] = True
    results = [(0.0, 0.0)] * len(instances)
    for k, block in zip(scored, _class_probabilities(model, [instances[k] for k in scored], rows)):
        before, after = block.tolist()
        # math.log per element: a vectorised log can round differently.
        lo = math.log(max(after, PROBABILITY_FLOOR)) - math.log(max(before, PROBABILITY_FLOOR))
        results[k] = (before - after, lo)
    return results


def _mean(values: Sequence[float]) -> float:
    """The left-to-right sum from 0.0 over the count; math.fsum or a pairwise sum rounds differently."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def comprehensiveness(model: Model, instances: Sequence[Instance], explanations: Sequence[Sequence]) -> float:
    """Mean drop of the predicted-class probability after removing the
    first K elements of each explanation (best element first).

    Higher is better. Instances with empty explanations contribute 0.
    """
    return _mean([comp for comp, _ in _top_k_removal(model, instances, explanations)])


def log_odds(model: Model, instances: Sequence[Instance], explanations: Sequence[Sequence]) -> float:
    """Mean natural-log change of the predicted-class probability after
    removing the first K elements of each explanation (best element first).

    Negative when removal hurts the predicted class; lower is better.
    Instances with empty explanations contribute 0. Probabilities are
    floored at 1e-12 before logging, so the result is always finite.
    """
    return _mean([lo for _, lo in _top_k_removal(model, instances, explanations)])


def _feature_minimality(
    model: Model, instances: Sequence[Instance], sets: Sequence[Sequence], t: float, kind: str
) -> list[bool]:
    """Whether each instance's set passes essence and minimality.

    A set passes iff removing every element drives the predicted-class
    probability to <= t and restoring any single element lifts it back
    above t. Empty sets fail, and only sets that pass essence have
    their restorations scored.
    """
    if not 0.0 < t < 1.0:
        raise InputError("t must lie strictly between 0 and 1")
    _check_corpus(instances, sets, kind)
    scored = []
    for k, (inst, elements) in enumerate(zip(instances, sets)):
        if len(elements):
            groups = np.zeros((1 + len(elements), len(inst)), dtype=bool)  # row 1 + g: element g
            groups[np.arange(1, len(groups))[:, np.newaxis], _element_positions(len(inst), elements)] = True
            # Row 0 removes every element. Row 1 + g restores element g and
            # keeps removed every position another element owns.
            scored.append((k, groups.sum(axis=0) - groups > 0))
    essence = _class_probabilities(model, [instances[k] for k, _ in scored], [stack[:1] for _, stack in scored])
    essential = [(k, stack) for (k, stack), block in zip(scored, essence) if block[1] <= t]
    restored = _class_probabilities(
        model, [instances[k] for k, _ in essential], [stack[1:] for _, stack in essential]
    )
    passed = {k: bool((block[1:] > t).all()) for (k, _), block in zip(essential, restored)}
    return [passed.get(k, False) for k in range(len(instances))]


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
    return _mean(_feature_minimality(model, instances, pair_sets, t, "pair"))


def fms_words(
    model: Model,
    instances: Sequence[Instance],
    word_sets: Sequence[Sequence[int]],
    t: float,
) -> float:
    """Word-level variant: restoration brings back one token at a time."""
    return _mean(_feature_minimality(model, instances, word_sets, t, "word"))


def top_k_baseline(scores: Sequence[float], k: int) -> tuple[int, ...]:
    """Indices of the k largest scores in rank order: score descending,
    ties to the lower index.

    k larger than the score count is clamped.
    """
    if k < 0:
        raise InputError("k must be non-negative")
    order = sorted(range(len(scores)), key=lambda i: (-float(scores[i]), i))
    return tuple(order[:k])

"""Per-record reference loops for the removal metrics.

Each record's removals are scored by their own model call, one record
after another, as the metrics did before they scored a whole corpus in
one call per metric. Tests compare the batched metrics against these
loops for exact equality. `top_by_score` is the ranking rule the
explanation producers must follow.
"""

from __future__ import annotations

import math

import numpy as np

from minfeat.metrics import PROBABILITY_FLOOR, _k_for


def removal_mask(n: int, elements) -> np.ndarray:
    """One mask row, True at every position of the elements."""
    row = np.zeros(n, dtype=bool)
    for element in elements:
        row[np.ravel(element)] = True
    return row


def top_by_score(elements, scores, k: int) -> tuple:
    """The first k elements under the reference ranking: score descending,
    ties to the lower element."""
    order = sorted(range(len(elements)), key=lambda g: (-scores[g], elements[g]))
    return tuple(elements[g] for g in order[:k])


def _before_after(model, instances, explanations):
    for instance, ranked in zip(instances, explanations):
        if not len(ranked):
            continue
        top = ranked[: _k_for(len(instance), len(ranked))]
        masks = np.stack([removal_mask(len(instance), ()), removal_mask(len(instance), top)])
        before, after = model.removal_probabilities([instance], [masks])
        c = int(np.argmax(before))
        yield float(before[c]), float(after[c])


def comprehensiveness_per_record(model, instances, explanations) -> float:
    total = 0.0
    for before, after in _before_after(model, instances, explanations):
        total += before - after
    return total / len(instances)


def log_odds_per_record(model, instances, explanations) -> float:
    total = 0.0
    for before, after in _before_after(model, instances, explanations):
        total += math.log(max(after, PROBABILITY_FLOOR)) - math.log(max(before, PROBABILITY_FLOOR))
    return total / len(instances)


def essence_and_minimality(model, instance, elements, t: float) -> float:
    """1.0 iff removing every element drives the predicted-class
    probability to <= t and restoring any one element lifts it above t."""
    if len(elements) == 0:
        return 0.0
    groups = np.stack([removal_mask(len(instance), (el,)) for el in elements])
    everything = groups.any(axis=0)
    full, removed = model.removal_probabilities([instance], [np.stack([np.zeros_like(everything), everything])])
    c = int(np.argmax(full))
    if removed[c] > t:
        return 0.0
    restored = model.removal_probabilities([instance], [groups.sum(axis=0) - groups > 0])
    return float((restored[:, c] > t).all())


def fms_per_record(model, instances, sets, t: float) -> float:
    total = 0.0
    for instance, elements in zip(instances, sets):
        total += essence_and_minimality(model, instance, elements, t)
    return total / len(instances)

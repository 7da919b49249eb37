"""Path-integral attribution scores and their pairwise cooperative combination.

All scores integrate model gradients along the straight line from the
all-PAD baseline to the input, using the trapezoidal rule, which is exact
for models whose output is linear in the embeddings. The per-token score
is the sum over embedding coordinates of (input - baseline) times the
path-averaged gradient.

Three score families are computed:

- plain per-token scores, whose total matches the output difference
  between input and baseline (completeness),
- leave-one-out scores: the score of token i along the path toward the
  input with token j padded out,
- pairwise cooperative scores combining both, weighted by beta:
  cig(i,j) = s_i + s_j + beta * (loo(i without j) + loo(j without i)).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import InputError, NumericError
from .model import Instance

DEFAULT_STEPS = 50

Pair = tuple[int, int]


@dataclass(frozen=True)
class AttributionSet:
    """Per-token attribution scores for one instance and one class.

    positive_words holds exactly the indices with score > 0.
    """

    scores: np.ndarray
    positive_words: tuple[int, ...]
    steps: int
    target_class: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.scores).all():
            raise NumericError("attribution scores contain non-finite values")


@dataclass(frozen=True)
class PairRecord:
    """All score components of one unordered token pair (i < j).

    loo_i is the score of token i on the path toward "j removed";
    loo_j is the score of token j on the path toward "i removed".
    cig = ig_i + ig_j + beta * (loo_i + loo_j) by construction.
    """

    i: int
    j: int
    ig_i: float
    ig_j: float
    loo_i: float
    loo_j: float
    cig: float


@dataclass(frozen=True)
class PairScoreMap:
    """Cooperative scores over all unordered token pairs of one instance.

    degenerate marks inputs with fewer than two tokens, for which the map
    is empty. Lookups are symmetric: get(j, i) returns the (i, j) record.
    """

    records: Mapping[Pair, PairRecord]
    beta: float
    positive_pairs: tuple[Pair, ...]
    attributions: AttributionSet
    degenerate: bool = False

    def get(self, i: int, j: int) -> PairRecord:
        if i == j:
            raise InputError("pair indices must differ")
        key = (i, j) if i < j else (j, i)
        if key not in self.records:
            raise InputError(f"pair {key} not present in score map")
        return self.records[key]

    def with_beta(self, beta: float) -> "PairScoreMap":
        """Recombine the stored components under a different beta.

        No gradients are recomputed; only the cig values and the positive
        pair set change.
        """
        if not 0.0 <= beta <= 1.0:
            raise InputError("beta must lie in [0, 1]")
        records = {}
        for key, rec in self.records.items():
            cig = rec.ig_i + rec.ig_j + beta * (rec.loo_i + rec.loo_j)
            records[key] = replace(rec, cig=cig)
        positive = tuple(sorted(k for k, r in records.items() if r.cig > 0.0))
        return PairScoreMap(
            records=records,
            beta=beta,
            positive_pairs=positive,
            attributions=self.attributions,
            degenerate=self.degenerate,
        )


def _average_path_gradient(model, start: np.ndarray, end: np.ndarray, target_class: int, steps: int) -> np.ndarray:
    """Trapezoidal average of input gradients along the straight path.

    steps is the number of trapezoid panels. The steps+1 path points, at
    alpha = 0, 1/steps, ..., 1, are stacked into one (steps+1, n, d) array
    and their gradients come from one batched input_gradient call. The
    weighted gradients are then summed over the stack axis, whose
    reduction order is fixed by the array shape, so results are bitwise
    deterministic.
    """
    alphas = np.arange(steps + 1) / steps
    points = start + alphas[:, np.newaxis, np.newaxis] * (end - start)
    weights = np.ones(steps + 1)
    weights[[0, -1]] = 0.5
    grads = model.input_gradient(points, target_class)
    return (weights[:, np.newaxis, np.newaxis] * grads).sum(axis=0) / steps


def integrated_gradients(model, instance: Instance, target_class: int, steps: int = DEFAULT_STEPS) -> AttributionSet:
    """Per-token attribution against the all-PAD baseline.

    The sum of scores approximates F(input) - F(baseline); the residual
    shrinks as steps grow and vanishes for linear models.
    """
    if steps < 1:
        raise InputError("step count must be at least 1")
    x = instance.embeddings
    baseline = model.baseline_embeddings(len(instance))
    avg = _average_path_gradient(model, baseline, x, target_class, steps)
    scores = ((x - baseline) * avg).sum(axis=1)
    positive = tuple(int(i) for i in range(len(instance)) if scores[i] > 0.0)
    return AttributionSet(scores=scores, positive_words=positive, steps=steps, target_class=target_class)


def _leave_one_out_scores(model, instance: Instance, removed: int, target_class: int, steps: int) -> np.ndarray:
    """Scores of every token along the path toward "removed" padded out.

    One gradient sweep serves all tokens at once, because the integrand
    only depends on the removed position through the path endpoint. Entry
    [removed] is 0 by construction (that coordinate block never moves).
    """
    x = instance.embeddings
    baseline = model.baseline_embeddings(len(instance))
    endpoint = np.array(x, copy=True)
    endpoint[removed] = baseline[removed]
    avg = _average_path_gradient(model, baseline, endpoint, target_class, steps)
    return ((endpoint - baseline) * avg).sum(axis=1)


def loo_integrated_gradients(
    model, instance: Instance, i: int, j: int, target_class: int, steps: int = DEFAULT_STEPS
) -> float:
    """Attribution of token i computed with token j removed from the input.

    Removal means the path endpoint has position j padded; the swapped
    call gives the symmetric counterpart. When j is already padded in the
    instance, the result equals the plain attribution of token i.
    """
    if i == j:
        raise InputError("leave-one-out requires two distinct positions")
    n = len(instance)
    if not (0 <= i < n and 0 <= j < n):
        raise InputError(f"positions ({i}, {j}) out of range for length {n}")
    if steps < 1:
        raise InputError("step count must be at least 1")
    return float(_leave_one_out_scores(model, instance, j, target_class, steps)[i])


def cooperative_integrated_gradients(
    model, instance: Instance, target_class: int, beta: float, steps: int = DEFAULT_STEPS
) -> PairScoreMap:
    """Pairwise cooperative scores over all unordered token pairs.

    beta weighs the leave-one-out components against the plain per-token
    scores. A single-token instance yields an empty, degenerate map.
    """
    if not 0.0 <= beta <= 1.0:
        raise InputError("beta must lie in [0, 1]")
    att = integrated_gradients(model, instance, target_class, steps)
    n = len(instance)
    if n < 2:
        return PairScoreMap(records={}, beta=beta, positive_pairs=(), attributions=att, degenerate=True)

    # loo[j][i] = score of token i on the path with token j removed.
    loo = [_leave_one_out_scores(model, instance, j, target_class, steps) for j in range(n)]

    records: dict[Pair, PairRecord] = {}
    for i in range(n):
        for j in range(i + 1, n):
            loo_i = float(loo[j][i])
            loo_j = float(loo[i][j])
            cig = float(att.scores[i]) + float(att.scores[j]) + beta * (loo_i + loo_j)
            records[(i, j)] = PairRecord(
                i=i,
                j=j,
                ig_i=float(att.scores[i]),
                ig_j=float(att.scores[j]),
                loo_i=loo_i,
                loo_j=loo_j,
                cig=cig,
            )
    positive = tuple(sorted(k for k, r in records.items() if r.cig > 0.0))
    return PairScoreMap(
        records=records, beta=beta, positive_pairs=positive, attributions=att, degenerate=False
    )

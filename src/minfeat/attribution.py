"""Path-integral attribution scores and their pairwise cooperative combination.

All scores integrate model gradients along the straight line from the
all-PAD baseline to the input, using the trapezoidal rule, which is exact
for models whose output is linear in the embeddings. The per-token score
is the sum over embedding coordinates of (input - baseline) times the
path-averaged gradient.

Three score families are computed, each as one dense array:

- plain per-token scores ig, shape (n,), whose total matches the output
  difference between input and baseline (completeness),
- leave-one-out scores loo, shape (n, n): loo[j, i] is the score of
  token i along the path toward the input with token j padded out,
- pairwise cooperative scores cig, shape (n, n), weighted by beta:
  cig[i, j] = ig[i] + ig[j] + beta * (loo[j, i] + loo[i, j]).

integrated_gradients returns the ig array, and PairScoreMap holds ig,
loo and cig together. A non-finite per-token score raises NumericError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .model import Instance

DEFAULT_STEPS = 50

Pair = tuple[int, int]


@dataclass(frozen=True)
class PairScoreMap:
    """Cooperative scores over all token pairs of one instance, as arrays.

    loo[j, i] is the score of token i with token j removed (the diagonal
    is 0), and cig is symmetric: cig[i, j] == cig[j, i] is the score of
    the unordered pair {i, j}. The diagonal of cig is no pair and is never
    read. positive_pairs lists every (i, j) with i < j and cig[i, j] > 0 in
    ascending order; it is empty for inputs with fewer than two tokens.
    """

    ig: np.ndarray
    loo: np.ndarray
    beta: float
    cig: np.ndarray
    positive_pairs: tuple[Pair, ...]

    @classmethod
    def from_components(cls, ig: np.ndarray, loo: np.ndarray, beta: float) -> "PairScoreMap":
        """Combine per-token and leave-one-out scores under beta.

        Entry [i, j] is ig[i] + ig[j] + beta * (loo[j, i] + loo[i, j]),
        added in that order, so it is bitwise equal to the scalar formula.
        """
        if not 0.0 <= beta <= 1.0:
            raise InputError("beta must lie in [0, 1]")
        cig = ig[:, np.newaxis] + ig[np.newaxis, :] + beta * (loo.T + loo)
        positive = tuple(
            (int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(cig > 0.0, k=1)))
        )
        return cls(ig=ig, loo=loo, beta=beta, cig=cig, positive_pairs=positive)

    def with_beta(self, beta: float) -> "PairScoreMap":
        """Recombine the stored components under a different beta.

        No gradients are recomputed; only cig and the positive pair set
        change.
        """
        return PairScoreMap.from_components(self.ig, self.loo, beta)


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


def integrated_gradients(model, instance: Instance, target_class: int, steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Per-token attribution against the all-PAD baseline, shape (n,).

    The sum of scores approximates F(input) - F(baseline); the residual
    shrinks as steps grow and vanishes for linear models. A non-finite
    score raises NumericError.
    """
    if steps < 1:
        raise InputError("step count must be at least 1")
    x = instance.embeddings
    baseline = model.baseline_embeddings(len(instance))
    avg = _average_path_gradient(model, baseline, x, target_class, steps)
    scores = ((x - baseline) * avg).sum(axis=1)
    if not np.isfinite(scores).all():
        raise NumericError("attribution scores contain non-finite values")
    return scores


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


def cooperative_integrated_gradients(
    model, instance: Instance, target_class: int, beta: float, steps: int = DEFAULT_STEPS
) -> PairScoreMap:
    """Pairwise cooperative scores over all unordered token pairs.

    beta weighs the leave-one-out components against the plain per-token
    scores. A single-token instance yields a map without pairs.
    """
    ig = integrated_gradients(model, instance, target_class, steps)
    n = len(instance)
    # Row j holds every token's score with token j removed. A single token
    # forms no pair, so its sweep is skipped.
    if n < 2:
        loo = np.zeros((n, n))
    else:
        loo = np.stack([_leave_one_out_scores(model, instance, j, target_class, steps) for j in range(n)])
    return PairScoreMap.from_components(ig, loo, beta)

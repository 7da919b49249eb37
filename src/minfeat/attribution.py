"""Path-integral attribution scores and their pairwise cooperative combination.

All scores integrate model gradients along the straight line from the
all-PAD baseline to the input, using the trapezoidal rule, which is exact
for models whose output is linear in the embeddings. The model mean-pools
its n token rows, so a path is integrated in pooled space: with
delta = input - baseline, it runs from the pooled baseline by the offset
delta.sum(0) / n, and token i's score is delta[i] times the path-averaged
pooled gradient, divided by n.

Three score families are computed, each as one dense array:

- plain per-token scores ig, shape (n,), whose total matches the output
  difference between input and baseline (completeness),
- leave-one-out scores loo, shape (n, n): loo[j, i] is the score of
  token i along the path toward the input with token j padded out, whose
  pooled offset is (delta.sum(0) - delta[j]) / n,
- pairwise cooperative scores cig, shape (n, n), weighted by beta:
  cig[i, j] = ig[i] + ig[j] + beta * (loo[j, i] + loo[i, j]).

A model needs only baseline_embeddings and pooled_gradient. Tokens with
equal embeddings get bitwise equal scores in every family. A non-finite
score in any family raises NumericError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def positive_index(self) -> tuple[np.ndarray, np.ndarray]:
        """positive_pairs as two index arrays, first and second members.

        Computed on first use and kept, so every array step of one
        record's refinement indexes its pairs without rebuilding them.
        """
        members = np.array(self.positive_pairs, dtype=np.intp).reshape(-1, 2)
        return members[:, 0], members[:, 1]


def _path_scores(model, instance: Instance, target_class: int, steps: int, leave_one_out: bool) -> np.ndarray:
    """Token scores along the path to the input (row 0) and, with
    leave_one_out, along the path with token j padded out (row 1 + j).

    Each path takes one pooled_gradient call on its steps+1 points, at
    alpha = 0, 1/steps, ..., 1, and a trapezoid-weighted sum over them.
    Returns shape (1, n), or (n + 1, n) with zeros where j scores itself.
    """
    if steps < 1:
        raise InputError("step count must be at least 1")
    n = len(instance)
    baseline = model.baseline_embeddings(n)
    delta = instance.embeddings - baseline
    start = baseline.mean(axis=0)
    total = delta.sum(axis=0)
    offsets = [total] + ([total - delta[j] for j in range(n)] if leave_one_out else [])
    alphas = np.arange(steps + 1)[:, np.newaxis] / steps
    weights = np.ones(steps + 1)
    weights[[0, -1]] = 0.5
    # One gradient call per path, so the peak array stays (steps+1, d).
    sums = np.stack(
        [weights @ model.pooled_gradient(start + alphas * (offset / n), target_class) for offset in offsets]
    )
    scores = (delta * sums[:, np.newaxis, :]).sum(axis=2) / (steps * n)
    if not np.isfinite(scores).all():
        raise NumericError("attribution scores contain non-finite values")
    np.fill_diagonal(scores[1:], 0.0)
    return scores


def integrated_gradients(model, instance: Instance, target_class: int, steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Per-token attribution against the all-PAD baseline, shape (n,).

    The sum of scores approximates F(input) - F(baseline); the residual
    shrinks as steps grow and vanishes for linear models. A non-finite
    score raises NumericError.
    """
    return _path_scores(model, instance, target_class, steps, leave_one_out=False)[0]


def cooperative_integrated_gradients(
    model, instance: Instance, target_class: int, beta: float, steps: int = DEFAULT_STEPS
) -> PairScoreMap:
    """Pairwise cooperative scores over all unordered token pairs.

    beta weighs the leave-one-out components against the plain per-token
    scores; the n + 1 paths are integrated once each. A non-finite score
    on any path raises NumericError. A single-token instance yields a map
    without pairs.
    """
    scores = _path_scores(model, instance, target_class, steps, leave_one_out=True)
    return PairScoreMap.from_components(scores[0], scores[1:], beta)

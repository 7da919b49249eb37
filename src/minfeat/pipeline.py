"""Minimal-feature-set construction via knapsack exclusion.

For one instance, the pipeline scores all token pairs cooperatively and
keeps the positive pairs. One exclusion core then excludes as many pairs
as it can while their cooperative score stays under an attribution-derived
capacity; the pairs left over form a candidate set. refine repeats the
exclusion n_iter times, each time valuing the pairs with fresh uniform
draws from a counter-based stream keyed by (seed, iteration), and pairs
that survive in at least an epsilon fraction of the candidate sets form
the final minimal feature set. What depends only on the record (the
pairs, their weights and leave-one-out sums, their stream indices, the
integer weights) is computed once per refine; the draws form one
(n_iter, P) matrix over the P positive pairs, and its n_iter perturbed
bounds u2' are summed left to right in pair order, row by row.

cidr_without_refinement, the no-refinement ablation, runs the same core
once: one greedy exclusion under the unperturbed bound.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .attribution import Pair, PairScoreMap, cooperative_integrated_gradients
from .errors import ConfigError, InputError, InternalError, check_field_types
from .knapsack import quantize, solve_dp, solve_greedy
from .model import Instance, Model

PERTURBATION_CLIP = 1e-12


@dataclass(frozen=True)
class CidrConfig:
    """Pipeline hyperparameters.

    beta weighs the leave-one-out components in the pair scores, t is the
    probability threshold for feature essence, epsilon the candidate-set
    frequency needed to retain a pair, n_iter the number of knapsack
    repetitions, steps the path-integral resolution, q the weight
    quantization digits, and seed the root of every random stream (an
    unsigned 64-bit Philox key word).
    """

    beta: float = 0.5
    t: float = 0.5
    epsilon: float = 0.5
    n_iter: int = 10
    steps: int = 50
    q: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError("beta must lie in [0, 1]")
        if not 0.0 < self.t < 1.0:
            raise ConfigError("t must lie strictly between 0 and 1")
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError("epsilon must lie in (0, 1]")
        if self.n_iter < 1:
            raise ConfigError("n_iter must be >= 1")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if not 0 <= self.q <= sys.float_info.max_10_exp:
            raise ConfigError(f"q must lie in [0, {sys.float_info.max_10_exp}]: 10**q must be a finite float")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must lie in [0, 2**64)")


@dataclass(frozen=True)
class IterationRecord:
    """Audit trail of one knapsack repetition; capacity is u1 + u2_prime."""

    iteration: int
    u2_prime: float
    capacity: float
    excluded: tuple[Pair, ...]
    excluded_score: float
    candidate: tuple[Pair, ...]


@dataclass(frozen=True)
class MinimalFeatureSet:
    """Final retained pairs with their candidate-set frequencies.

    words is the flat sorted union of pair members. candidate_frequencies
    covers every pair that appeared in any candidate set, retained or
    not. pair_scores holds the instance's score arrays and the class they
    were scored for (target_class); the cooperative score of a pair
    (i, j) is pair_scores.cig[i, j]. u1 and u2 are the unperturbed
    attribution bounds, and each iteration's perturbed bound is its
    IterationRecord.u2_prime. degenerate marks instances without
    any positive pair (fewer than two tokens included); they have no
    iterations and zero bounds.
    """

    pairs: tuple[Pair, ...]
    frequencies: Mapping[Pair, float]
    candidate_frequencies: Mapping[Pair, float]
    words: tuple[int, ...]
    u1: float
    u2: float
    iterations: tuple[IterationRecord, ...]
    pair_scores: PairScoreMap
    degenerate: bool = False

    @property
    def target_class(self) -> int:
        return self.pair_scores.target_class


def upper_bound_u1(ig: np.ndarray) -> float:
    """2 * (|positive words| - 1) * sum of their scores; 0 for one or none.

    The positive scores are summed left to right in token order.
    """
    positive = [float(s) for s in ig if s > 0.0]
    if len(positive) <= 1:
        return 0.0
    return 2.0 * (len(positive) - 1) * sum(positive)


def upper_bound_u2(pair_map: PairScoreMap) -> float:
    """beta times the sum of leave-one-out components over positive pairs."""
    return float(perturbed_upper_bound(pair_map, np.ones(len(pair_map.positive_pairs))))


def perturbed_upper_bound(pair_map: PairScoreMap, values: np.ndarray) -> np.ndarray:
    """Like upper_bound_u2 but with each pair's term scaled by its value.

    values has shape (..., P), one perturbation per positive pair in its
    last axis, aligned with pair_map.positive_pairs; a length mismatch is
    an InternalError. The result has shape (...): an (n_iter, P) matrix
    gives every iteration's u2' at once. Each row is beta times the sum of
    value * (loo[j, i] + loo[i, j]) taken left to right in pair order,
    from 0.0; a pairwise reduction would round differently.
    """
    values = np.asarray(values, dtype=np.float64)
    n_pairs = len(pair_map.positive_pairs)
    if values.shape[-1:] != (n_pairs,):
        raise InternalError(f"perturbations of shape {values.shape} for {n_pairs} positive pairs")
    i, j = pair_map.positive_index
    # A leading 0.0 column: the running sum starts from 0.0, as a loop would.
    terms = np.zeros(values.shape[:-1] + (n_pairs + 1,))
    np.multiply(values, pair_map.loo[j, i] + pair_map.loo[i, j], out=terms[..., 1:])
    return pair_map.beta * np.cumsum(terms, axis=-1)[..., -1]


def sample_perturbations(pairs: Sequence[Pair], seed: int, n_iter: int) -> np.ndarray:
    """Deterministic values in (0, 1), shape (n_iter, len(pairs)).

    Row k is iteration k: one Philox generator keyed by the unsigned
    64-bit words (seed, k) draws a stream of uniform doubles, and pair
    (i, j) takes the draw at its triangular index j*(j-1)/2 + i, clipped
    away from the endpoints. Columns follow the order of pairs. Each
    double is one 64-bit word of the stream shifted right by 11 and
    scaled by 2**-53, as numpy's Generator.random draws it, so the draw at
    an index is the same however long the stream is: a pair's value is
    fixed by (seed, k, i, j) alone, whatever other pairs are sampled. The
    stream is as long as the largest index, about n*n/2 words for an
    n-token sentence. Pairs must satisfy 0 <= i < j, and n_iter >= 1.
    """
    if n_iter < 1:
        raise InputError(f"n_iter must be >= 1, got {n_iter}")
    members = np.asarray(pairs) if len(pairs) else np.empty((0, 2), dtype=np.int64)
    if members.ndim != 2 or members.shape[1] != 2 or members.dtype.kind not in "iu":
        raise InputError(
            f"perturbation pairs must be integer (i, j) pairs, not {members.dtype} of shape {members.shape}"
        )
    i, j = members[:, 0], members[:, 1]
    bad = np.flatnonzero((i < 0) | (i >= j))
    if bad.size:
        k = bad[0]
        raise InputError(f"perturbation pair ({i[k]}, {j[k]}) must satisfy 0 <= i < j")
    index = j * (j - 1) // 2 + i
    draws = np.empty((n_iter, len(index)))
    if not len(index):
        return draws
    length = int(index.max()) + 1
    stream = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    # A fresh generator's state with the key swapped is the generator
    # Philox(key=(seed, k)) builds, without a construction per iteration.
    fresh = stream.state
    for k in range(n_iter):
        fresh["state"]["key"] = np.array([seed, k], dtype=np.uint64)
        stream.state = fresh
        words = stream.random_raw(length)[index]
        np.multiply(words >> np.uint64(11), 2.0**-53, out=draws[k])
    return np.clip(draws, PERTURBATION_CLIP, 1.0 - PERTURBATION_CLIP, out=draws)


def _pair_scores(
    model: Model, instance: Instance, config: CidrConfig, pair_map: PairScoreMap | None
) -> PairScoreMap:
    """The pair scores for the predicted class, unless precomputed: a
    supplied map keeps the class it was scored for, and no forward pass
    is made."""
    if pair_map is None:
        target = model.predicted_class(instance.embeddings)
        pair_map = cooperative_integrated_gradients(model, instance, target, config.beta, config.steps)
    return pair_map


def _iteration(
    k: int, pair_map: PairScoreMap, u2_prime: float, capacity: float, excluded: tuple[Pair, ...]
) -> IterationRecord:
    """One exclusion: the positive pairs not excluded form its candidate set."""
    excluded_set = set(excluded)
    return IterationRecord(
        iteration=k,
        u2_prime=u2_prime,
        capacity=capacity,
        excluded=excluded,
        excluded_score=float(sum(float(pair_map.cig[p]) for p in excluded)),
        candidate=tuple(p for p in pair_map.positive_pairs if p not in excluded_set),
    )


def _assemble(
    config: CidrConfig,
    pair_map: PairScoreMap,
    u1: float,
    u2: float,
    iterations: Sequence[IterationRecord],
) -> MinimalFeatureSet:
    """Retain the pairs kept in at least epsilon of the candidate sets.

    No iterations means a degenerate instance with an empty result.
    """
    counts = Counter(p for it in iterations for p in it.candidate)
    frequencies = {p: counts[p] / len(iterations) for p in sorted(counts)}
    retained = tuple(p for p in frequencies if frequencies[p] >= config.epsilon)
    return MinimalFeatureSet(
        pairs=retained,
        frequencies={p: frequencies[p] for p in retained},
        candidate_frequencies=frequencies,
        words=tuple(sorted({pos for pair in retained for pos in pair})),
        u1=u1,
        u2=u2,
        iterations=tuple(iterations),
        pair_scores=pair_map,
        degenerate=not iterations,
    )


def refine(
    model: Model,
    instance: Instance,
    config: CidrConfig,
    pair_map: PairScoreMap | None = None,
) -> MinimalFeatureSet:
    """Build the minimal feature set by repeated knapsack exclusion.

    The pair scores are computed once (they do not depend on the sampled
    values) for the predicted class, unless a precomputed map is
    supplied; the result then explains the map's target_class. The
    knapsack items are the positive pairs (i, j), weighted by cig[i, j]
    and valued by the iteration's perturbations, which are aligned with
    the pairs. Every iteration solves the exclusion knapsack under
    capacity u1 + u2', with the solver capacity tightened by half a
    quantization unit per item so that the excluded real scores can never
    exceed the true capacity.
    Pairs kept in at least epsilon of the candidate sets are retained.
    Each iteration's u2' is kept in its IterationRecord.

    The n_iter repetitions run as array work: one (n_iter, P) matrix of
    perturbations, all n_iter u2' in one call, and one quantize call whose
    instances share the integer weights; solve_dp then runs once for each
    iteration whose solver capacity is positive.
    """
    pair_map = _pair_scores(model, instance, config, pair_map)
    positive = pair_map.positive_pairs
    if not positive:
        return _assemble(config, pair_map, 0.0, 0.0, ())

    u1 = upper_bound_u1(pair_map.ig)
    u2 = upper_bound_u2(pair_map)
    values = sample_perturbations(positive, config.seed, config.n_iter)
    u2_prime = perturbed_upper_bound(pair_map, values)
    capacities = u1 + u2_prime
    # round-to-nearest can shave up to half a unit off each item's weight
    margin = len(positive) * 10.0 ** (-config.q) / 2.0
    solver_capacities = capacities - margin
    solved = np.flatnonzero(solver_capacities > 0.0)
    excluded: list[tuple[Pair, ...]] = [()] * config.n_iter
    if solved.size:
        weights = pair_map.cig[pair_map.positive_index]
        instances = quantize(positive, weights, values[solved], solver_capacities[solved], config.q)
        for k, instance_k in zip(solved.tolist(), instances):
            excluded[k] = solve_dp(instance_k).selected
    iterations = [
        _iteration(k, pair_map, u2p, capacity, excluded[k])
        for k, (u2p, capacity) in enumerate(zip(u2_prime.tolist(), capacities.tolist()))
    ]
    return _assemble(config, pair_map, u1, u2, iterations)


def cidr_without_refinement(
    model: Model,
    instance: Instance,
    config: CidrConfig,
    pair_map: PairScoreMap | None = None,
) -> MinimalFeatureSet:
    """One greedy exclusion under the unperturbed bound u1 + u2.

    Pairs are excluded in decreasing score order while the excluded sum
    stays below the bound. The single candidate set goes through the same
    assembly as refine's, so every remaining positive pair is retained
    with frequency 1.
    """
    pair_map = _pair_scores(model, instance, config, pair_map)
    positive = pair_map.positive_pairs
    if not positive:
        return _assemble(config, pair_map, 0.0, 0.0, ())

    u1 = upper_bound_u1(pair_map.ig)
    u2 = upper_bound_u2(pair_map)
    scored = [(p, float(pair_map.cig[p])) for p in positive]
    excluded = tuple(sorted(solve_greedy(scored, u1 + u2)))
    iteration = _iteration(0, pair_map, u2, u1 + u2, excluded)
    return _assemble(config, pair_map, u1, u2, (iteration,))

"""Minimal-feature-set construction via repeated knapsack exclusion.

For one instance, the pipeline scores all token pairs cooperatively,
keeps the positive pairs, and then repeatedly solves a 0/1 knapsack that
excludes as many pairs as possible subject to the excluded cooperative
score staying under an attribution-derived capacity. Each repetition
draws fresh uniform pair values from a counter-based stream keyed by
(seed, iteration), and pairs that survive in at least an epsilon fraction
of the candidate sets form the final minimal feature set.

A greedy single-pass variant (no refinement, uniform values) is provided
for ablation comparisons.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .attribution import (
    AttributionSet,
    Pair,
    PairScoreMap,
    cooperative_integrated_gradients,
)
from .errors import ConfigError, InputError, InternalError
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
    quantization digits, and seed the root of every random stream.
    """

    beta: float = 0.5
    t: float = 0.5
    epsilon: float = 0.5
    n_iter: int = 10
    steps: int = 50
    q: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
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
        if self.q < 0:
            raise ConfigError("q must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass(frozen=True)
class PerturbationMap:
    """One value in (0, 1) per positive pair, plus its provenance."""

    values: Mapping[Pair, float]
    seed: int
    iteration: int

    def __post_init__(self) -> None:
        for pair, v in self.values.items():
            if not 0.0 < v < 1.0:
                raise InternalError(f"perturbation for pair {pair} outside (0, 1): {v}")


@dataclass(frozen=True)
class Bounds:
    """Attribution upper bounds; u2_prime holds one entry per iteration."""

    u1: float
    u2: float
    u2_prime: tuple[float, ...]


@dataclass(frozen=True)
class IterationRecord:
    """Audit trail of one knapsack repetition."""

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
    not. pair_scores holds the instance's score arrays; the cooperative
    score of a pair (i, j) is pair_scores.cig[i, j]. degenerate marks
    instances too short to form pairs or without any positive pair.
    """

    pairs: tuple[Pair, ...]
    frequencies: Mapping[Pair, float]
    candidate_frequencies: Mapping[Pair, float]
    words: tuple[int, ...]
    config: CidrConfig
    bounds: Bounds
    iterations: tuple[IterationRecord, ...]
    pair_scores: PairScoreMap
    target_class: int
    degenerate: bool = False


def upper_bound_u1(attributions: AttributionSet) -> float:
    """2 * (|positive words| - 1) * sum of their scores; 0 for one or none."""
    positive = attributions.positive_words
    if len(positive) <= 1:
        return 0.0
    total = float(sum(float(attributions.scores[i]) for i in positive))
    return 2.0 * (len(positive) - 1) * total


def upper_bound_u2(pair_map: PairScoreMap) -> float:
    """beta times the sum of leave-one-out components over positive pairs.

    The sum runs left to right over the pairs; a pairwise array reduction
    would round differently.
    """
    loo_sums = pair_map.loo.T + pair_map.loo
    total = 0.0
    for pair in pair_map.positive_pairs:
        total += float(loo_sums[pair])
    return pair_map.beta * total


def perturbed_upper_bound(pair_map: PairScoreMap, perturbations: PerturbationMap) -> float:
    """Like the unperturbed bound but with each pair's term scaled by its value."""
    loo_sums = pair_map.loo.T + pair_map.loo
    total = 0.0
    for pair in pair_map.positive_pairs:
        if pair not in perturbations.values:
            raise InternalError(f"perturbation map missing positive pair {pair}")
        total += perturbations.values[pair] * float(loo_sums[pair])
    return pair_map.beta * total


def sample_perturbations(pairs: Sequence[Pair], seed: int, iteration: int) -> PerturbationMap:
    """Deterministic per-pair values in (0, 1).

    One Philox generator keyed by (seed, iteration) draws a stream of
    uniform doubles, and pair (i, j) takes the draw at its triangular
    index j*(j-1)/2 + i, clipped away from the endpoints. Each double
    consumes one 64-bit word of the stream, so the draw at an index is
    the same however long the stream is: a pair's value is fixed by
    (seed, iteration, i, j) alone, whatever other pairs are sampled. The
    stream is as long as the largest index, about n*n/2 doubles for an
    n-token sentence. Pairs must satisfy 0 <= i < j.
    """
    ordered = sorted(pairs)
    for i, j in ordered:
        if not 0 <= i < j:
            raise InputError(f"perturbation pair ({i}, {j}) must satisfy 0 <= i < j")
    index = [j * (j - 1) // 2 + i for i, j in ordered]
    values: dict[Pair, float] = {}
    if index:
        stream = np.random.Generator(np.random.Philox(key=[seed, iteration]))
        draws = stream.random(max(index) + 1)[index]
        clipped = np.clip(draws, PERTURBATION_CLIP, 1.0 - PERTURBATION_CLIP)
        values = dict(zip(ordered, clipped.tolist()))
    return PerturbationMap(values=values, seed=seed, iteration=iteration)


def _empty_result(
    config: CidrConfig, pair_map: PairScoreMap, target_class: int, u1: float = 0.0, u2: float = 0.0
) -> MinimalFeatureSet:
    return MinimalFeatureSet(
        pairs=(),
        frequencies={},
        candidate_frequencies={},
        words=(),
        config=config,
        bounds=Bounds(u1=u1, u2=u2, u2_prime=()),
        iterations=(),
        pair_scores=pair_map,
        target_class=target_class,
        degenerate=True,
    )


def refine(
    model: Model,
    instance: Instance,
    config: CidrConfig,
    pair_map: PairScoreMap | None = None,
) -> MinimalFeatureSet:
    """Build the minimal feature set by repeated knapsack exclusion.

    The pair scores are computed once (they do not depend on the sampled
    values) unless a precomputed map is supplied. The knapsack items are
    the positive pairs (i, j), weighted by cig[i, j] and valued by their
    sampled perturbations. Every iteration solves the exclusion knapsack
    under capacity u1 + u2', with the solver capacity tightened by half a
    quantization unit per item so that the excluded real scores can never
    exceed the true capacity. Pairs kept in at least epsilon of the
    candidate sets are retained.
    """
    target = model.predicted_class(instance.embeddings)
    if pair_map is None:
        pair_map = cooperative_integrated_gradients(
            model, instance, target, config.beta, config.steps
        )
    positive = pair_map.positive_pairs
    if pair_map.degenerate or not positive:
        return _empty_result(config, pair_map, target)

    u1 = upper_bound_u1(pair_map.attributions)
    u2 = upper_bound_u2(pair_map)
    weights = tuple(float(pair_map.cig[p]) for p in positive)
    # round-to-nearest can shave up to half a unit off each item's weight
    margin = len(positive) * 10.0 ** (-config.q) / 2.0

    counts: Counter[Pair] = Counter()
    iterations: list[IterationRecord] = []
    u2_primes: list[float] = []
    for k in range(config.n_iter):
        perturbations = sample_perturbations(positive, config.seed, k)
        u2p = perturbed_upper_bound(pair_map, perturbations)
        capacity = u1 + u2p
        u2_primes.append(u2p)
        solver_capacity = max(0.0, capacity - margin)
        if solver_capacity > 0.0:
            int_instance = quantize(
                items=positive,
                weights=weights,
                values=tuple(perturbations.values[p] for p in positive),
                capacity=solver_capacity,
                digits=config.q,
            )
            excluded = solve_dp(int_instance).selected
        else:
            excluded = ()
        excluded_set = set(excluded)
        candidate = tuple(p for p in positive if p not in excluded_set)
        counts.update(candidate)
        iterations.append(
            IterationRecord(
                iteration=k,
                u2_prime=u2p,
                capacity=capacity,
                excluded=tuple(excluded),
                excluded_score=float(sum(float(pair_map.cig[p]) for p in excluded)),
                candidate=candidate,
            )
        )

    frequencies = {pair: counts[pair] / config.n_iter for pair in sorted(counts)}
    retained = tuple(p for p in sorted(frequencies) if frequencies[p] >= config.epsilon)
    words = tuple(sorted({pos for pair in retained for pos in pair}))
    return MinimalFeatureSet(
        pairs=retained,
        frequencies={p: frequencies[p] for p in retained},
        candidate_frequencies=frequencies,
        words=words,
        config=config,
        bounds=Bounds(u1=u1, u2=u2, u2_prime=tuple(u2_primes)),
        iterations=tuple(iterations),
        pair_scores=pair_map,
        target_class=target,
        degenerate=False,
    )


def cidr_without_refinement(
    model: Model,
    instance: Instance,
    config: CidrConfig,
    pair_map: PairScoreMap | None = None,
) -> MinimalFeatureSet:
    """Single greedy exclusion pass under the unperturbed bound u1 + u2.

    Pairs are excluded in decreasing score order while the excluded sum
    stays below the bound; the remaining positive pairs form the result
    with frequency 1.
    """
    target = model.predicted_class(instance.embeddings)
    if pair_map is None:
        pair_map = cooperative_integrated_gradients(
            model, instance, target, config.beta, config.steps
        )
    positive = pair_map.positive_pairs
    if pair_map.degenerate or not positive:
        return _empty_result(config, pair_map, target)

    u1 = upper_bound_u1(pair_map.attributions)
    u2 = upper_bound_u2(pair_map)
    bound = u1 + u2
    scored = [(p, float(pair_map.cig[p])) for p in positive]
    excluded = set(solve_greedy(scored, bound))
    retained = tuple(p for p in positive if p not in excluded)
    words = tuple(sorted({pos for pair in retained for pos in pair}))
    frequencies = {p: 1.0 for p in retained}
    return MinimalFeatureSet(
        pairs=retained,
        frequencies=frequencies,
        candidate_frequencies=frequencies,
        words=words,
        config=config,
        bounds=Bounds(u1=u1, u2=u2, u2_prime=()),
        iterations=(
            IterationRecord(
                iteration=0,
                u2_prime=u2,
                capacity=bound,
                excluded=tuple(sorted(excluded)),
                excluded_score=float(sum(float(pair_map.cig[p]) for p in excluded)),
                candidate=retained,
            ),
        ),
        pair_scores=pair_map,
        target_class=target,
        degenerate=False,
    )

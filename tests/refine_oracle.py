"""Per-iteration refinement loop that the batched refine is checked against.

This is refine as one loop over the n_iter repetitions: each iteration
constructs its own Generator, sums its u2' in a Python float loop,
quantizes its own instance, solves it with the per-instance DP of
knapsack_oracle and builds its own record of the pairs it excluded and
kept. The batched refine, which keeps the iterations as arrays and
solves them in one shared DP table, must match it bit for bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from knapsack_oracle import KnapsackInstance, solve_dp_row
from minfeat.errors import ConfigError, InputError
from minfeat.knapsack import MAX_TABLE_CELLS
from minfeat.pipeline import PERTURBATION_CLIP


@dataclass(frozen=True)
class IterationRecord:
    """One knapsack repetition; capacity is u1 + u2_prime."""

    iteration: int
    u2_prime: float
    capacity: float
    excluded: tuple
    excluded_score: float
    candidate: tuple


@dataclass(frozen=True)
class OracleResult:
    """What refine returns, with the iterations as records."""

    pairs: tuple
    frequencies: tuple
    words: tuple
    u1: float
    u2: float
    iterations: tuple
    target_class: int
    degenerate: bool


def iteration_record(k, pair_map, u2_prime, capacity, excluded) -> IterationRecord:
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


def assemble(config, pair_map, u1, u2, iterations) -> OracleResult:
    """Retain the pairs kept in at least epsilon of the candidate sets."""
    counts = Counter(p for it in iterations for p in it.candidate)
    frequencies = {p: counts[p] / len(iterations) for p in sorted(counts)}
    retained = tuple(p for p in frequencies if frequencies[p] >= config.epsilon)
    return OracleResult(
        pairs=retained,
        frequencies=tuple(frequencies[p] for p in retained),
        words=tuple(sorted({pos for pair in retained for pos in pair})),
        u1=u1,
        u2=u2,
        iterations=tuple(iterations),
        target_class=pair_map.target_class,
        degenerate=not iterations,
    )


def positive_score_bound(ig) -> float:
    """u1: 2 * (m - 1) * the sum of the m positive scores, in a Python float
    loop in token order; 0 for one or none."""
    positive = [float(s) for s in ig if s > 0.0]
    total = 0.0
    for score in positive:
        total += score
    return 2.0 * (len(positive) - 1) * total if len(positive) > 1 else 0.0


def scaled_loo_sum(pair_map, scales) -> float:
    """beta * sum of scale * (loo[j, i] + loo[i, j]), left to right in pair order."""
    loo_sums = pair_map.loo.T + pair_map.loo
    total = 0.0
    for scale, pair in zip(scales, pair_map.positive_pairs):
        total += scale * float(loo_sums[pair])
    return pair_map.beta * total


def sample_iteration(pairs, seed: int, iteration: int) -> tuple[float, ...]:
    """One iteration's values: the (seed, iteration) stream at each triangular index."""
    for i, j in pairs:
        if not 0 <= i < j:
            raise InputError(f"perturbation pair ({i}, {j}) must satisfy 0 <= i < j")
    index = [j * (j - 1) // 2 + i for i, j in pairs]
    if not index:
        return ()
    key = np.array([seed, iteration], dtype=np.uint64)
    draws = np.random.Generator(np.random.Philox(key=key)).random(max(index) + 1)[index]
    return tuple(np.clip(draws, PERTURBATION_CLIP, 1.0 - PERTURBATION_CLIP).tolist())


def quantize_one(weights, values, capacity: float, digits: int) -> KnapsackInstance:
    """One integer instance for real weights and a real capacity; only a
    capacity below the weight sum, which needs a DP table, is guarded."""
    scale = 10**digits
    scaled_capacity = np.floor(capacity * scale)
    int_weights = tuple(max(1, int(np.floor(w * scale + 0.5))) for w in weights)
    cells = (len(weights) + 1) * (scaled_capacity + 1)
    tabled = scaled_capacity < sum(int_weights) or np.isinf(scaled_capacity)
    if tabled and cells > MAX_TABLE_CELLS:
        raise ConfigError(f"quantized capacity {scaled_capacity:.0f} needs {cells:.0f} table cells")
    return KnapsackInstance(weights=int_weights, values=tuple(values), capacity=int(scaled_capacity))


def refine_per_iteration(pair_map, config):
    """refine, one knapsack repetition at a time."""
    positive = pair_map.positive_pairs
    if not positive:
        return assemble(config, pair_map, 0.0, 0.0, ())

    u1 = positive_score_bound(pair_map.ig)
    u2 = scaled_loo_sum(pair_map, (1.0,) * len(positive))
    weights = tuple(float(pair_map.cig[p]) for p in positive)
    margin = len(positive) * 10.0 ** (-config.q) / 2.0
    iterations = []
    for k in range(config.n_iter):
        values = sample_iteration(positive, config.seed, k)
        u2p = scaled_loo_sum(pair_map, values)
        capacity = u1 + u2p
        solver_capacity = max(0.0, capacity - margin)
        excluded = ()
        if solver_capacity > 0.0:
            instance_k = quantize_one(weights, values, solver_capacity, config.q)
            excluded = tuple(positive[position] for position in solve_dp_row(instance_k))
        iterations.append(iteration_record(k, pair_map, u2p, capacity, excluded))
    return assemble(config, pair_map, u1, u2, iterations)

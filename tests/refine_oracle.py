"""Per-iteration refinement loop that the batched refine is checked against.

This is refine as one loop over the n_iter repetitions: each iteration
constructs its own Generator, sums its u2' in a Python float loop and
quantizes its own instance. The batched refine must match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from minfeat.errors import ConfigError, InputError
from minfeat.knapsack import MAX_TABLE_CELLS, KnapsackInstance, solve_dp
from minfeat.pipeline import (
    PERTURBATION_CLIP,
    _assemble,
    _iteration,
    _target_and_pairs,
    upper_bound_u1,
)


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


def quantize_one(items, weights, values, capacity: float, digits: int) -> KnapsackInstance:
    """One integer instance for real weights and a real capacity."""
    scale = 10**digits
    scaled_capacity = np.floor(capacity * scale)
    cells = (len(items) + 1) * (scaled_capacity + 1)
    if cells > MAX_TABLE_CELLS:
        raise ConfigError(f"quantized capacity {scaled_capacity:.0f} needs {cells:.0f} table cells")
    int_weights = tuple(max(1, int(np.floor(w * scale + 0.5))) for w in weights)
    return KnapsackInstance(
        items=tuple(items), weights=int_weights, values=tuple(values), capacity=int(scaled_capacity)
    )


def refine_per_iteration(model, instance, config, pair_map=None):
    """refine, one knapsack repetition at a time."""
    target, pair_map = _target_and_pairs(model, instance, config, pair_map)
    positive = pair_map.positive_pairs
    if not positive:
        return _assemble(config, pair_map, target, 0.0, 0.0, ())

    u1 = upper_bound_u1(pair_map.ig)
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
            instance_k = quantize_one(positive, weights, values, solver_capacity, config.q)
            excluded = solve_dp(instance_k).selected
        iterations.append(_iteration(k, pair_map, u2p, capacity, excluded))
    return _assemble(config, pair_map, target, u1, u2, iterations)

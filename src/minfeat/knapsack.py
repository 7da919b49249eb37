"""0/1 knapsack solvers for the pair-exclusion step.

Items are token pairs, weights are their cooperative scores, values are
the sampled perturbations, and the capacity is the attribution upper
bound. Real weights are quantized to integers before the dynamic program
runs; see quantize for the rounding rules.

Tie-break of the exact solver: among equal-value selections, prefer
not selecting an item. Applied per item from the last to the first
during backtracking, this picks the selection whose membership bitmask
is smallest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import ConfigError, InputError

# Guard for the DP table: items x (capacity+1) cells.
MAX_TABLE_CELLS = 200_000_000


@dataclass(frozen=True)
class KnapsackInstance:
    """Integer weights >= 1, positive values, capacity >= 0.

    quantize builds one from real weights and a real capacity.
    """

    items: tuple[Hashable, ...]
    weights: tuple[int, ...]
    values: tuple[float, ...]
    capacity: int

    def __post_init__(self) -> None:
        n = len(self.items)
        if len(self.weights) != n or len(self.values) != n:
            raise InputError("items, weights, and values must have equal length")
        if len(set(self.items)) != n:
            raise InputError("item ids must be distinct")
        if any(w < 1 for w in self.weights):
            raise InputError("integer weights must be >= 1")
        if any(not v > 0 for v in self.values):
            raise InputError("values must be strictly positive")
        if self.capacity < 0:
            raise InputError("capacity must be non-negative")


@dataclass(frozen=True)
class KnapsackSolution:
    """Selected item ids plus the achieved value and weight."""

    selected: tuple[Hashable, ...]
    value: float
    weight: int


def quantize(
    items: Sequence[Hashable],
    weights: Sequence[float],
    values: Sequence[float],
    capacity: float,
    digits: int,
) -> KnapsackInstance:
    """Build the integer instance for real weights and a real capacity.

    Weights and capacity are scaled by 10**digits. Weights round to
    nearest (half away from zero); the capacity is floored, so
    quantization never admits a selection the real capacity would reject
    by more than the documented slack. Weights that round to zero are
    clamped to 1.
    """
    if any(not w > 0 for w in weights):
        raise InputError("weights must be strictly positive")
    if not capacity >= 0:
        raise InputError("capacity must be non-negative")
    if digits < 0:
        raise InputError("quantization digits must be non-negative")
    scale = 10**digits
    # Checked in floats first, so a capacity scaled to inf is a named error.
    scaled_capacity = np.floor(capacity * scale)
    cells = (len(items) + 1) * (scaled_capacity + 1)
    if cells > MAX_TABLE_CELLS:
        raise ConfigError(
            f"quantized capacity {scaled_capacity:.0f} needs {cells:.0f} table cells "
            f"(limit {MAX_TABLE_CELLS}); lower the quantization digits"
        )
    int_weights = tuple(max(1, int(np.floor(w * scale + 0.5))) for w in weights)
    return KnapsackInstance(
        items=tuple(items), weights=int_weights, values=tuple(values), capacity=int(scaled_capacity)
    )


def solve_dp(instance: KnapsackInstance) -> KnapsackSolution:
    """Exact maximum-value selection by dynamic programming.

    Row recurrence: best(i, c) = max(best(i-1, c), best(i-1, c - w_i) + v_i).
    The selection is reconstructed by backtracking the take table rather
    than collecting items while filling rows, so it always corresponds to
    the optimal final cell. Equal-value comparisons keep the item out.
    """
    n = len(instance.items)
    capacity = instance.capacity
    if n == 0 or capacity == 0:
        return KnapsackSolution(selected=(), value=0.0, weight=0)
    weight = sum(instance.weights)
    if weight <= capacity:
        # Every value is positive, so taking every item is the unique
        # optimum. Values are added one by one in backtrack order (last
        # item first), as the table path does, so the result matches it
        # bit for bit; sum() may compensate rounding and would not.
        value = 0.0
        for v in reversed(instance.values):
            value += v
        return KnapsackSolution(selected=tuple(instance.items), value=value, weight=weight)

    best = np.zeros(capacity + 1, dtype=np.float64)
    take = np.zeros((n, capacity + 1), dtype=bool)
    for i in range(n):
        w = instance.weights[i]
        v = instance.values[i]
        if w > capacity:
            continue
        candidate = best[: capacity + 1 - w] + v
        improved = candidate > best[w:]
        take[i, w:] = improved
        best[w:] = np.where(improved, candidate, best[w:])

    selected: list[Hashable] = []
    value = 0.0
    weight = 0
    c = capacity
    for i in range(n - 1, -1, -1):
        if take[i, c]:
            selected.append(instance.items[i])
            value += instance.values[i]
            weight += instance.weights[i]
            c -= instance.weights[i]
    selected.reverse()
    return KnapsackSolution(selected=tuple(selected), value=value, weight=weight)


def solve_greedy(pairs: Sequence[tuple[Hashable, float]], bound: float) -> tuple[Hashable, ...]:
    """Accumulate items in decreasing score order while the sum stays below the bound.

    The check precedes each addition: an item is admitted whenever the
    running sum of already-admitted scores is still < bound, even if
    adding it overshoots. Score ties fall back to ascending item id. A
    non-positive bound admits nothing; an infinite bound admits everything.
    """
    for _, score in pairs:
        if not np.isfinite(score):
            raise InputError("greedy scores must be finite")
    ordered = sorted(pairs, key=lambda kv: (-kv[1], kv[0]))
    selected: list[Hashable] = []
    total = 0.0
    for item, score in ordered:
        if not total < bound:
            break
        selected.append(item)
        total += score
    return tuple(selected)

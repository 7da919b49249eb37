"""0/1 knapsack solvers for the pair-exclusion step.

Items are token pairs, weights are their cooperative scores, values are
the sampled perturbations, and the capacity is the attribution upper
bound. Real weights are quantized to integers before the dynamic program
runs; see quantize for the rounding rules. One quantize call builds the
instances of every refinement iteration at once: the weights are scaled
once and shared, and only the values and the capacity differ.

Tie-break of the exact solver: among equal-value selections, prefer
not selecting an item. Applied per item from the last to the first
during backtracking, this picks the selection whose membership bitmask
is smallest.
"""

from __future__ import annotations

import sys
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
    values: np.ndarray,
    capacities: Sequence[float],
    digits: int,
) -> tuple[KnapsackInstance, ...]:
    """Build one integer instance per capacity from shared real weights.

    values has shape (K, P): row k values the P items of the instance for
    capacities[k]. Weights and capacities are scaled by 10**digits, the
    weights once for all K instances, which share one weight tuple.
    Weights round to nearest (half away from zero), each exactly
    max(1, int(floor(w * 10**digits + 0.5))) however large; the capacities
    are floored, so quantization never admits a selection the real
    capacity would reject by more than the documented slack. The table
    size guard is applied to the largest capacity.
    """
    weights = np.asarray(weights, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if not ((weights > 0) & np.isfinite(weights)).all():
        raise InputError("weights must be finite and strictly positive")
    if not (capacities >= 0).all():
        raise InputError("capacity must be non-negative")
    if not 0 <= digits <= sys.float_info.max_10_exp:
        raise InputError(
            f"quantization digits {digits} must lie in [0, {sys.float_info.max_10_exp}]: "
            "10**digits must be a finite float"
        )
    if capacities.ndim != 1 or values.shape != (len(capacities), len(weights)):
        raise InputError(
            f"values of shape {values.shape} must hold one row of {len(weights)} "
            f"per capacity ({capacities.shape})"
        )
    scale = float(10**digits)
    # Scaled in floats and checked before any conversion to int, so a
    # capacity or weight that overflows to inf is a named error.
    with np.errstate(over="ignore"):
        scaled_capacities = np.floor(capacities * scale)
        scaled_weights = np.floor(weights * scale + 0.5)
    largest = scaled_capacities.max(initial=0.0)
    cells = (len(weights) + 1) * (largest + 1)
    if cells > MAX_TABLE_CELLS:
        raise ConfigError(
            f"quantized capacity {largest:.0f} needs {cells:.0f} table cells "
            f"(limit {MAX_TABLE_CELLS}); lower the quantization digits"
        )
    if not np.isfinite(scaled_weights).all():
        raise ConfigError(f"weights scaled by 10**{digits} overflow to inf; lower the quantization digits")
    # Python ints, not int64: a weight may exceed 2**63 at large digits.
    int_weights = tuple(max(1, int(w)) for w in scaled_weights.tolist())
    items = tuple(items)
    return tuple(
        KnapsackInstance(items=items, weights=int_weights, values=tuple(row), capacity=int(capacity))
        for row, capacity in zip(values.tolist(), scaled_capacities.tolist())
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
    candidate = np.empty(capacity + 1, dtype=np.float64)
    for i in range(n):
        w = instance.weights[i]
        v = instance.values[i]
        if w > capacity:
            continue
        shifted = candidate[: capacity + 1 - w]
        np.add(best[: capacity + 1 - w], v, out=shifted)
        improved = take[i, w:]
        np.greater(shifted, best[w:], out=improved)
        np.copyto(best[w:], shifted, where=improved)

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

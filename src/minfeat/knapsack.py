"""0/1 knapsack solvers for the pair-exclusion step.

Items are token pairs, named by their position 0..n-1 in the caller's
pair list; weights are their cooperative scores, values are the sampled
perturbations, and the capacity is the attribution upper bound. Real
weights are quantized to integers before the dynamic program runs; see
quantize for the rounding rules. One quantize call builds the instances
of every refinement iteration at once: the weights are scaled once and
shared, and only the values and the capacity differ.

Tie-break of the exact solver: among equal-value selections, prefer
not selecting an item. Applied per item from the last to the first
during backtracking, this picks the selection whose membership bitmask
is smallest.
"""

from __future__ import annotations

import sys
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InputError

# Guard for the DP table: items x (capacity+1) cells.
MAX_TABLE_CELLS = 200_000_000


class KnapsackInstance(NamedTuple):
    """Integer weights >= 1, positive values, capacity >= 0, as quantize builds them."""

    weights: tuple[int, ...]
    values: tuple[float, ...]
    capacity: int

    @property
    def items(self) -> range:
        """The items are the positions 0..n-1."""
        return range(len(self.weights))


def quantize(
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
    capacity would reject by more than the documented slack. The cell
    guard reads the largest capacity below the integer weight sum: only
    those solves build a table. Every input is checked once per call.
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
    if not (values > 0).all():
        raise InputError("values must be strictly positive")
    scale = float(10**digits)
    # Scaled in floats and checked before any conversion to int, so a
    # capacity or weight that overflows to inf is a named error.
    with np.errstate(over="ignore"):
        scaled_capacities = np.floor(capacities * scale).tolist()
        scaled_weights = np.floor(weights * scale + 0.5)
    if not np.isfinite(scaled_weights).all():
        raise ConfigError(f"weights scaled by 10**{digits} overflow to inf; lower the quantization digits")
    # Python ints, not int64: a weight may exceed 2**63 at large digits.
    int_weights = tuple(max(1, int(w)) for w in scaled_weights.tolist())
    total = sum(int_weights)
    # An infinite capacity is guarded too: named, not converted to int.
    largest = max((c for c in scaled_capacities if c < total or c == np.inf), default=0.0)
    cells = (len(int_weights) + 1) * (largest + 1)
    if cells > MAX_TABLE_CELLS:
        raise ConfigError(
            f"quantized capacity {largest:.3g} needs {cells:.3g} table cells "
            f"(limit {MAX_TABLE_CELLS}); lower the quantization digits"
        )
    return tuple(
        KnapsackInstance(int_weights, tuple(row), int(capacity))
        for row, capacity in zip(values.tolist(), scaled_capacities)
    )


def solve_dp(instance: KnapsackInstance) -> tuple[int, ...]:
    """Exact maximum-value selection by dynamic programming.

    Precondition: quantize built the instance (integer weights >= 1,
    positive values).
    Row recurrence: best(i, c) = max(best(i-1, c), best(i-1, c - w_i) + v_i).
    The selection is reconstructed by backtracking the take table rather
    than collecting items while filling rows, so it always corresponds to
    the optimal final cell. Equal-value comparisons keep the item out.
    Returns the selected positions in ascending order.
    """
    n = len(instance.weights)
    capacity = instance.capacity
    if n == 0 or capacity == 0:
        return ()
    if sum(instance.weights) <= capacity:
        # Every value is positive, so taking every item is the unique optimum.
        return tuple(range(n))

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
        np.greater(shifted, best[w:], out=take[i, w:])
        np.maximum(best[w:], shifted, out=best[w:])

    selected: list[int] = []
    c = capacity
    for i in range(n - 1, -1, -1):
        if take[i, c]:
            selected.append(i)
            c -= instance.weights[i]
    return tuple(reversed(selected))


def solve_greedy(scores: Sequence[float], bound: float) -> tuple[int, ...]:
    """Accumulate positions in decreasing score order while the sum stays below the bound.

    The check precedes each addition: a position is admitted whenever the
    running sum of already-admitted scores is still < bound, even if
    adding it overshoots. Score ties go to the lower position. A
    non-positive bound admits nothing; an infinite bound admits everything.
    """
    if not np.isfinite(scores).all():
        raise InputError("greedy scores must be finite")
    selected: list[int] = []
    total = 0.0
    for k in sorted(range(len(scores)), key=lambda k: -scores[k]):  # stable
        if not total < bound:
            break
        selected.append(k)
        total += scores[k]
    return tuple(selected)

"""Knapsack oracles that the batched DP solver is checked against.

solve_dp_row is the per-instance dynamic program that solve_dp runs for
every row of a batch at once, kept here unchanged as the per-row
reference; solve_bruteforce is the exhaustive oracle over all subsets.
Both take one KnapsackInstance and return the selected positions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from minfeat.errors import InputError
from minfeat.knapsack import KnapsackBatch

BRUTEFORCE_MAX_ITEMS = 20


class KnapsackInstance(NamedTuple):
    """Integer weights >= 1, positive values, capacity >= 0: one row of a batch."""

    weights: tuple[int, ...]
    values: tuple[float, ...]
    capacity: int

    @property
    def items(self) -> range:
        """The items are the positions 0..n-1."""
        return range(len(self.weights))


def batch_rows(batch: KnapsackBatch) -> list[KnapsackInstance]:
    """The batch's knapsacks, one instance per row."""
    return [
        KnapsackInstance(batch.weights, tuple(row), capacity)
        for row, capacity in zip(batch.values.tolist(), batch.capacities)
    ]


def one_row_batch(instance: KnapsackInstance) -> KnapsackBatch:
    """A batch holding the instance as its one row."""
    values = np.array([instance.values], dtype=np.float64).reshape(1, len(instance.weights))
    return KnapsackBatch(tuple(instance.weights), values, (instance.capacity,))


def positions(selection: np.ndarray) -> tuple[int, ...]:
    """The selected positions of one boolean selection row, ascending."""
    return tuple(np.flatnonzero(selection).tolist())


def solve_dp_row(instance: KnapsackInstance) -> tuple[int, ...]:
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


def solve_bruteforce(instance: KnapsackInstance) -> tuple:
    """Exhaustive oracle over all subsets, same tie-break as solve_dp.

    Refuses instances above 20 items. Subset index bit k set means item k
    selected; among equal-value feasible subsets the smallest index wins,
    which matches the prefer-not-selecting backtrack. Returns the
    selected positions of a maximum-value subset, in ascending order.
    """
    n = len(instance.items)
    if n > BRUTEFORCE_MAX_ITEMS:
        raise InputError(f"brute force refuses more than {BRUTEFORCE_MAX_ITEMS} items, got {n}")

    subset_weight = np.zeros(1, dtype=np.int64)
    subset_value = np.zeros(1, dtype=np.float64)
    for k in range(n):
        subset_weight = np.concatenate([subset_weight, subset_weight + instance.weights[k]])
        subset_value = np.concatenate([subset_value, subset_value + instance.values[k]])

    feasible = subset_weight <= instance.capacity
    values = np.where(feasible, subset_value, -np.inf)
    # argmax returns the first (smallest) index among ties
    best_mask = int(np.argmax(values))
    return tuple(k for k in range(n) if best_mask >> k & 1)

"""Exhaustive knapsack oracle that the exact DP solver is checked against."""

from __future__ import annotations

import numpy as np

from minfeat.errors import InputError
from minfeat.knapsack import KnapsackInstance

BRUTEFORCE_MAX_ITEMS = 20


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

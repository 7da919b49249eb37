"""0/1 knapsack solvers for the pair-exclusion step.

Items are token pairs, named by their position 0..n-1 in the caller's
pair list; weights are their cooperative scores, values are the sampled
perturbations, and the capacity is the attribution upper bound. Real
weights are quantized to integers before the dynamic program runs; see
quantize for the rounding rules. A batch holds every refinement
iteration of one record: its weights are scaled once and shared, and
only the values and the capacity differ from row to row. One quantize
call builds the batches of many records, checking their inputs once
together. solve_dp solves one batch in one table of shared columns.

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

# Guard for one row's DP table: items x (capacity+1) cells.
MAX_TABLE_CELLS = 200_000_000
# Most take-table cells (items x (capacity+1) x rows) that solve_dp fills
# in one block of rows. Refining the bundled corpus on one pinned CPU of a
# Xeon (numpy 2.4, Python 3.11; 200 records at n_iter 10 and 40 at n_iter
# 1,000, medians of 7 and 3 rounds), 2**20 was fastest at both: 2**18
# took 8% and 30% longer, 2**22 0.4% and 57% (its tables outgrow the
# cache), and one row per block 2.2x and 5.4x.
BLOCK_CELLS = 2**20


class KnapsackBatch(NamedTuple):
    """K knapsacks over the same items, as quantize builds them.

    weights are the shared integer weights >= 1 (Python ints, so a weight
    may exceed 2**63), values the (K, P) matrix of positive item values,
    and capacities the K integer capacities >= 0; row k of values and
    capacities[k] make knapsack k.
    """

    weights: tuple[int, ...]
    values: np.ndarray
    capacities: tuple[int, ...]

    @property
    def items(self) -> range:
        """The items are the positions 0..n-1."""
        return range(len(self.weights))

    @property
    def capacity(self) -> int:
        """The largest capacity, 0 for no rows: the top row of a table over
        every row, which perfbench's solve counter reads."""
        return max(self.capacities, default=0)


def quantize(
    weights: Sequence[Sequence[float]],
    values: Sequence[np.ndarray],
    capacities: Sequence[Sequence[float]],
    digits: int,
) -> list[KnapsackBatch]:
    """Build one integer batch per entry, each from its own shared real weights.

    Entry b is the knapsacks of weights[b], one per capacity: values[b]
    has shape (K_b, P_b), and its row k values the P_b items of the
    knapsack for capacities[b][k]. Weights and capacities are scaled by
    10**digits, each weight once for all its rows. Weights round to
    nearest (half away from zero), each exactly
    max(1, int(floor(w * 10**digits + 0.5))) however large; the
    capacities are floored, so quantization never admits a selection the
    real capacity would reject by more than the documented slack. The
    cell guard reads each batch's largest capacity below its integer
    weight sum, as only those rows build a table. It and the check that
    no scaled weight overflows to inf run entry by entry, in order, so
    the error named is that of the first entry in order that fails
    either. Every other input is checked once per call, over all entries
    together, and no batch depends on the others.
    """
    if not len(weights) == len(values) == len(capacities):
        raise InputError(
            f"{len(weights)} weight lists, {len(values)} value matrices and "
            f"{len(capacities)} capacity lists must pair up"
        )
    weights = [np.asarray(w, dtype=np.float64) for w in weights]
    values = [np.asarray(v, dtype=np.float64) for v in values]
    capacities = [np.asarray(c, dtype=np.float64) for c in capacities]
    flat_weights = _flat(weights)
    if not ((flat_weights > 0) & np.isfinite(flat_weights)).all():
        raise InputError("weights must be finite and strictly positive")
    flat_capacities = _flat(capacities)
    if not (flat_capacities >= 0).all():
        raise InputError("capacity must be non-negative")
    if not 0 <= digits <= sys.float_info.max_10_exp:
        raise InputError(
            f"quantization digits {digits} must lie in [0, {sys.float_info.max_10_exp}]: "
            "10**digits must be a finite float"
        )
    for w, v, c in zip(weights, values, capacities):
        if w.ndim != 1 or c.ndim != 1 or v.shape != (len(c), len(w)):
            raise InputError(
                f"values of shape {v.shape} must hold one row of {len(w)} per capacity ({c.shape})"
            )
    if not all((v > 0).all() for v in values):
        raise InputError("values must be strictly positive")
    scale = float(10**digits)
    # Scaled in floats and checked before any conversion to int, so a
    # capacity or weight that overflows to inf is a named error.
    with np.errstate(over="ignore"):
        scaled_capacities = np.floor(flat_capacities * scale).tolist()
        scaled_weights = np.floor(flat_weights * scale + 0.5)
    # The flat index of the first weight that overflows to inf: its entry
    # is named after the cell guard of every earlier entry, as if each
    # entry were quantized alone, in order.
    finite = np.isfinite(scaled_weights)
    overflow = len(finite) if finite.all() else int(np.argmin(finite))
    # Python ints, not int64: a weight may exceed 2**63 at large digits.
    int_weights = list(map(int, np.maximum(scaled_weights[:overflow], 1.0).tolist()))
    batches = []
    start = stop = 0
    for w, v, c in zip(weights, values, capacities):
        if start + len(w) > overflow:
            raise ConfigError(f"weights scaled by 10**{digits} overflow to inf; lower the quantization digits")
        own_weights = tuple(int_weights[start : start + len(w)])
        own_capacities = scaled_capacities[stop : stop + len(c)]
        start, stop = start + len(w), stop + len(c)
        total = sum(own_weights)
        # An infinite capacity is guarded too: named, not converted to int.
        largest = max((x for x in own_capacities if x < total or x == np.inf), default=0.0)
        cells = (len(own_weights) + 1) * (largest + 1)
        if cells > MAX_TABLE_CELLS:
            raise ConfigError(
                f"quantized capacity {largest:.3g} needs {cells:.3g} table cells "
                f"(limit {MAX_TABLE_CELLS}); lower the quantization digits"
            )
        batches.append(KnapsackBatch(own_weights, v, tuple(int(x) for x in own_capacities)))
    return batches


def _flat(arrays: list[np.ndarray]) -> np.ndarray:
    """Every entry of every array, in order, as one flat array."""
    return np.concatenate([a.ravel() for a in arrays]) if arrays else np.empty(0)


def solve_dp(batch: KnapsackBatch) -> np.ndarray:
    """Exact maximum-value selection of every row, by dynamic programming.

    Precondition: quantize built the batch (integer weights >= 1,
    positive values). Returns the (K, P) boolean selection matrix: row k
    is True at the items knapsack k selects.

    A row whose capacity is at least the weight sum selects every item
    (every value is positive, so that is the unique optimum), and a row
    of capacity 0 selects none. The other rows share one column-major
    (capacity + 1, rows) table, filled block by block under BLOCK_CELLS,
    with the recurrence best(i, c) = max(best(i-1, c), best(i-1, c - w_i) + v_i)
    in every column at once. Each column is bit for bit the table of its
    row alone: rows above its capacity never feed the cells backtracking
    reads. The selection is reconstructed by backtracking the take table
    rather than collecting items while filling rows, so it always
    corresponds to the optimal final cell. Equal-value comparisons keep
    the item out.
    """
    total = sum(batch.weights)
    capacities = batch.capacities
    selected = np.zeros(batch.values.shape, dtype=bool)
    selected[[k for k, c in enumerate(capacities) if c >= total]] = True
    rows = [k for k, c in enumerate(capacities) if 0 < c < total]
    if not rows:
        return selected
    # quantize's guard bounds every tabled capacity, so these fit int64.
    tabled = np.array([capacities[k] for k in rows], dtype=np.int64)
    rank = np.argsort(tabled, kind="stable")
    order, tabled = np.asarray(rows)[rank], tabled[rank]
    n = len(batch.weights)
    start = 0
    while start < len(order):
        # Ascending capacities: the block's last row sets its table height.
        stop = start + 1
        while stop < len(order) and n * (int(tabled[stop]) + 1) * (stop + 1 - start) <= BLOCK_CELLS:
            stop += 1
        block = order[start:stop]
        selected[block] = _solve_block(batch.weights, batch.values[block], tabled[start:stop])
        start = stop
    return selected


def _solve_block(weights: tuple[int, ...], values: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """The (rows, P) selections of rows that each need a table, from one
    (top + 1, rows) table; the capacities ascend, so top is the last."""
    top = int(capacities[-1])
    n_rows = len(capacities)
    columns = values.T.copy()  # (P, rows): item i's values are one contiguous row
    best = np.zeros((top + 1, n_rows))
    take = np.zeros((len(weights), top + 1, n_rows), dtype=bool)
    candidate = np.empty((top + 1, n_rows))
    for i, w in enumerate(weights):
        if w > top:
            continue
        shifted = candidate[: top + 1 - w]
        np.add(best[: top + 1 - w], columns[i], out=shifted)
        np.greater(shifted, best[w:], out=take[i, w:])
        np.maximum(best[w:], shifted, out=best[w:])

    # A weight above the top row is never taken; clipped, it fits an index array.
    clipped = np.array([min(w, top + 1) for w in weights], dtype=np.int64)
    cells = capacities.copy()
    cols = np.arange(n_rows)
    chosen = np.empty((n_rows, len(weights)), dtype=bool)
    for i in range(len(weights) - 1, -1, -1):
        chosen[:, i] = taken = take[i, cells, cols]
        np.subtract(cells, clipped[i], out=cells, where=taken)
    return chosen


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

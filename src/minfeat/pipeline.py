"""Minimal-feature-set construction via knapsack exclusion.

The pipeline takes records' cooperative pair scores, PairScoreMaps
already scored for the class to explain, and works on their positive
pairs alone: it never runs the model. One exclusion core excludes as
many of a record's pairs as it can while their cooperative score stays
under an attribution-derived capacity; the pairs left over form a
candidate set. refine repeats the exclusion n_iter times, each time
valuing the pairs with fresh uniform draws from a counter-based stream
keyed by (seed, iteration), and pairs that survive in at least an
epsilon fraction of the candidate sets form the final minimal feature
set.

refine and cidr_without_refinement take a sequence of maps and return
one result per map; a record's result does not depend on the others.
The records run in groups bounded by GROUP_CELLS, the consecutive
slices of group_slices, and a group's array work is done once for all
its records: their positive pairs, weights and leave-one-out sums are
concatenated, one sample_perturbations call draws the (n_iter, N)
matrix of all N pairs, and every record's bounds, u2 and its n_iter
perturbed bounds u2', come from one left-to-right cumsum over a
zero-padded (1 + n_iter, records, 1 + P_max) stack. One quantize call
builds each record's knapsack batch, and solve_dp solves one record's
iterations at a time. A record's iterations are one (n_iter, P) boolean
exclusion matrix over its pairs: its rows give the excluded scores, and
its columns give each pair's share of the candidate sets, from which the
retained pairs and their frequencies are read.

cidr_without_refinement, the no-refinement ablation, runs the same core
once per record: one greedy exclusion under the unperturbed bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .attribution import DEFAULT_STEPS, Pair, PairScoreMap
from .errors import ConfigError, InputError, InternalError, check_field_types
from .knapsack import quantize, solve_dp, solve_greedy

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
    steps: int = DEFAULT_STEPS
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
        # Caps from a memory budget: at each cap, a 13-token record's sweep
        # peaked at 27 MB (a lone path's (16, 1, steps + 1) pre-activations
        # are 12.8 MB) and refining its 67 positive pairs at 19.4 MB, in
        # solve_dp with the draws, the batch's values and the kept stream.
        if not 1 <= self.n_iter <= 10_000:
            raise ConfigError("n_iter must lie in [1, 10000]")
        if not 1 <= self.steps <= 100_000:
            raise ConfigError("steps must lie in [1, 100000]")
        if not 0 <= self.q <= sys.float_info.max_10_exp:
            raise ConfigError(f"q must lie in [0, {sys.float_info.max_10_exp}]: 10**q must be a finite float")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must lie in [0, 2**64)")


@dataclass(frozen=True)
class MinimalFeatureSet:
    """Final retained pairs with their candidate-set frequencies.

    frequencies is aligned with pairs: frequencies[r] is the share of the
    candidate sets that kept pairs[r]. The share of any other positive
    pair is its column share of excluded's complement. pair_scores holds
    the instance's score arrays and the class they were scored for
    (target_class); the cooperative score of a pair (i, j) is
    pair_scores.cig[i, j]. u1 and u2 are the unperturbed bounds.

    The iterations are arrays with one row or entry per knapsack
    repetition: excluded is an (n_iter, P) boolean matrix over
    pair_scores.positive_pairs, True where iteration k excluded the pair
    (its candidate set is the rest of the row), and u2_prime holds each
    iteration's perturbed bound. The rest is derived: words, capacities,
    excluded_scores and degenerate.
    """

    pairs: tuple[Pair, ...]
    frequencies: tuple[float, ...]
    u1: float
    u2: float
    excluded: np.ndarray
    u2_prime: np.ndarray
    pair_scores: PairScoreMap

    @property
    def target_class(self) -> int:
        return self.pair_scores.target_class

    @property
    def words(self) -> tuple[int, ...]:
        """The flat sorted union of the retained pairs' members."""
        return tuple(sorted({pos for pair in self.pairs for pos in pair}))

    @property
    def degenerate(self) -> bool:
        """No positive pair: no iterations (n_iter = P = 0), zero bounds."""
        return not self.pair_scores.positive_pairs

    @property
    def capacities(self) -> np.ndarray:
        """Each iteration's capacity u1 + u2'."""
        return self.u1 + self.u2_prime

    @property
    def excluded_scores(self) -> np.ndarray:
        """Each iteration's excluded cig scores, summed in pair order from 0.0."""
        i, j = self.pair_scores.positive_index
        stack = np.zeros((len(self.excluded), 1 + len(i)))
        stack[:, 1:] = np.where(self.excluded, self.pair_scores.cig[i, j], 0.0)
        return _sum_rows(stack)


def upper_bound_u1(ig: np.ndarray) -> float:
    """2 * (|positive words| - 1) * sum of their scores; 0 for one or none.

    The positive scores are summed left to right in token order.
    """
    return float(_upper_bounds_u1([np.asarray(ig, dtype=np.float64)])[0])


def _upper_bounds_u1(igs: Sequence[np.ndarray]) -> np.ndarray:
    """upper_bound_u1 of each score vector, as one array.

    The vectors go into one zero-padded stack whose non-positive scores
    are zeroed; adding +0.0 to a sum from 0.0 leaves it unchanged, so
    each row's left-to-right sum is that of its positive scores alone.
    """
    lengths, record, column = _layout([len(ig) for ig in igs])
    scores = np.concatenate(igs)
    positive = scores > 0.0
    stack = np.zeros((len(igs), 1 + int(lengths.max(initial=0))))
    stack[record, column + 1] = np.where(positive, scores, 0.0)
    counts = np.bincount(record[positive], minlength=len(igs))
    return np.where(counts > 1, 2.0 * (counts - 1) * _sum_rows(stack), 0.0)


def upper_bound_u2(pair_map: PairScoreMap) -> float:
    """beta times the sum of leave-one-out components over positive pairs.

    The one-record case of the bounds refine and cidr_without_refinement
    compute for a group.
    """
    u2, _ = _bounds([pair_map], _Pairs.of([pair_map]), np.empty((0, len(pair_map.positive_pairs))))
    return float(u2[0])


def perturbed_upper_bound(pair_map: PairScoreMap, values: np.ndarray) -> np.ndarray:
    """Like upper_bound_u2 but with each pair's term scaled by its value.

    values has shape (..., P), one perturbation per positive pair in its
    last axis, aligned with pair_map.positive_pairs; a length mismatch is
    an InternalError. The result has shape (...): an (n_iter, P) matrix
    gives every iteration's u2' at once. Each entry is beta times the sum
    of value * (loo[j, i] + loo[i, j]) taken left to right in pair order,
    from 0.0; a pairwise reduction would round differently. This is the
    one-record case of the bounds refine computes for a group, the
    perturbations being its draws.
    """
    values = np.asarray(values, dtype=np.float64)
    n_pairs = len(pair_map.positive_pairs)
    if values.shape[-1:] != (n_pairs,):
        raise InternalError(f"perturbations of shape {values.shape} for {n_pairs} positive pairs")
    lead = values.shape[:-1]
    rows = values.reshape(math.prod(lead), n_pairs)
    _, u2_prime = _bounds([pair_map], _Pairs.of([pair_map]), rows)
    return u2_prime[0].reshape(lead)


def _sum_rows(stack: np.ndarray) -> np.ndarray:
    """Each row of stack summed left to right over its last axis, as a
    Python loop would add them, by one cumsum in place; stack is spent. A
    pairwise reduction would round differently. A row that starts with
    0.0 sums from 0.0, and trailing +0.0 terms leave a sum from 0.0
    unchanged, as it is never -0.0."""
    return np.cumsum(stack, axis=-1, out=stack)[..., -1].copy()


def _layout(sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sizes, record, column) of entries concatenated from runs of the
    given sizes: entry e of the concatenation is entry column[e] of run
    record[e]."""
    sizes = np.asarray(sizes, dtype=np.intp)
    record = np.repeat(np.arange(len(sizes)), sizes)
    column = np.arange(len(record)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return sizes, record, column


# Most doubles sample_perturbations keeps between calls (8 MiB).
_STREAM_KEPT_WORDS = 2**20
# (seed, n_iter) -> its clipped (n_iter, L) draws; one entry at most.
_STREAMS: dict[tuple[int, int], np.ndarray] = {}


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
    n-token sentence. The seed must lie in [0, 2**64), pairs must satisfy
    0 <= i < j, and n_iter >= 1; anything else raises InputError.

    One (n_iter, L) matrix of clipped draws is kept between calls: the
    streams of the last (seed, n_iter) drawn with n_iter * L at most
    _STREAM_KEPT_WORDS (8 MiB of doubles), L the stream length that call
    needed. A call with the same seed and n_iter and a stream no longer
    than L reads its rows from it. Every call of a run shares one seed
    and n_iter (refine makes one call per group of records), so a process
    draws again only for a call whose pairs need a longer stream than
    every earlier call's. The result is a fresh array.
    """
    if not 0 <= seed < 2**64:
        raise InputError(f"perturbation seed must lie in [0, 2**64), got {seed}")
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
    if not len(index):
        return np.empty((n_iter, 0))
    length = int(index.max()) + 1
    key = (seed, n_iter)
    kept = _STREAMS.get(key)
    if kept is None or kept.shape[1] < length:
        if n_iter * length > _STREAM_KEPT_WORDS:
            return _draw_streams(seed, n_iter, length, index)
        _STREAMS.clear()
        kept = _STREAMS[key] = _draw_streams(seed, n_iter, length)
    # Fancy indexing copies, so no caller can write into the kept draws.
    return kept[:, index]


def _draw_streams(seed: int, n_iter: int, length: int, index: np.ndarray | None = None) -> np.ndarray:
    """Row k holds the first length clipped draws of the (seed, k) stream,
    or, given index, only the draws at index, in its order."""
    draws = np.empty((n_iter, length if index is None else len(index)))
    stream = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    # A fresh generator's state with the key swapped is the generator
    # Philox(key=(seed, k)) builds, without a construction per iteration.
    fresh = stream.state
    for k in range(n_iter):
        fresh["state"]["key"] = np.array([seed, k], dtype=np.uint64)
        stream.state = fresh
        words = stream.random_raw(length)
        np.multiply((words if index is None else words[index]) >> np.uint64(11), 2.0**-53, out=draws[k])
    return np.clip(draws, PERTURBATION_CLIP, 1.0 - PERTURBATION_CLIP, out=draws)


# Most cells, records x rows x the longest record's pair count, that one
# group of refine's records spans; a group's draws and bound stack take
# 8 bytes a cell each. At n_iter 10 the bundled corpus's 200 records fit
# one group, and at the n_iter cap a group holds one or a few records.
# Refining the bundled corpus on one pinned CPU of a Xeon (numpy 2.4,
# Python 3.11), 2**16 to 2**20 took the same time within noise at n_iter
# 10 and 100 (200 records) and 10,000 (5 records); at 10,000 the five
# records peaked at 19.3 MB under tracemalloc with 2**18 and at 22.2 MB
# with 2**20.
GROUP_CELLS = 2**18


class _Pairs(NamedTuple):
    """A group's positive pairs, every record's concatenated in order."""

    sizes: np.ndarray  # (R,): each record's pair count P_r
    record: np.ndarray  # (N,): each pair's record
    column: np.ndarray  # (N,): each pair's position among its record's
    members: np.ndarray  # (N, 2): each pair's (i, j)
    weights: np.ndarray  # (N,): cig[i, j]
    loo_sums: np.ndarray  # (N,): loo[j, i] + loo[i, j]

    @classmethod
    def of(cls, maps: Sequence[PairScoreMap]) -> "_Pairs":
        firsts, seconds, weights, loo_sums = [], [], [], []
        for pm in maps:
            i, j = pm.positive_index
            firsts.append(i)
            seconds.append(j)
            weights.append(pm.cig[i, j])
            loo_sums.append(pm.loo[j, i] + pm.loo[i, j])
        sizes, record, column = _layout([len(i) for i in firsts])
        members = np.column_stack((np.concatenate(firsts), np.concatenate(seconds)))
        return cls(sizes, record, column, members, np.concatenate(weights), np.concatenate(loo_sums))

    @property
    def width(self) -> int:
        """P_max, the longest record's pair count."""
        return int(self.sizes.max())

    def spans(self) -> list[slice]:
        """Each record's slice of the concatenated pairs."""
        stops = np.cumsum(self.sizes).tolist()
        return [slice(stop - size, stop) for stop, size in zip(stops, self.sizes.tolist())]


def _bounds(maps: Sequence[PairScoreMap], pairs: _Pairs, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u2, u2') of every record: u2 of shape (R,) and u2' of shape
    (R, K), given the (K, N) perturbations of the concatenated pairs.

    Row 0 of each record's (1 + K, 1 + P_max) slab holds its leave-one-out
    sums, row 1 + k the same times draw k, after a 0.0 column; one
    cumsum over the stack sums every row left to right from 0.0. The
    zero padding right of a record's pairs adds +0.0 terms, so its
    bounds are bitwise those of a group of it alone, which
    upper_bound_u2 and perturbed_upper_bound compute.
    """
    stack = np.zeros((1 + len(draws), len(maps), 1 + pairs.width))
    stack[0, pairs.record, pairs.column + 1] = pairs.loo_sums
    stack[1:, pairs.record, pairs.column + 1] = draws
    stack[1:] *= stack[0]  # in place: each draw times its pair's sum
    sums = _sum_rows(stack)  # (1 + K, R)
    betas = np.array([pm.beta for pm in maps])
    # beta * sum as perturbed_upper_bound takes it; a product does not
    # depend on its operands' order.
    return betas * sums[0], np.ascontiguousarray((sums[1:] * betas).T)


def _assemble(
    config: CidrConfig,
    maps: Sequence[PairScoreMap],
    pairs: _Pairs,
    u1: np.ndarray,
    u2: np.ndarray,
    u2_prime: np.ndarray,
    excluded: np.ndarray,
) -> list[MinimalFeatureSet]:
    """Retain the pairs kept in at least epsilon of each record's candidate sets.

    excluded is the group's (R, K, P_max) exclusion stack, False right of
    each record's P_r pairs, and u2_prime its (R, K) perturbed bounds.
    """
    n_rows = excluded.shape[1]
    # count / n_rows divides two exact doubles, so each share is the
    # correctly rounded quotient of the two integers.
    shares = (n_rows - excluded.sum(axis=1)) / n_rows
    results = []
    for r, (pm, size, u1_r, u2_r) in enumerate(zip(maps, pairs.sizes.tolist(), u1.tolist(), u2.tolist())):
        own = shares[r, :size].tolist()
        kept = [c for c, share in enumerate(own) if share >= config.epsilon]
        results.append(
            MinimalFeatureSet(
                pairs=tuple(pm.positive_pairs[c] for c in kept),
                frequencies=tuple(own[c] for c in kept),
                u1=u1_r,
                u2=u2_r,
                excluded=excluded[r, :, :size].copy(),
                u2_prime=u2_prime[r].copy(),  # copies, as excluded: a kept result pins no group array
                pair_scores=pm,
            )
        )
    return results


def _degenerate(pair_map: PairScoreMap) -> MinimalFeatureSet:
    """The empty result of an instance without positive pairs."""
    return MinimalFeatureSet((), (), 0.0, 0.0, np.zeros((0, 0), dtype=bool), np.zeros(0), pair_map)


def group_slices(pair_maps: Sequence[PairScoreMap], n_rows: int) -> list[slice]:
    """Consecutive slices of pair_maps that cover them in order, each one
    group of refine's (n_rows = n_iter) or cidr_without_refinement's
    (n_rows = 1).

    The maps with positive pairs in a slice span at most GROUP_CELLS
    cells of n_rows x their longest pair list per record; a record beyond
    that alone forms its own slice. Maps without positive pairs join the
    slice they fall in. Called on one slice, the function returns it
    whole, so refine on a slice is one group.
    """
    starts: list[int] = []
    count = width = 0
    for index, pm in enumerate(pair_maps):
        size = len(pm.positive_pairs)
        if not size:
            continue
        if count and (count + 1) * n_rows * max(width, size) <= GROUP_CELLS:
            count, width = count + 1, max(width, size)
        else:
            starts.append(index)
            count, width = 1, size
    bounds = [0] + starts[1:] + [len(pair_maps)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:]) if stop > start]


def _by_group(
    pair_maps: Sequence[PairScoreMap],
    config: CidrConfig,
    n_rows: int,
    solve: Callable[[Sequence[PairScoreMap], CidrConfig], list[MinimalFeatureSet]],
) -> list[MinimalFeatureSet]:
    """solve on the maps with positive pairs of each of group_slices'
    slices; maps without positive pairs get the degenerate result. One
    result per map, in order."""
    results: list[MinimalFeatureSet] = []
    for part in group_slices(pair_maps, n_rows):
        maps = pair_maps[part]
        tabled = [pm for pm in maps if pm.positive_pairs]
        solved = iter(solve(tabled, config) if tabled else ())
        results.extend(next(solved) if pm.positive_pairs else _degenerate(pm) for pm in maps)
    return results


def refine(pair_maps: Sequence[PairScoreMap], config: CidrConfig) -> list[MinimalFeatureSet]:
    """Build each record's minimal feature set by repeated knapsack exclusion.

    Returns one MinimalFeatureSet per map, in order; a record's result
    does not depend on the other maps in the call. Each result explains
    its map's target_class, the class its scorer chose; the map's own
    beta, not config.beta, weighs the leave-one-out parts of the bounds.
    The knapsack items are a record's positive pairs (i, j), named by
    their column in positive_pairs, weighted by cig[i, j] and valued by
    the iteration's perturbations, which are aligned with the pairs.
    Every iteration solves the exclusion knapsack under capacity
    u1 + u2', with the solver capacity tightened by half a quantization
    unit per item so that the excluded real scores can never exceed the
    true capacity. Pairs kept in at least epsilon of the candidate sets
    are retained.

    The records run in the groups of group_slices, and a group's
    array work is done once for all its records: one
    sample_perturbations call over their concatenated pairs, every u2
    and u2' from one cumsum, and one quantize call that builds one
    KnapsackBatch per record of the iterations whose solver capacity is
    positive, with the record's integer weights shared. solve_dp solves
    each record's batch in one shared DP table, and its selections fill
    those iterations' rows of the record's (n_iter, P) exclusion matrix.
    """
    return _by_group(pair_maps, config, config.n_iter, _refine_group)


def _refine_group(maps: Sequence[PairScoreMap], config: CidrConfig) -> list[MinimalFeatureSet]:
    """refine on records that all have positive pairs."""
    pairs = _Pairs.of(maps)
    u1 = _upper_bounds_u1([pm.ig for pm in maps])
    u2, u2_prime, excluded = _iterate(maps, pairs, u1, config)
    return _assemble(config, maps, pairs, u1, u2, u2_prime, excluded)


def _iterate(
    maps: Sequence[PairScoreMap], pairs: _Pairs, u1: np.ndarray, config: CidrConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u2, u2', excluded) of a group's n_iter iterations; the draws and
    the knapsack batches are freed on return."""
    draws = sample_perturbations(pairs.members, config.seed, config.n_iter)  # (n_iter, N)
    u2, u2_prime = _bounds(maps, pairs, draws)
    # round-to-nearest can shave up to half a unit off each item's weight
    margins = pairs.sizes * 10.0 ** (-config.q) / 2.0
    solver_capacities = u1[:, np.newaxis] + u2_prime - margins[:, np.newaxis]
    solved = [np.flatnonzero(row) for row in solver_capacities > 0.0]
    tabled = [r for r, rows in enumerate(solved) if rows.size]
    spans = pairs.spans()
    excluded = np.zeros((len(maps), config.n_iter, pairs.width), dtype=bool)
    if tabled:
        batches = quantize(
            [pairs.weights[spans[r]] for r in tabled],
            [draws[solved[r], spans[r]] for r in tabled],
            [solver_capacities[r, solved[r]] for r in tabled],
            config.q,
        )
        # The items are the pairs' columns, so each selection row is an exclusion row.
        for r, batch in zip(tabled, batches):
            excluded[r, solved[r], : len(batch.weights)] = solve_dp(batch)
    return u2, u2_prime, excluded


def cidr_without_refinement(pair_maps: Sequence[PairScoreMap], config: CidrConfig) -> list[MinimalFeatureSet]:
    """One greedy exclusion per record under the unperturbed bound u1 + u2.

    Pairs are excluded in decreasing score order while the excluded sum
    stays below the bound. The single candidate set goes through the same
    assembly as refine's, so every remaining positive pair is retained
    with frequency 1. One result per map, in order, as refine returns.
    """
    return _by_group(pair_maps, config, 1, _exclude_greedily)


def _exclude_greedily(maps: Sequence[PairScoreMap], config: CidrConfig) -> list[MinimalFeatureSet]:
    """cidr_without_refinement on records that all have positive pairs."""
    pairs = _Pairs.of(maps)
    u1 = _upper_bounds_u1([pm.ig for pm in maps])
    u2, _ = _bounds(maps, pairs, np.empty((0, len(pairs.weights))))
    excluded = np.zeros((len(maps), 1, pairs.width), dtype=bool)
    for r, (span, bound) in enumerate(zip(pairs.spans(), (u1 + u2).tolist())):
        # Positions as items: their ascending order is the pairs' tie-break order.
        excluded[r, 0, list(solve_greedy(pairs.weights[span].tolist(), bound))] = True
    return _assemble(config, maps, pairs, u1, u2, u2[:, np.newaxis], excluded)

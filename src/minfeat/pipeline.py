"""Minimal-feature-set construction via knapsack exclusion.

The pipeline takes one instance's cooperative pair scores, a PairScoreMap
already scored for the class to explain, and works on its positive pairs
alone: it never runs the model. One exclusion core excludes as many pairs
as it can while their cooperative score stays under an attribution-derived
capacity; the pairs left over form a candidate set. refine repeats the
exclusion n_iter times, each time valuing the pairs with fresh uniform
draws from a counter-based stream keyed by (seed, iteration), and pairs
that survive in at least an epsilon fraction of the candidate sets form
the final minimal feature set. What depends only on the record (the
pairs, their weights and leave-one-out sums, their stream indices, the
integer weights) is computed once per refine; the draws form one
(n_iter, P) matrix over the P positive pairs, and its n_iter perturbed
bounds u2' are summed left to right in pair order, row by row. The
iterations' exclusions are one (n_iter, P) boolean matrix over the same
pairs: its rows give the excluded scores, and its columns give each
pair's share of the candidate sets, from which the retained pairs and
their frequencies are read.

cidr_without_refinement, the no-refinement ablation, runs the same core
once: one greedy exclusion under the unperturbed bound.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

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
        # are 12.8 MB) and refining its 67 positive pairs at 35 MB.
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
    pair is its column share of excluded's complement. words is the flat
    sorted union of pair members. pair_scores holds the instance's score
    arrays and the class they were scored for (target_class); the
    cooperative score of a pair (i, j) is pair_scores.cig[i, j]. u1 and
    u2 are the unperturbed attribution bounds.

    The iterations are arrays with one row or entry per knapsack
    repetition: excluded is an (n_iter, P) boolean matrix over
    pair_scores.positive_pairs, True where iteration k excluded the pair
    (its candidate set is the rest of the row); u2_prime holds each
    iteration's perturbed bound, capacities each u1 + u2', and
    excluded_scores each sum of the excluded cooperative scores, taken
    left to right in pair order. degenerate marks instances without any
    positive pair (fewer than two tokens included); they have no
    iterations (n_iter = P = 0) and zero bounds.
    """

    pairs: tuple[Pair, ...]
    frequencies: tuple[float, ...]
    words: tuple[int, ...]
    u1: float
    u2: float
    excluded: np.ndarray
    u2_prime: np.ndarray
    capacities: np.ndarray
    excluded_scores: np.ndarray
    pair_scores: PairScoreMap
    degenerate: bool = False

    @property
    def target_class(self) -> int:
        return self.pair_scores.target_class


def upper_bound_u1(ig: np.ndarray) -> float:
    """2 * (|positive words| - 1) * sum of their scores; 0 for one or none.

    The positive scores are summed left to right in token order.
    """
    positive = [float(s) for s in ig if s > 0.0]
    if len(positive) <= 1:
        return 0.0
    return 2.0 * (len(positive) - 1) * sum(positive)


def upper_bound_u2(pair_map: PairScoreMap) -> float:
    """beta times the sum of leave-one-out components over positive pairs."""
    return float(perturbed_upper_bound(pair_map, np.ones(len(pair_map.positive_pairs))))


def perturbed_upper_bound(pair_map: PairScoreMap, values: np.ndarray) -> np.ndarray:
    """Like upper_bound_u2 but with each pair's term scaled by its value.

    values has shape (..., P), one perturbation per positive pair in its
    last axis, aligned with pair_map.positive_pairs; a length mismatch is
    an InternalError. The result has shape (...): an (n_iter, P) matrix
    gives every iteration's u2' at once. Each row is beta times the sum of
    value * (loo[j, i] + loo[i, j]) taken left to right in pair order,
    from 0.0; a pairwise reduction would round differently.
    """
    values = np.asarray(values, dtype=np.float64)
    n_pairs = len(pair_map.positive_pairs)
    if values.shape[-1:] != (n_pairs,):
        raise InternalError(f"perturbations of shape {values.shape} for {n_pairs} positive pairs")
    i, j = pair_map.positive_index
    return pair_map.beta * _sum_left_to_right(values * (pair_map.loo[j, i] + pair_map.loo[i, j]))


def _sum_left_to_right(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis, each taken left to right from 0.0 as a
    Python loop would add them; a pairwise reduction would round
    differently."""
    padded = np.zeros(terms.shape[:-1] + (terms.shape[-1] + 1,))
    padded[..., 1:] = terms
    return np.cumsum(padded, axis=-1)[..., -1]


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
    than L reads its rows from it. Every record of a run shares one seed
    and n_iter, so a process draws again only for a record longer than
    every earlier one. The result is a fresh array.
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


def _assemble(
    config: CidrConfig,
    pair_map: PairScoreMap,
    u1: float,
    u2: float,
    u2_prime: np.ndarray,
    excluded: np.ndarray,
) -> MinimalFeatureSet:
    """Retain the pairs kept in at least epsilon of the candidate sets.

    excluded is the (n_iter, P) exclusion matrix over the positive pairs
    and u2_prime its n_iter perturbed bounds. No positive pair means a
    degenerate instance with no iterations and an empty result.
    """
    n_iter = len(excluded)
    weights = pair_map.cig[pair_map.positive_index]
    # One share per positive pair, in pair order; count / n_iter divides
    # Python ints, so each share is the correctly rounded quotient.
    shares = [count / n_iter for count in (n_iter - excluded.sum(axis=0)).tolist()]
    kept = [r for r, share in enumerate(shares) if share >= config.epsilon]
    retained = tuple(pair_map.positive_pairs[r] for r in kept)
    return MinimalFeatureSet(
        pairs=retained,
        frequencies=tuple(shares[r] for r in kept),
        words=tuple(sorted({pos for pair in retained for pos in pair})),
        u1=u1,
        u2=u2,
        excluded=excluded,
        u2_prime=u2_prime,
        capacities=u1 + u2_prime,
        excluded_scores=_sum_left_to_right(np.where(excluded, weights, 0.0)),
        pair_scores=pair_map,
        degenerate=not pair_map.positive_pairs,
    )


def _degenerate(config: CidrConfig, pair_map: PairScoreMap) -> MinimalFeatureSet:
    """The empty result of an instance without positive pairs."""
    return _assemble(config, pair_map, 0.0, 0.0, np.zeros(0), np.zeros((0, 0), dtype=bool))


def refine(pair_map: PairScoreMap, config: CidrConfig) -> MinimalFeatureSet:
    """Build the minimal feature set by repeated knapsack exclusion.

    The result explains pair_map.target_class, the class its scorer chose;
    the map's own beta, not config.beta, weighs the leave-one-out parts of
    the bounds. The knapsack items are the positive pairs (i, j), named by
    their column in positive_pairs, weighted by cig[i, j] and valued by the
    iteration's perturbations, which are aligned with the pairs. Every
    iteration solves the exclusion knapsack under capacity u1 + u2', with
    the solver capacity tightened by half a quantization unit per item so
    that the excluded real scores can never exceed the true capacity.
    Pairs kept in at least epsilon of the candidate sets are retained.

    The n_iter repetitions run as array work: one (n_iter, P) matrix of
    perturbations, all n_iter u2' in one call, and one quantize call that
    batches every iteration whose solver capacity is positive, with the
    integer weights shared. One solve_dp call solves the batch in one
    shared DP table and returns its selections, which fill those
    iterations' rows of the (n_iter, P) exclusion matrix.
    """
    positive = pair_map.positive_pairs
    if not positive:
        return _degenerate(config, pair_map)

    u1 = upper_bound_u1(pair_map.ig)
    u2 = upper_bound_u2(pair_map)
    values = sample_perturbations(positive, config.seed, config.n_iter)
    u2_prime = perturbed_upper_bound(pair_map, values)
    # round-to-nearest can shave up to half a unit off each item's weight
    margin = len(positive) * 10.0 ** (-config.q) / 2.0
    solver_capacities = u1 + u2_prime - margin
    solved = np.flatnonzero(solver_capacities > 0.0)
    excluded = np.zeros((config.n_iter, len(positive)), dtype=bool)
    if solved.size:
        # The items are the pairs' columns, so each selection row is an exclusion row.
        weights = pair_map.cig[pair_map.positive_index]
        batch = quantize(weights, values[solved], solver_capacities[solved], config.q)
        excluded[solved] = solve_dp(batch)
    return _assemble(config, pair_map, u1, u2, u2_prime, excluded)


def cidr_without_refinement(pair_map: PairScoreMap, config: CidrConfig) -> MinimalFeatureSet:
    """One greedy exclusion under the unperturbed bound u1 + u2.

    Pairs are excluded in decreasing score order while the excluded sum
    stays below the bound. The single candidate set goes through the same
    assembly as refine's, so every remaining positive pair is retained
    with frequency 1.
    """
    positive = pair_map.positive_pairs
    if not positive:
        return _degenerate(config, pair_map)

    u1 = upper_bound_u1(pair_map.ig)
    u2 = upper_bound_u2(pair_map)
    # Positions as items: their ascending order is the pairs' tie-break order.
    scores = pair_map.cig[pair_map.positive_index].tolist()
    excluded = np.zeros((1, len(positive)), dtype=bool)
    excluded[0, list(solve_greedy(scores, u1 + u2))] = True
    return _assemble(config, pair_map, u1, u2, np.array([u2]), excluded)

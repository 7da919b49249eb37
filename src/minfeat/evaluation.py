"""Side-by-side evaluation of explanation methods on one corpus.

Each method produces one removal set per instance; every method, and
the per-record scores of ``explain``, go through the same
comprehensiveness, log-odds, and minimality call. Pair-producing methods
are scored at pair granularity, plain word rankings at word granularity,
as each removal set's mode says.

Methods:

- cidr: the full pipeline with refinement,
- cidr-no-r: single greedy exclusion pass, no refinement,
- cidr-no-cig: refinement with beta = 0, so pairs carry no
  leave-one-out interaction component,
- ig-top2k: top 2K words by path-integral attribution,
- gradinput-top2k: top 2K words by embedding-gradient inner product,
- random: uniformly drawn word sets matched in size to cidr's word sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .attribution import PairScoreMap, cooperative_integrated_gradients, integrated_gradients
from .errors import ConfigError, InputError
from .metrics import (
    PAIR_MODE,
    WORD_MODE,
    MetricsRow,
    RemovalSet,
    comprehensiveness,
    fms_pairs,
    fms_words,
    log_odds,
    top_k_baseline,
)
from .model import Instance, Model
from .pipeline import CidrConfig, MinimalFeatureSet, cidr_without_refinement, refine

METHODS = ("cidr", "cidr-no-r", "cidr-no-cig", "ig-top2k", "gradinput-top2k", "random")

_PAIR_METHODS = ("cidr", "cidr-no-r", "cidr-no-cig")

# Stream id for the random-baseline draws, far outside the refinement
# iteration indices so the two never share a Philox key.
_RANDOM_STREAM = 1_000_003


def parallel_map(fn: Callable, items: Iterable) -> list:
    """``[fn(item) for item in items]`` on the calling thread, in order.

    A named function only because ``perfbench/tracer.py`` wraps it to
    parent each record's spans; inlined into its two callers once that
    hook is optional (ROADMAP item 7).
    """
    return [fn(item) for item in items]


def gradient_input_scores(model: Model, instance: Instance, target_class: int) -> np.ndarray:
    """Per-token inner product of the embedding with its gradient."""
    grads = model.input_gradient(instance.embeddings, target_class)
    return (instance.embeddings * grads).sum(axis=1)


@dataclass
class _Shared:
    """Per-instance artifacts reused across methods."""

    instance: Instance
    target: int
    ig: np.ndarray | None = None
    pair_map: PairScoreMap | None = None
    cidr_mfs: MinimalFeatureSet | None = None


def _word_budget(n_tokens: int) -> int:
    """Word-ranking methods expose 2K candidates, K = max(1, floor(0.1 n))."""
    return min(2 * max(1, n_tokens // 10), n_tokens)


def _pair_removal(mfs: MinimalFeatureSet) -> RemovalSet:
    scores = tuple(float(mfs.pair_scores.cig[p]) for p in mfs.pairs)
    return RemovalSet(mode=PAIR_MODE, elements=mfs.pairs, scores=scores)


def _word_removal(indices: Sequence[int], ranking: Sequence[float]) -> RemovalSet:
    return RemovalSet(
        mode=WORD_MODE,
        elements=tuple(int(i) for i in indices),
        scores=tuple(float(ranking[i]) for i in indices),
    )


def _random_words(n_tokens: int, size: int, seed: int, index: int) -> RemovalSet:
    if size == 0:
        return RemovalSet(mode=WORD_MODE, elements=(), scores=())
    stream = np.random.Generator(
        np.random.Philox(
            counter=[0, 0, 0, index], key=np.array([seed, _RANDOM_STREAM], dtype=np.uint64)
        )
    )
    drawn = stream.permutation(n_tokens)[:size]
    # Earlier draws rank higher so truncation follows the draw order.
    scores = {int(pos): float(size - rank) for rank, pos in enumerate(drawn)}
    elements = tuple(sorted(scores))
    return RemovalSet(
        mode=WORD_MODE, elements=elements, scores=tuple(scores[e] for e in elements)
    )


def _score(
    model: Model, instances: Sequence[Instance], removal_sets: Sequence[RemovalSet], t: float
) -> tuple[float, float, float]:
    """(comp, lo, fms) of one method, one removal set per instance.

    The first set's mode picks the minimality granularity: pairs are
    restored a pair at a time, words a word at a time.
    """
    comp = comprehensiveness(model, instances, removal_sets)
    lo = log_odds(model, instances, removal_sets)
    fms_of = fms_pairs if removal_sets[0].mode == PAIR_MODE else fms_words
    fms = fms_of(model, instances, [rs.elements for rs in removal_sets], t)
    return comp, lo, fms


def single_instance_metrics(
    model: Model, instance: Instance, mfs: MinimalFeatureSet, t: float
) -> tuple[float, float, float]:
    """(comp, lo, fms) for one instance under its pair explanation, scored
    exactly as evaluate_methods scores a cidr row."""
    return _score(model, [instance], [_pair_removal(mfs)], t)


def _removal(
    method: str, model: Model, config: CidrConfig, shared: _Shared, index: int
) -> RemovalSet:
    """The explanation one method gives for one instance."""
    instance = shared.instance
    if method == "cidr":
        return _pair_removal(shared.cidr_mfs)
    if method == "cidr-no-r":
        return _pair_removal(cidr_without_refinement(shared.pair_map, config))
    if method == "cidr-no-cig":
        return _pair_removal(refine(shared.pair_map.with_beta(0.0), config))
    if method == "random":
        return _random_words(len(instance), len(shared.cidr_mfs.words), config.seed, index)
    if method == "ig-top2k":
        scores = shared.ig
    else:  # gradinput-top2k
        scores = gradient_input_scores(model, instance, shared.target)
    return _word_removal(top_k_baseline(scores, _word_budget(len(instance))), scores)


def evaluate_methods(
    model: Model,
    instances: Sequence[Instance],
    methods: Sequence[str],
    config: CidrConfig,
) -> list[MetricsRow]:
    """Score each requested method over the whole corpus.

    Returns one row per method, in request order; each row is the
    (comp, lo, fms) of the method's removal sets, pair methods at pair
    granularity and word rankings at word granularity. Pair scores are
    computed once per instance and shared: the beta = 0 variant is an
    exact recombination of the stored components, and the random baseline
    reads its set sizes from the cidr result.
    """
    unknown = sorted(set(methods) - set(METHODS))
    if unknown:
        raise ConfigError(f"unknown methods {unknown}; valid names are {list(METHODS)}")
    if not methods:
        raise ConfigError("at least one method is required")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ConfigError(f"methods {repeated} are requested more than once")
    if not instances:
        raise InputError("evaluation needs at least one instance")

    need_pairs = any(m in methods for m in _PAIR_METHODS) or "random" in methods
    need_cidr = "cidr" in methods or "random" in methods
    need_attr = need_pairs or "ig-top2k" in methods

    def prepare(instance: Instance) -> _Shared:
        shared = _Shared(instance=instance, target=model.predicted_class(instance.embeddings))
        if need_pairs:
            shared.pair_map = cooperative_integrated_gradients(
                model, instance, shared.target, config.beta, config.steps
            )
            shared.ig = shared.pair_map.ig
        elif need_attr:
            shared.ig = integrated_gradients(model, instance, shared.target, config.steps)
        if need_cidr:
            shared.cidr_mfs = refine(shared.pair_map, config)
        return shared

    shared_list = parallel_map(prepare, instances)

    rows: list[MetricsRow] = []
    for method in methods:
        removal_sets = [
            _removal(method, model, config, shared, index)
            for index, shared in enumerate(shared_list)
        ]
        comp, lo, fms = _score(model, instances, removal_sets, config.t)
        rows.append(
            MetricsRow(method=method, lo=lo, comp=comp, fms=fms, n=len(instances), seed=config.seed)
        )
    return rows

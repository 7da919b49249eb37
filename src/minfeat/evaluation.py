"""Side-by-side evaluation of explanation methods on one corpus.

One table, ``_TABLE``, holds every method: its name maps to the
granularity its elements have (token pairs or words), whether it reads
the records' pair maps, and its producer, which returns every record's
explanation, elements ranked best first. ``METHODS`` is the table's
names in order, the default ``evaluate`` list.

A producer reads one ``CorpusArtifacts``: per record, the explained
class from one forward, the pair map and plain IG, and cidr's ranked
pairs, each list computed once, when first read. ``map_refined`` refines
one ``pipeline.group_slices`` slice at a time and maps its sets to what
the caller keeps (``explain`` reports), so no command holds more than one
group's refined sets. Each method's row holds the means of the
per-record metrics; the granularity picks ``fms_pairs`` or ``fms_words``.
``explain`` reads those per-record metrics, one call per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .attribution import PairScoreMap, cooperative_integrated_gradients, integrated_gradients
from .errors import ConfigError, InputError
from .metrics import MetricsRow, comprehensiveness, fms_pairs, fms_words, log_odds, top_k_baseline
from .metrics import _feature_minimality, _top_k_removal
from .model import Instance, Model
from .pipeline import CidrConfig, MinimalFeatureSet, cidr_without_refinement, group_slices, refine

# Stream id for the random-baseline draws, far outside the refinement
# iteration indices so the two never share a Philox key.
_RANDOM_STREAM = 1_000_003


def parallel_map(fn: Callable, items: Iterable) -> list:
    """``[fn(item) for item in items]`` on the calling thread, in order.

    Its one caller is ``map_refined``, over the group slices. It stays a
    named function because ``perfbench/tracer.py`` wraps it to parent each
    group's spans; it can be inlined once that hook is optional (ROADMAP item 7).
    """
    return [fn(item) for item in items]


def map_refined(fn: Callable, pair_maps: Sequence[PairScoreMap], config: CidrConfig) -> list:
    """``fn(part, refine(pair_maps[part], config))`` for each slice ``part``
    of ``group_slices(pair_maps, config.n_iter)``, concatenated in order;
    fn returns one entry per record of its slice. refine is read from the
    module globals, as parallel_map is, so a tracer's swaps apply. No name
    holds a slice's sets, so they are freed once mapped, before the next
    slice is refined.
    """
    mapped = parallel_map(
        lambda part: fn(part, refine(pair_maps[part], config)), group_slices(pair_maps, config.n_iter)
    )
    return [entry for entries in mapped for entry in entries]


def gradient_input_scores(model: Model, instance: Instance, target_class: int) -> np.ndarray:
    """Per-token inner product of the embedding with its gradient."""
    grads = model.input_gradient(instance.embeddings, target_class)
    return (instance.embeddings * grads).sum(axis=1)


@dataclass(frozen=True)
class CorpusArtifacts:
    """A corpus's artifacts, one entry per record in corpus order; each
    list is computed once, when first read.

    with_pairs says the pair maps will be read: ig is then the pair maps',
    equal to plain IG sweeps bit for bit, and no sweep of its own. cidr is
    each record's ranked pairs from map_refined, not its refined set. Each
    function called here is read from the module globals at call time, so
    a tracer that swaps module attributes (perfbench's) sees every call.
    """

    model: Model
    instances: Sequence[Instance]
    config: CidrConfig
    with_pairs: bool = True

    @cached_property
    def probabilities(self) -> list[np.ndarray]:
        return [self.model.forward(instance.embeddings) for instance in self.instances]

    @cached_property
    def targets(self) -> list[int]:
        """The explained classes: each argmax of the forward pass, ties to the lower index."""
        return [int(np.argmax(p)) for p in self.probabilities]

    @cached_property
    def pair_maps(self) -> list[PairScoreMap]:
        config = self.config
        return [
            cooperative_integrated_gradients(self.model, instance, target, config.beta, config.steps)
            for instance, target in zip(self.instances, self.targets)
        ]

    @cached_property
    def cidr(self) -> list[tuple[tuple[int, int], ...]]:
        return map_refined(lambda _, sets: [_ranked_pairs(m) for m in sets], self.pair_maps, self.config)

    @cached_property
    def ig(self) -> list[np.ndarray]:
        if self.with_pairs:
            return [pm.ig for pm in self.pair_maps]
        return [
            integrated_gradients(self.model, instance, target, self.config.steps)
            for instance, target in zip(self.instances, self.targets)
        ]


def _word_budget(n_tokens: int) -> int:
    """Word-ranking methods expose 2K candidates, K = max(1, floor(0.1 n))."""
    return min(2 * max(1, n_tokens // 10), n_tokens)


def _ranked_pairs(mfs: MinimalFeatureSet) -> tuple[tuple[int, int], ...]:
    """The retained pairs, best first: cig descending, ties to the lower pair."""
    cig = mfs.pair_scores.cig
    return tuple(sorted(mfs.pairs, key=lambda p: (-cig[p], p)))


def _random_words(n_tokens: int, size: int, seed: int, index: int) -> tuple[int, ...]:
    """size distinct positions in draw order, which is their rank order."""
    stream = np.random.Generator(
        np.random.Philox(
            counter=[0, 0, 0, index], key=np.array([seed, _RANDOM_STREAM], dtype=np.uint64)
        )
    )
    return tuple(int(pos) for pos in stream.permutation(n_tokens)[:size])


class _Method(NamedTuple):
    granularity: str  # "pair" or "word": the elements the explanation holds
    reads_pairs: bool  # whether produce reads the records' pair maps
    produce: Callable[[CorpusArtifacts], list]


def _top_words(scores: np.ndarray) -> tuple[int, ...]:
    return top_k_baseline(scores, _word_budget(len(scores)))


# Producers call pipeline functions by global name, so the tracer's swaps apply.
_TABLE = {
    # the full pipeline with refinement
    "cidr": _Method("pair", True, lambda c: c.cidr),
    # a single greedy exclusion pass, no refinement
    "cidr-no-r": _Method(
        "pair", True, lambda c: list(map(_ranked_pairs, cidr_without_refinement(c.pair_maps, c.config)))
    ),
    # refinement on the pair scores recombined with beta = 0: no leave-one-out term
    "cidr-no-cig": _Method(
        "pair", True, lambda c: map_refined(
            lambda _, sets: [_ranked_pairs(m) for m in sets], [pm.with_beta(0.0) for pm in c.pair_maps], c.config
        )
    ),
    # the top 2K words by path-integral attribution
    "ig-top2k": _Method("word", False, lambda c: [_top_words(ig) for ig in c.ig]),
    # the top 2K words by embedding-gradient inner product
    "gradinput-top2k": _Method(
        "word",
        False,
        lambda c: [
            _top_words(gradient_input_scores(c.model, instance, target))
            for instance, target in zip(c.instances, c.targets)
        ],
    ),
    # uniformly drawn words, as many as cidr's word set holds
    "random": _Method(
        "word",
        True,
        lambda c: [
            _random_words(len(instance), len({pos for pair in ranked for pos in pair}), c.config.seed, index)
            for index, (instance, ranked) in enumerate(zip(c.instances, c.cidr))
        ],
    ),
}

METHODS = tuple(_TABLE)


def _score(
    model: Model, instances: Sequence[Instance], explanations: Sequence[Sequence], granularity: str, t: float
) -> tuple[float, float, float]:
    """(comp, lo, fms) of one method, one ranked explanation per instance.

    Pairs are restored a pair at a time (fms_pairs), words a word at a
    time (fms_words); both are read from the module globals at call time.
    """
    comp = comprehensiveness(model, instances, explanations)
    lo = log_odds(model, instances, explanations)
    fms_of = fms_pairs if granularity == "pair" else fms_words
    return comp, lo, fms_of(model, instances, explanations, t)


def single_instance_metrics(
    model: Model, instances: Sequence[Instance], pair_sets: Sequence[Sequence[tuple[int, int]]], t: float
) -> list[tuple[float, float, float]]:
    """One (comp, lo, fms) per instance under its ranked pairs: its entry
    of the per-record metrics, equal to a one-instance cidr row. Three
    model calls: one top-K removal, one essence and one restoration."""
    removals = _top_k_removal(model, instances, pair_sets)
    passed = _feature_minimality(model, instances, pair_sets, t, "pair")
    return [(comp, lo, float(ok)) for (comp, lo), ok in zip(removals, passed)]


def evaluate_methods(
    model: Model, instances: Sequence[Instance], methods: Sequence[str], config: CidrConfig
) -> list[MetricsRow]:
    """Score each requested method over the whole corpus.

    Returns one row per method, in request order; each row is the
    (comp, lo, fms) of the method's explanations at its granularity. The
    corpus's artifacts are computed once and shared by every method, so
    a row does not depend on which other methods are requested or in what
    order. cidr and cidr-no-cig refine through map_refined, one refine
    call per group; cidr-no-r makes one cidr_without_refinement call.
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

    corpus = CorpusArtifacts(model, instances, config, any(_TABLE[m].reads_pairs for m in methods))
    rows: list[MetricsRow] = []
    for name in methods:
        method = _TABLE[name]
        explanations = method.produce(corpus)
        comp, lo, fms = _score(model, instances, explanations, method.granularity, config.t)
        rows.append(
            MetricsRow(method=name, lo=lo, comp=comp, fms=fms, n=len(instances), seed=config.seed)
        )
    return rows

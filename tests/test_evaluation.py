"""Method comparison harness: shared caches, baselines, row shapes."""

from __future__ import annotations

import importlib.util
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import explained_class, predicted_pair_map
from metrics_oracle import top_by_score
from minfeat import pipeline
from minfeat.corpus import tokenize
from minfeat.errors import ConfigError, InputError
from minfeat.evaluation import (
    _RANDOM_STREAM,
    _TABLE,
    METHODS,
    CorpusArtifacts,
    _random_words,
    _ranked_pairs,
    _word_budget,
    evaluate_methods,
    gradient_input_scores,
    map_refined,
    parallel_map,
    single_instance_metrics,
)
from minfeat.metrics import _class_probabilities, _k_for, comprehensiveness, fms_pairs, log_odds
from minfeat.model import Instance, Model, Vocabulary, instance_from_words
from minfeat.pipeline import CidrConfig, cidr_without_refinement, refine

FAST = CidrConfig(n_iter=3, steps=10)


@pytest.fixture(scope="module")
def tracer():
    """perfbench's tracer module, loaded from its file as the benchmark
    contract tests load it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestParallelMap:
    def test_preserves_order(self):
        assert parallel_map(lambda x: x * x, range(20)) == [x * x for x in range(20)]

    def test_empty(self):
        assert parallel_map(str, []) == []


class TestMapRefined:
    def test_one_call_per_group_slice(self, toy_model, toy_instances, monkeypatch):
        maps = [predicted_pair_map(toy_model, inst, FAST) for inst in toy_instances[:6]]
        monkeypatch.setattr(pipeline, "GROUP_CELLS", 1)  # each record with pairs a group of its own
        parts = []
        mapped = map_refined(lambda part, sets: parts.append(part) or [mfs.pairs for mfs in sets], maps, FAST)
        assert parts == pipeline.group_slices(maps, FAST.n_iter) and len(parts) > 1
        assert mapped == [mfs.pairs for mfs in refine(maps, FAST)]


class TestGradientInputScores:
    def test_matches_manual_inner_product(self, toy_model, toy_instances):
        inst = toy_instances[0]
        target = explained_class(toy_model, inst)
        scores = gradient_input_scores(toy_model, inst, target)
        grads = toy_model.input_gradient(inst.embeddings, target)
        manual = np.array([float(inst.embeddings[i] @ grads[i]) for i in range(len(inst))])
        assert np.allclose(scores, manual, atol=1e-15)


class TestWordBudget:
    def test_twice_the_truncation_budget(self):
        assert _word_budget(10) == 2
        assert _word_budget(30) == 6
        assert _word_budget(5) == 2  # 2 * max(1, 0)
        assert _word_budget(1) == 1  # clamped to the token count


class TestRandomWords:
    def test_deterministic_per_seed_and_index(self):
        assert _random_words(12, 4, seed=3, index=7) == _random_words(12, 4, seed=3, index=7)

    def test_independent_across_indices(self):
        assert _random_words(12, 4, seed=3, index=0) != _random_words(12, 4, seed=3, index=1)

    def test_size_and_range(self):
        words = _random_words(9, 5, seed=0, index=0)
        assert len(words) == 5
        assert all(0 <= e < 9 for e in words)
        assert len(set(words)) == 5

    def test_zero_size_empty(self):
        assert _random_words(9, 0, seed=0, index=0) == ()


def _draw_rank_scores(n_tokens: int, size: int, seed: int, index: int) -> dict[int, float]:
    """The random baseline's positions scored by draw rank (earlier draws
    score higher), drawn from the stream its key and counter name."""
    stream = np.random.Generator(
        np.random.Philox(counter=[0, 0, 0, index], key=np.array([seed, _RANDOM_STREAM], dtype=np.uint64))
    )
    return {int(pos): float(size - rank) for rank, pos in enumerate(stream.permutation(n_tokens)[:size])}


class TestRankOrder:
    """Each producer ranks its explanation as the reference rule ranks the
    same scores: score descending, ties to the lower element."""

    def test_every_method_on_the_bundled_corpus(self, toy_model, toy_instances):
        config = CidrConfig(n_iter=3)
        corpus = CorpusArtifacts(toy_model, toy_instances, config)
        produced = {method: _TABLE[method].produce(corpus) for method in METHODS}
        ties = 0
        for index, inst in enumerate(toy_instances):
            n = len(inst)
            pm = predicted_pair_map(toy_model, inst, config)
            target = pm.target_class
            (cidr,) = refine([pm], config)
            pair_sets = {
                "cidr": cidr,
                "cidr-no-r": cidr_without_refinement([pm], config)[0],
                "cidr-no-cig": refine([pm.with_beta(0.0)], config)[0],
            }
            for method in METHODS:
                ranked = produced[method][index]
                if method in pair_sets:
                    mfs = pair_sets[method]
                    elements = mfs.pairs
                    scores = [mfs.pair_scores.cig[p] for p in elements]
                elif method == "random":
                    drawn = _draw_rank_scores(n, len(cidr.words), config.seed, index)
                    elements = tuple(sorted(drawn))
                    scores = [drawn[e] for e in elements]
                else:
                    ranking = pm.ig if method == "ig-top2k" else gradient_input_scores(toy_model, inst, target)
                    elements = tuple(sorted(top_by_score(range(n), ranking, _word_budget(n))))
                    scores = [ranking[e] for e in elements]
                k = _k_for(n, len(ranked))
                assert sorted(ranked) == sorted(elements)
                assert ranked[:k] == top_by_score(elements, scores, k)
                ties += len(set(scores)) < len(scores)
        assert ties > 0  # the tie-break is exercised, not only the score order

    def test_bitwise_equal_cig_ranks_the_lower_pair_first(self, toy_model):
        # Positions 0 and 6 hold the same word, so pairs (0, 7) and (6, 7)
        # get bitwise-equal cig; the lower pair ranks first in either order.
        words = tokenize("with was this movie it story with masterpiece weak film the")
        inst, _ = instance_from_words(toy_model, words, 1)
        (mfs,) = refine([predicted_pair_map(toy_model, inst, FAST)], FAST)
        assert mfs.pair_scores.cig[0, 7] == mfs.pair_scores.cig[6, 7]
        for pairs in (((0, 7), (6, 7)), ((6, 7), (0, 7))):
            assert _ranked_pairs(replace(mfs, pairs=pairs)) == ((0, 7), (6, 7))


class TestEvaluateMethods:
    def test_unknown_method_lists_valid_names(self, toy_model, toy_instances):
        with pytest.raises(ConfigError) as err:
            evaluate_methods(toy_model, toy_instances[:2], ["cidr", "mystery"], FAST)
        assert "mystery" in str(err.value)
        assert "cidr" in str(err.value)

    def test_repeated_method_rejected(self, toy_model, toy_instances):
        # A repeated name would score the method twice and print two equal rows.
        with pytest.raises(ConfigError, match=r"\['cidr'\] are requested more than once"):
            evaluate_methods(toy_model, toy_instances[:2], ["cidr", "random", "cidr"], FAST)

    def test_no_methods_rejected(self, toy_model, toy_instances):
        with pytest.raises(ConfigError):
            evaluate_methods(toy_model, toy_instances[:2], [], FAST)

    def test_no_instances_rejected(self, toy_model):
        with pytest.raises(InputError):
            evaluate_methods(toy_model, [], ["cidr"], FAST)

    def test_rows_in_request_order(self, toy_model, toy_instances):
        methods = ["ig-top2k", "cidr", "random"]
        rows = evaluate_methods(toy_model, toy_instances[:4], methods, FAST)
        assert [r.method for r in rows] == methods
        for row in rows:
            assert row.n == 4
            assert row.seed == FAST.seed

    def test_all_methods_run(self, toy_model, toy_instances):
        rows = evaluate_methods(toy_model, toy_instances[:3], list(METHODS), FAST)
        assert len(rows) == len(METHODS)

    def test_two_identical_calls_give_equal_rows(self, toy_model, toy_instances):
        a = evaluate_methods(toy_model, toy_instances[:6], ["cidr", "random"], FAST)
        b = evaluate_methods(toy_model, toy_instances[:6], ["cidr", "random"], FAST)
        assert a == b

    def test_random_sets_match_cidr_word_sizes(self, toy_model, toy_instances):
        insts = toy_instances[:5]
        sizes = []
        for inst in insts:
            (mfs,) = refine([predicted_pair_map(toy_model, inst, FAST)], FAST)
            sizes.append(len(mfs.words))
        for index, inst in enumerate(insts):
            assert len(_random_words(len(inst), sizes[index], FAST.seed, index)) == sizes[index]

    def test_beta_zero_variant_uses_recombined_scores(self, toy_model, toy_instances):
        # cidr-no-cig must equal running refine with beta = 0 from scratch:
        # its row is the mean of the records' scores under those sets.
        insts = toy_instances[:6]
        (row,) = evaluate_methods(toy_model, insts, ["cidr-no-cig"], FAST)
        zero_beta = CidrConfig(n_iter=3, steps=10, beta=0.0)
        direct = refine([predicted_pair_map(toy_model, inst, zero_beta) for inst in insts], zero_beta)
        scores = single_instance_metrics(toy_model, insts, [_ranked_pairs(mfs) for mfs in direct], FAST.t)
        comp, lo, fms = (sum(column) / len(insts) for column in zip(*scores))
        assert comp > 0.0  # not every set is empty
        assert row.comp == pytest.approx(comp, abs=1e-12)
        assert row.lo == pytest.approx(lo, abs=1e-12)
        assert row.fms == pytest.approx(fms, abs=1e-12)


def _hex(triples) -> list[tuple[str, ...]]:
    """Each float of each triple as its exact hex spelling: -0.0 and 0.0 differ."""
    return [tuple(float(v).hex() for v in triple) for triple in triples]


class TestSingleInstanceMetrics:
    def test_matches_corpus_level_functions(self, toy_model, toy_instances):
        inst = toy_instances[1]
        (mfs,) = refine([predicted_pair_map(toy_model, inst, FAST)], FAST)
        scores = [mfs.pair_scores.cig[p] for p in mfs.pairs]
        ranked = top_by_score(mfs.pairs, scores, len(mfs.pairs))
        assert ranked
        [(comp, lo, fms)] = single_instance_metrics(toy_model, [inst], [ranked], FAST.t)
        assert comp == comprehensiveness(toy_model, [inst], [ranked])
        assert lo == log_odds(toy_model, [inst], [ranked])
        assert fms == fms_pairs(toy_model, [inst], [ranked], FAST.t)

    def test_a_group_scores_each_record_as_alone(self, toy_model, toy_instances, monkeypatch):
        # Refined sets of the first ten records, empty ones among them, and
        # one set of a single pair whose removal leaves the class above t.
        insts = toy_instances[:10]
        ranked = CorpusArtifacts(toy_model, insts, FAST).cidr
        ranked[2] = ((0, 1),)
        alone = [single_instance_metrics(toy_model, [i], [pairs], FAST.t)[0] for i, pairs in zip(insts, ranked)]
        calls = []
        score = Model.removal_probabilities
        monkeypatch.setattr(Model, "removal_probabilities", lambda *args: calls.append(1) or score(*args))
        group = single_instance_metrics(toy_model, insts, ranked, FAST.t)
        assert len(calls) == 3  # one top-K removal, one essence, one restoration
        assert _hex(group) == _hex(alone)
        # The cases the group must hold: an empty set, a set that fails
        # essence and one that passes minimality.
        essence = _class_probabilities(toy_model, [insts[2]], [np.isin(np.arange(len(insts[2])), [0, 1])[None]])
        assert essence[0][1] > FAST.t and group[2][2] == 0.0
        assert () in ranked and group[ranked.index(())] == (0.0, 0.0, 0.0)
        assert 1.0 in [fms for _, _, fms in group]

    def test_means_are_the_metric_functions(self, toy_model, toy_instances):
        # Summed left to right from 0.0, the per-record scores give the
        # corpus-level functions' values bit for bit.
        insts = toy_instances[:12]
        ranked = CorpusArtifacts(toy_model, insts, FAST).cidr
        means = []
        for column in zip(*single_instance_metrics(toy_model, insts, ranked, FAST.t)):
            total = 0.0
            for value in column:
                total += value
            means.append(total / len(insts))
        expected = (
            comprehensiveness(toy_model, insts, ranked),
            log_odds(toy_model, insts, ranked),
            fms_pairs(toy_model, insts, ranked, FAST.t),
        )
        assert _hex([means]) == _hex([expected])

    def test_equals_a_one_instance_cidr_row(self, toy_model, toy_instances):
        # explain and evaluate score an explanation through the same call,
        # so the per-record triple is exactly the one-instance cidr row.
        # The first instance whose explanation passes minimality is checked,
        # whichever it is on the trained model.
        inst, row = next(
            (inst, row)
            for inst in toy_instances
            for (row,) in [evaluate_methods(toy_model, [inst], ["cidr"], FAST)]
            if row.fms == 1.0
        )
        (mfs,) = refine([predicted_pair_map(toy_model, inst, FAST)], FAST)
        [triple] = single_instance_metrics(toy_model, [inst], [_ranked_pairs(mfs)], FAST.t)
        assert triple[2] == 1.0
        assert _hex([(row.comp, row.lo, row.fms)]) == _hex([triple])


class TestRequestIndependence:
    """A method's row, and the work each record does for it, do not depend
    on which other methods are requested or in what order."""

    def test_rows_equal_alone_and_reversed(self, toy_model, toy_instances):
        insts = toy_instances[:6]
        default = {r.method: r for r in evaluate_methods(toy_model, insts, list(METHODS), FAST)}
        reverse = {r.method: r for r in evaluate_methods(toy_model, insts, list(METHODS)[::-1], FAST)}
        assert reverse == default
        for method in METHODS:
            assert evaluate_methods(toy_model, insts, [method], FAST) == [default[method]]

    @pytest.mark.parametrize(
        "methods, per_record",
        [(list(METHODS), (1, 0)), (list(METHODS)[::-1], (1, 0)),
         # ig-top2k first: a plain IG sweep made before the pair map is
         # needed would integrate the plain path twice.
         (["ig-top2k", "cidr"], (1, 0)), (["ig-top2k", "random"], (1, 0)),
         (["cidr"], (1, 0)), (["cidr-no-r"], (1, 0)), (["cidr-no-cig"], (1, 0)), (["random"], (1, 0)),
         (["ig-top2k"], (0, 1)), (["gradinput-top2k"], (0, 0))],
    )  # fmt: skip
    def test_each_record_integrates_once(self, tracer, toy_model, toy_instances, methods, per_record):
        # (cooperative_integrated_gradients, integrated_gradients) calls per
        # record; every record needs its paths, so n calls mean one each.
        insts = toy_instances[:4]
        with tracer.Tracer("requests") as trace:
            evaluate_methods(toy_model, insts, methods, FAST)
        calls = Counter(span.name for span in trace.spans)
        made = (calls["attribution.cooperative_integrated_gradients"], calls["attribution.integrated_gradients"])
        assert made == tuple(len(insts) * k for k in per_record)


class TestCorpusArtifacts:
    def test_artifacts_share_one_pair_map(self, toy_model, toy_instances):
        corpus = CorpusArtifacts(toy_model, toy_instances[:3], FAST)
        maps = corpus.pair_maps
        refined = map_refined(lambda part, sets: list(zip(range(part.start, part.stop), sets)), maps, FAST)
        for k, inst in enumerate(toy_instances[:3]):
            index, mfs = refined[k]
            assert index == k and corpus.pair_maps[k] is mfs.pair_scores
            assert corpus.cidr[k] == _ranked_pairs(mfs)
            assert corpus.ig[k] is corpus.pair_maps[k].ig
            assert corpus.targets[k] == int(np.argmax(toy_model.forward(inst.embeddings)))
            assert corpus.targets[k] == mfs.target_class

    def test_target_tie_goes_to_lower_index(self):
        # Classes 1 and 2 tie above class 0 whatever the input.
        model = Model(
            vocab=Vocabulary.build([["a"]]),
            embedding=np.zeros((2, 2)),
            w1=np.zeros((3, 2)),
            b1=np.zeros(3),
            w2=np.zeros((3, 3)),
            b2=np.array([0.0, 1.0, 1.0]),
        )
        corpus = CorpusArtifacts(model, [Instance((1,) * 5, np.zeros((5, 2)), 0)], FAST)
        (probabilities,) = corpus.probabilities
        assert probabilities[1] == probabilities[2] > probabilities[0]
        assert corpus.targets == [1]

    def test_plain_ig_equals_the_pair_maps(self, toy_model, toy_instances):
        with_pairs = CorpusArtifacts(toy_model, toy_instances[2:4], FAST)
        plain = CorpusArtifacts(toy_model, toy_instances[2:4], FAST, with_pairs=False)
        assert all(np.array_equal(a, b) for a, b in zip(plain.ig, with_pairs.ig, strict=True))
        assert "pair_maps" not in vars(plain)

"""Method comparison harness: shared caches, baselines, row shapes."""

from __future__ import annotations

import numpy as np
import pytest

from minfeat.errors import ConfigError, InputError
from minfeat.evaluation import (
    METHODS,
    _random_words,
    _word_budget,
    evaluate_methods,
    gradient_input_scores,
    parallel_map,
    single_instance_metrics,
)
from minfeat.pipeline import CidrConfig, refine

FAST = CidrConfig(n_iter=3, steps=10)


class TestParallelMap:
    def test_preserves_order(self):
        assert parallel_map(lambda x: x * x, range(20)) == [x * x for x in range(20)]

    def test_empty(self):
        assert parallel_map(str, []) == []


class TestGradientInputScores:
    def test_matches_manual_inner_product(self, toy_model, toy_instances):
        inst = toy_instances[0]
        target = toy_model.predicted_class(inst.embeddings)
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
        a = _random_words(12, 4, seed=3, index=7)
        b = _random_words(12, 4, seed=3, index=7)
        assert a.elements == b.elements
        assert a.scores == b.scores

    def test_independent_across_indices(self):
        a = _random_words(12, 4, seed=3, index=0)
        b = _random_words(12, 4, seed=3, index=1)
        assert a.elements != b.elements or a.scores != b.scores

    def test_size_and_range(self):
        rs = _random_words(9, 5, seed=0, index=0)
        assert len(rs.elements) == 5
        assert all(0 <= e < 9 for e in rs.elements)
        assert len(set(rs.elements)) == 5

    def test_zero_size_empty(self):
        rs = _random_words(9, 0, seed=0, index=0)
        assert rs.elements == ()


class TestEvaluateMethods:
    def test_unknown_method_lists_valid_names(self, toy_model, toy_instances):
        with pytest.raises(ConfigError) as err:
            evaluate_methods(toy_model, toy_instances[:2], ["cidr", "mystery"], FAST)
        assert "mystery" in str(err.value)
        assert "cidr" in str(err.value)

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
            mfs = refine(toy_model, inst, FAST)
            sizes.append(len(mfs.words))
        for index, inst in enumerate(insts):
            rs = _random_words(len(inst), sizes[index], FAST.seed, index)
            assert len(rs.elements) == sizes[index]

    def test_beta_zero_variant_uses_recombined_scores(self, toy_model, toy_instances):
        # cidr-no-cig must equal running refine with beta = 0 from scratch.
        inst = toy_instances[0]
        rows = evaluate_methods(toy_model, [inst], ["cidr-no-cig"], FAST)
        direct = refine(toy_model, inst, CidrConfig(n_iter=3, steps=10, beta=0.0))
        comp, lo, fms = single_instance_metrics(toy_model, inst, direct, FAST.t)
        assert rows[0].comp == pytest.approx(comp, abs=1e-12)
        assert rows[0].lo == pytest.approx(lo, abs=1e-12)
        assert rows[0].fms == pytest.approx(fms, abs=1e-12)


class TestSingleInstanceMetrics:
    def test_matches_corpus_level_functions(self, toy_model, toy_instances):
        from minfeat.metrics import PAIR_MODE, RemovalSet, comprehensiveness

        inst = toy_instances[0]
        mfs = refine(toy_model, inst, FAST)
        comp, lo, fms = single_instance_metrics(toy_model, inst, mfs, FAST.t)
        scores = tuple(float(mfs.pair_scores.cig[p]) for p in mfs.pairs)
        removal = [RemovalSet(mode=PAIR_MODE, elements=mfs.pairs, scores=scores)]
        assert comp == comprehensiveness(toy_model, [inst], removal)

    def test_equals_a_one_instance_cidr_row(self, toy_model, toy_instances):
        # explain and evaluate score an explanation through the same call,
        # so the per-record triple is exactly the one-instance cidr row.
        # Instance 3 has a one-pair explanation that passes minimality.
        inst = toy_instances[3]
        (row,) = evaluate_methods(toy_model, [inst], ["cidr"], FAST)
        comp, lo, fms = single_instance_metrics(toy_model, inst, refine(toy_model, inst, FAST), FAST.t)
        assert fms == 1.0
        assert (row.comp, row.lo, row.fms) == (comp, lo, fms)

"""Removal metrics against scripted probability tables.

The stubs return fixed probabilities keyed by exactly which positions
are removed, so every expected value below is hand-computable and any
deviation from the documented removal protocol trips the stub's
unscripted-pattern assertion.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import explained_class, make_random_instance, make_random_model
from minfeat import metrics
from minfeat.errors import InputError, InternalError
from minfeat.evaluation import _TABLE, METHODS, CorpusArtifacts
from minfeat.metrics import (
    MetricsRow,
    _class_probabilities,
    _k_for,
    comprehensiveness,
    fms_pairs,
    fms_words,
    log_odds,
    top_k_baseline,
)
from minfeat.model import Model
from minfeat.pipeline import CidrConfig
from metrics_oracle import comprehensiveness_per_record, fms_per_record, log_odds_per_record
from stubs import ScriptedModel, scripted_instance


class TestProtocol:
    def test_truncation_budget(self):
        assert _k_for(10, 5) == 1  # floor(0.1 * 10) = 1
        assert _k_for(30, 5) == 3
        assert _k_for(30, 2) == 2  # clamped to the set size
        assert _k_for(5, 9) == 1  # short input still removes one
        assert _k_for(200, 999) == 20

    def test_out_of_range_positions_rejected(self, toy_model, toy_instances):
        # -1 must not wrap around to the last token.
        inst = toy_instances[0]
        for pos in (len(inst), -1):
            with pytest.raises(InputError):
                fms_words(toy_model, [inst], [[pos]], t=0.5)
            with pytest.raises(InputError):
                comprehensiveness(toy_model, [inst], [(pos,)])

    def test_first_bad_position_is_named(self, toy_model, toy_instances):
        inst = toy_instances[0]
        n = len(inst)
        with pytest.raises(InputError, match=f"pad position {n + 3} out of range for length {n}"):
            fms_pairs(toy_model, [inst], [[(0, 1), (2, n + 3), (n, n + 1)]], t=0.5)
        with pytest.raises(InputError, match=f"pad position -2 out of range for length {n}"):
            fms_words(toy_model, [inst], [[1, -2, n]], t=0.5)
        with pytest.raises(InputError, match="integers"):
            fms_words(toy_model, [inst], [[1.5]], t=0.5)
        with pytest.raises(InputError, match="all be index pairs"):
            fms_pairs(toy_model, [inst], [[(0, 1), 2]], t=0.5)


class TestRemovalLayer:
    def test_every_metric_call_holds_at_least_two_rows(self, toy_model, toy_instances, monkeypatch):
        # A one-row call is a matrix-vector product, which can round apart
        # from the same row in a larger call. Restoring a set of one
        # essential word brings back the unmodified row alone, so without
        # the layer's unmodified row that call would hold one row.
        rows = []
        score = Model.removal_probabilities

        def spy(model, instances, masks):
            rows.append(sum(len(stack) for stack in masks))
            return score(model, instances, masks)

        monkeypatch.setattr(Model, "removal_probabilities", spy)
        inst, word = toy_instances[0], 6
        assert fms_words(toy_model, [inst], [[word]], t=0.5) == 1.0  # essence holds
        comprehensiveness(toy_model, [inst], [(word,)])
        log_odds(toy_model, [inst], [(word,)])
        assert rows == [2, 2, 2, 2]

    def test_one_call_site(self):
        # Every metric scores its removals through _class_probabilities.
        tree = ast.parse(Path(metrics.__file__).read_text(encoding="utf-8"))
        calls = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "removal_probabilities"
        ]
        (layer,) = [node for node in tree.body if getattr(node, "name", None) == "_class_probabilities"]
        assert len(calls) == 1 and layer.lineno <= calls[0] <= layer.end_lineno

    def test_block_equals_a_one_record_call(self):
        # Three classes, so the explained class is not always the larger of two.
        model = make_random_model(7, vocab_size=30, embed_dim=6, hidden_dim=8, num_classes=3)
        instances = [make_random_instance(model, 500 + k, length=3 + k % 9) for k in range(40)]
        rng = np.random.default_rng(7)
        removals = [rng.random((k % 5, len(inst))) < 0.4 for k, inst in enumerate(instances)]
        blocks = _class_probabilities(model, instances, removals)
        assert [len(block) for block in blocks] == [1 + len(rows) for rows in removals]
        assert len({explained_class(model, inst) for inst in instances}) == 3
        for inst, rows, block in zip(instances, removals, blocks):
            # A record without removal rows is compared in a call of two
            # rows: alone it would be a one-row call.
            alone = rows if len(rows) else np.zeros((1, len(inst)), dtype=bool)
            assert np.array_equal(block, _class_probabilities(model, [inst], [alone])[0][: len(block)])

    def test_class_is_the_explained_class(self, toy_model, toy_instances):
        removals = [np.eye(len(inst), dtype=bool)[:2] for inst in toy_instances]
        blocks = _class_probabilities(toy_model, toy_instances, removals)
        for inst, rows, block in zip(toy_instances, removals, blocks):
            stack = np.vstack([np.zeros((1, len(inst)), dtype=bool), rows])
            probs = toy_model.removal_probabilities([inst], [stack])
            assert np.array_equal(block, probs[:, explained_class(toy_model, inst)])


class TestComprehensiveness:
    def test_hand_traced_drop(self):
        model = ScriptedModel({(): (0.9, 0.1), (2, 5): (0.6, 0.4)})
        inst = scripted_instance(10)
        assert comprehensiveness(model, [inst], [((2, 5),)]) == pytest.approx(0.3, abs=1e-12)

    def test_truncates_to_top_scoring_pair(self):
        # Length 10 gives budget K=1, so only the first-ranked pair is
        # removed, whatever its position.
        model = ScriptedModel({(): (0.8, 0.2), (2, 3): (0.5, 0.5)})
        inst = scripted_instance(10)
        assert comprehensiveness(model, [inst], [((2, 3), (0, 1))]) == pytest.approx(0.3, abs=1e-12)

    def test_empty_set_contributes_zero(self):
        model = ScriptedModel({(): (0.9, 0.1), (1,): (0.4, 0.6)})
        insts = [scripted_instance(10), scripted_instance(10)]
        # (0.9 - 0.4 + 0) / 2
        assert comprehensiveness(model, insts, [(1,), ()]) == pytest.approx(0.25, abs=1e-12)

    def test_corpus_shape_validated(self):
        model = ScriptedModel({(): (0.9, 0.1)})
        with pytest.raises(InputError):
            comprehensiveness(model, [], [])
        with pytest.raises(InputError):
            comprehensiveness(model, [scripted_instance(5)], [])


class TestLogOdds:
    def test_hand_traced_log_ratio(self):
        model = ScriptedModel({(): (0.9, 0.1), (2, 5): (0.6, 0.4)})
        inst = scripted_instance(10)
        assert log_odds(model, [inst], [((2, 5),)]) == pytest.approx(-0.405465, abs=1e-6)

    def test_zero_probability_floored(self):
        model = ScriptedModel({(): (0.9, 0.1), (3,): (0.0, 1.0)})
        inst = scripted_instance(10)
        lo = log_odds(model, [inst], [(3,)])
        assert math.isfinite(lo)
        assert lo == pytest.approx(math.log(1e-12) - math.log(0.9), abs=1e-9)


class TestFmsPairs:
    def test_full_trace_passes(self):
        # FE: all four positions removed drives the probability to 0.4;
        # each pair restored alone lifts it back above 0.5.
        model = ScriptedModel(
            {
                (): (0.9, 0.1),
                (0, 1, 2, 3): (0.4, 0.6),
                (2, 3): (0.7, 0.3),  # pair (0, 1) restored
                (0, 1): (0.8, 0.2),  # pair (2, 3) restored
            }
        )
        inst = scripted_instance(10)
        assert fms_pairs(model, [inst], [[(0, 1), (2, 3)]], t=0.5) == 1.0

    def test_essence_failure_scores_zero(self):
        model = ScriptedModel({(): (0.9, 0.1), (0, 1, 2, 3): (0.6, 0.4)})
        inst = scripted_instance(10)
        assert fms_pairs(model, [inst], [[(0, 1), (2, 3)]], t=0.5) == 0.0

    def test_single_minimality_failure_scores_zero(self):
        model = ScriptedModel(
            {
                (): (0.9, 0.1),
                (0, 1, 2, 3): (0.4, 0.6),
                (2, 3): (0.7, 0.3),
                (0, 1): (0.45, 0.55),  # restoring (2, 3) is not enough
            }
        )
        inst = scripted_instance(10)
        assert fms_pairs(model, [inst], [[(0, 1), (2, 3)]], t=0.5) == 0.0

    def test_boundary_is_leq_for_essence_strict_for_minimality(self):
        # Probability exactly t passes essence but fails restoration.
        model = ScriptedModel(
            {
                (): (0.9, 0.1),
                (0, 1): (0.5, 0.5),  # essence: 0.5 <= t holds
            }
        )
        inst = scripted_instance(10)
        # Single pair: restoring it brings back the full input (0.9 > t),
        # so the score hinges on essence alone.
        assert fms_pairs(model, [inst], [[(0, 1)]], t=0.5) == 1.0
        barely = ScriptedModel(
            {
                (): (0.5, 0.5),  # restored probability not strictly above t
                (0, 1): (0.4, 0.6),
            }
        )
        assert fms_pairs(barely, [inst], [[(0, 1)]], t=0.5) == 0.0

    def test_overlapping_pairs_restore_without_shared_member(self):
        # Restoring (0, 1) keeps position 1 removed because (1, 2) still
        # owns it; the scripted table pins the exact patterns probed.
        model = ScriptedModel(
            {
                (): (0.9, 0.1),
                (0, 1, 2): (0.4, 0.6),  # essence for both pairs
                (1, 2): (0.45, 0.55),  # (0, 1) restored minus shared member
                (0, 1): (0.45, 0.55),  # (1, 2) restored minus shared member
            }
        )
        inst = scripted_instance(10)
        assert fms_pairs(model, [inst], [[(0, 1), (1, 2)]], t=0.5) == 0.0

    def test_empty_set_scores_zero(self):
        model = ScriptedModel({(): (0.9, 0.1)})
        inst = scripted_instance(10)
        assert fms_pairs(model, [inst], [[]], t=0.5) == 0.0

    def test_threshold_validated(self):
        model = ScriptedModel({(): (0.9, 0.1)})
        inst = scripted_instance(10)
        for t in (0.0, 1.0, -0.5):
            with pytest.raises(InputError):
                fms_pairs(model, [inst], [[(0, 1)]], t=t)

    def test_mean_over_instances(self):
        model = ScriptedModel(
            {
                (): (0.9, 0.1),
                (0, 1): (0.4, 0.6),
                (2, 3): (0.6, 0.4),
            }
        )
        insts = [scripted_instance(10), scripted_instance(10)]
        # First instance passes (single pair, essence holds), second fails.
        score = fms_pairs(model, insts, [[(0, 1)], [(2, 3)]], t=0.5)
        assert score == pytest.approx(0.5, abs=1e-12)


class TestFmsWords:
    def test_word_level_trace(self):
        model = ScriptedModel(
            {
                (): (0.9, 0.1),
                (1, 3): (0.3, 0.7),  # both words removed
                (3,): (0.7, 0.3),  # word 1 restored
                (1,): (0.6, 0.4),  # word 3 restored
            }
        )
        inst = scripted_instance(10)
        assert fms_words(model, [inst], [[1, 3]], t=0.5) == 1.0

    def test_one_redundant_word_fails_minimality(self):
        model = ScriptedModel(
            {
                (): (0.9, 0.1),
                (1, 3): (0.3, 0.7),
                (3,): (0.7, 0.3),
                (1,): (0.45, 0.55),  # word 3 alone does not rescue
            }
        )
        inst = scripted_instance(10)
        assert fms_words(model, [inst], [[1, 3]], t=0.5) == 0.0


def _assert_matches_per_record(model, instances, explanations, fms_of, t):
    assert comprehensiveness(model, instances, explanations) == comprehensiveness_per_record(
        model, instances, explanations
    )
    assert log_odds(model, instances, explanations) == log_odds_per_record(model, instances, explanations)
    assert fms_of(model, instances, explanations, t) == fms_per_record(model, instances, explanations, t)


class TestBatchedMatchesPerRecord:
    """Scoring a whole corpus in one call per metric gives exactly the
    per-record loop's comp, lo and fms.

    fms compares each probability with t, so it can only show a rounding
    difference that crosses t; the row-level equality is tested on
    `Model.removal_probabilities` itself."""

    def test_every_method_on_the_bundled_corpus(self, toy_model, toy_instances):
        config = CidrConfig(n_iter=3)
        corpus = CorpusArtifacts(toy_model, toy_instances, config)
        for method in METHODS:
            sets = _TABLE[method].produce(corpus)
            fms_of = fms_pairs if _TABLE[method].granularity == "pair" else fms_words
            _assert_matches_per_record(toy_model, toy_instances, sets, fms_of, config.t)

    def test_random_word_sets_on_a_random_model(self):
        # 300 random word sets: 600 before/after rows in one call, and more
        # than 500 restoration rows in another from the sets that pass
        # essence, of which some pass minimality too.
        model = make_random_model(4, vocab_size=30, embed_dim=6, hidden_dim=8)
        instances = [make_random_instance(model, 1000 + k, length=6 + k % 7) for k in range(300)]
        rng = np.random.default_rng(4)
        sets = []
        for inst in instances:
            size = int(rng.integers(1, len(inst) + 1))
            sets.append(tuple(sorted(rng.choice(len(inst), size=size, replace=False).tolist())))
        restoration_rows = 0
        for inst, words in zip(instances, sets):
            masks = np.zeros((2, len(inst)), dtype=bool)
            masks[1, list(words)] = True
            full, removed = model.removal_probabilities([inst], [masks])
            restoration_rows += len(words) * int(removed[np.argmax(full)] <= 0.5)
        assert restoration_rows > 500
        assert 0.0 < fms_words(model, instances, sets, 0.5) < 1.0
        _assert_matches_per_record(model, instances, sets, fms_words, 0.5)


class TestTopKBaseline:
    def test_selects_largest_scores(self):
        assert top_k_baseline([0.1, 0.9, 0.5, 0.7], 2) == (1, 3)
        assert top_k_baseline([0.7, 0.5, 0.1, 0.9], 3) == (3, 0, 1)  # not sorted by position

    def test_ties_prefer_lower_index(self):
        assert top_k_baseline([0.5, 0.5, 0.5], 2) == (0, 1)
        assert top_k_baseline([0.2, 0.5, 0.9, 0.5], 3) == (2, 1, 3)

    def test_k_clamped(self):
        assert top_k_baseline([1.0, 2.0], 10) == (1, 0)
        assert top_k_baseline([1.0, 2.0], 0) == ()

    def test_negative_k_rejected(self):
        with pytest.raises(InputError):
            top_k_baseline([1.0], -1)


class TestMetricsRow:
    def test_non_finite_rejected(self):
        with pytest.raises(InternalError):
            MetricsRow(method="m", lo=float("nan"), comp=0.0, fms=0.0, n=1, seed=0)
        with pytest.raises(InternalError):
            MetricsRow(method="m", lo=0.0, comp=float("inf"), fms=0.0, n=1, seed=0)

    def test_empty_aggregate_rejected(self):
        with pytest.raises(InputError):
            MetricsRow(method="m", lo=0.0, comp=0.0, fms=0.0, n=0, seed=0)

"""Path attribution: completeness, closed forms, cooperative combination."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import explained_class, make_random_instance, make_random_model, reference_pooled_gradient
from minfeat.attribution import (
    DEFAULT_STEPS,
    PairScoreMap,
    cooperative_integrated_gradients,
    integrated_gradients,
)
from minfeat.corpus import tokenize
from minfeat.errors import InputError, NumericError
from minfeat.model import ROW_BLOCK, Instance
from minfeat.pipeline import upper_bound_u1
from stubs import LinearModel, linear_instance


def padded(model, instance, positions) -> Instance:
    """Copy of the instance with the given positions re-embedded as PAD."""
    pad = model.vocab.pad_index
    embedded = [pad if k in positions else token for k, token in enumerate(instance.tokens)]
    return Instance(tokens=instance.tokens, embeddings=model.embed(embedded), label=instance.label)


def loo_integrated_gradients(
    model, instance, i: int, j: int, target_class: int, steps: int = DEFAULT_STEPS
) -> float:
    """Reference: plain score of token i on the instance with token j padded."""
    if i == j:
        raise InputError("leave-one-out requires two distinct positions")
    n = len(instance)
    if not (0 <= i < n and 0 <= j < n):
        raise InputError(f"positions ({i}, {j}) out of range for length {n}")
    return float(integrated_gradients(model, padded(model, instance, [j]), target_class, steps)[i])


def completeness_residual(model, instance, target: int, steps: int) -> float:
    ig = integrated_gradients(model, instance, target, steps=steps)
    full = model.forward(instance.embeddings)[target]
    empty = model.forward(model.baseline_embeddings(len(instance)))[target]
    return abs(float(ig.sum()) - float(full - empty))


class TestIntegratedGradients:
    def test_completeness_on_random_models(self):
        for seed in range(10):
            model = make_random_model(seed)
            inst = make_random_instance(model, seed + 50)
            target = explained_class(model, inst)
            assert completeness_residual(model, inst, target, steps=200) < 1e-3

    def test_residual_shrinks_as_steps_double(self):
        model = make_random_model(11)
        inst = make_random_instance(model, 12, length=6)
        coarse = completeness_residual(model, inst, 1, steps=25)
        fine = completeness_residual(model, inst, 1, steps=50)
        finer = completeness_residual(model, inst, 1, steps=100)
        assert fine < coarse
        assert finer < fine

    def test_quadrature_error_scales_quadratically(self):
        # Trapezoid error is O(1/steps^2); doubling steps should cut the
        # residual by roughly 4, so 3x is a safe lower bound.
        model = make_random_model(13)
        inst = make_random_instance(model, 14, length=5)
        coarse = completeness_residual(model, inst, 0, steps=20)
        fine = completeness_residual(model, inst, 0, steps=40)
        if coarse > 1e-9:  # below that, float error dominates
            assert fine < coarse / 3.0

    def test_positive_words_match_scores(self):
        # u1 sums exactly the positive-scored words, left to right in
        # token order, so it is bitwise equal to the scalar formula.
        model = make_random_model(15)
        inst = make_random_instance(model, 16)
        ig = integrated_gradients(model, inst, 0)
        assert ig.shape == (len(inst),)
        positive = [i for i in range(len(inst)) if ig[i] > 0]
        expected = 0.0
        if len(positive) > 1:
            expected = 2.0 * (len(positive) - 1) * sum(float(ig[i]) for i in positive)
        assert upper_bound_u1(ig) == expected

    def test_bad_steps_rejected(self):
        model = make_random_model(17)
        inst = make_random_instance(model, 18)
        for steps in (0, 2.5, True):
            with pytest.raises(InputError, match="steps"):
                integrated_gradients(model, inst, 0, steps=steps)
            with pytest.raises(InputError, match="steps"):
                cooperative_integrated_gradients(model, inst, 0, beta=0.5, steps=steps)

    def test_non_finite_score_raises_numeric_error(self):
        class NanGradientModel(LinearModel):
            def path_gradients(self, start, offsets, nodes, weights, target_class):
                grads = super().path_gradients(start, offsets, nodes, weights, target_class)
                grads[0, 0] = np.nan  # the one path, to the input
                return grads

        inst = linear_instance(np.ones((3, 2)))
        with pytest.raises(NumericError):
            integrated_gradients(NanGradientModel([1.0, -1.0]), inst, 1, steps=4)

    def test_linear_model_closed_form(self):
        rng = np.random.default_rng(42)
        w = rng.normal(size=4)
        model = LinearModel(w)
        x = rng.normal(size=(7, 4))
        inst = linear_instance(x)
        ig = integrated_gradients(model, inst, 1, steps=3)
        expected = x @ w / x.shape[0]
        assert np.abs(ig - expected).max() < 1e-12


def per_point_scores(model, instance, removed, target_class, steps):
    """Reference: token scores along the path to the input with "removed"
    padded out (None pads nothing), the textbook gradient at every path
    point's pooled mean (each row's share is it divided by n), summed in
    order."""
    start = model.baseline_embeddings(len(instance))
    end = np.array(instance.embeddings, copy=True)
    if removed is not None:
        end[removed] = start[removed]
    total = np.zeros(start.shape[1])
    for k in range(steps + 1):
        weight = 0.5 if k in (0, steps) else 1.0
        point = (start + (k / steps) * (end - start)).mean(axis=0)
        total += weight * reference_pooled_gradient(model, point, target_class) / len(instance)
    return ((end - start) * total / steps).sum(axis=1)


class TestTrapezoid:
    @pytest.mark.parametrize("steps", [1, 2, 50, 300])
    def test_batched_sweep_matches_per_point_loop(self, toy_model, toy_instances, steps):
        random_model = make_random_model(40)
        random_inst = make_random_instance(random_model, 41, length=7)
        for model, inst in ((toy_model, toy_instances[5]), (random_model, random_inst)):
            for target in (0, 1):
                pm = cooperative_integrated_gradients(model, inst, target, beta=0.5, steps=steps)
                reference = per_point_scores(model, inst, None, target, steps)
                assert np.abs(pm.ig - reference).max() <= 1e-13
                for j in range(len(inst)):
                    reference = per_point_scores(model, inst, j, target, steps)
                    assert np.abs(pm.loo[j] - reference).max() <= 1e-13

    def test_exact_for_constant_gradient(self):
        w = np.array([1.0, -2.0, 0.5])
        model = LinearModel(w)
        x = np.arange(12, dtype=np.float64).reshape(4, 3)
        expected = x @ w / 4.0
        for steps in (1, 2, 7):
            pm = cooperative_integrated_gradients(model, linear_instance(x), 1, beta=0.5, steps=steps)
            assert np.abs(pm.ig - expected).max() < 1e-15
            assert np.abs(pm.loo - (expected - np.diag(expected))).max() < 1e-15

    def test_endpoint_weights_are_halved(self):
        # With 1 panel the sum is (g(start) + g(end)) / 2. The PAD row is
        # zero, so the path starts at 0 and ends at the pooled input
        # (1, 1), where the gradient differs enough that weighting either
        # end 1 or 0 would miss the expected score by far.
        model = make_random_model(44, embed_dim=2, hidden_dim=2)
        model.embedding[model.vocab.pad_index] = 0.0
        g_start = reference_pooled_gradient(model, np.zeros(2), 0)
        g_end = reference_pooled_gradient(model, np.ones(2), 0)
        assert min(abs(g_start.sum()), abs(g_end.sum()), abs(g_start.sum() - g_end.sum())) > 0.01
        # Each of the 2 tokens scores (1, 1) . (g_start + g_end) / 2 / 2.
        expected = (g_start + g_end).sum() / 4.0
        ig = integrated_gradients(model, linear_instance(np.ones((2, 2))), 0, steps=1)
        assert np.abs(ig - expected).max() < 1e-15


class TestRowBlocks:
    @pytest.mark.parametrize("steps, calls", [(50, 1), (300, 3), (511, 5), (600, 7), (1600, 13)])
    def test_whole_paths_per_gradient_call(self, steps, calls):
        # n = 12 gives 13 paths of steps + 1 points: at most ROW_BLOCK
        # points of whole paths share a block (thirty 51-point paths, five
        # 301-point ones), and a path longer than ROW_BLOCK goes alone.
        model = make_random_model(50)
        inst = make_random_instance(model, 51, length=12)
        rows = []
        class_sums = model._class_sums

        def counting(pre, weights, target_class):
            rows.append(pre.shape[1] * pre.shape[2])
            return class_sums(pre, weights, target_class)

        model._class_sums = counting
        cooperative_integrated_gradients(model, inst, 0, beta=0.5, steps=steps)
        assert len(rows) == calls
        assert sum(rows) == 13 * (steps + 1)
        assert all(r % (steps + 1) == 0 and (r <= ROW_BLOCK or r == steps + 1) for r in rows)


class TestLeaveOneOut:
    def test_equals_plain_score_when_other_already_padded(self, toy_model, toy_instances):
        inst = padded(toy_model, toy_instances[0], [2])
        pm = cooperative_integrated_gradients(toy_model, inst, 1, beta=0.5)
        assert abs(pm.loo[2, 0] - pm.ig[0]) < 1e-12

    def test_removed_position_scores_zero(self):
        model = make_random_model(20)
        inst = make_random_instance(model, 21, length=5)
        pm = cooperative_integrated_gradients(model, inst, 0, beta=0.5, steps=20)
        assert (np.diag(pm.loo) == 0.0).all()

    def test_identical_positions_rejected(self):
        model = make_random_model(22)
        inst = make_random_instance(model, 23)
        with pytest.raises(InputError):
            loo_integrated_gradients(model, inst, 1, 1, 0)

    def test_out_of_range_rejected(self):
        model = make_random_model(24)
        inst = make_random_instance(model, 25, length=4)
        with pytest.raises(InputError):
            loo_integrated_gradients(model, inst, 0, 4, 0)

    def test_linear_model_loo_equals_plain(self):
        # With a linear head, removing j does not change the gradient, so
        # the leave-one-out score of i equals its plain score.
        rng = np.random.default_rng(7)
        w = rng.normal(size=3)
        model = LinearModel(w)
        inst = linear_instance(rng.normal(size=(6, 3)))
        pm = cooperative_integrated_gradients(model, inst, 1, beta=0.5, steps=2)
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert abs(pm.loo[j, i] - pm.ig[i]) < 1e-12

    def test_non_finite_on_one_path_raises_numeric_error(self):
        # The gradient is NaN only on the path that pads token 0 out, so
        # ig is finite and only the leave-one-out row 0 is not.
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        without_first = (x.sum(axis=0) - x[0]) / 3

        class OnePathNanModel(LinearModel):
            # Row p of path_gradients belongs to the path whose pooled
            # offset is offsets[p]; only the one without token 0 is NaN.
            def path_gradients(self, start, offsets, nodes, weights, target_class):
                grads = super().path_gradients(start, offsets, nodes, weights, target_class)
                grads[(offsets == without_first).all(axis=1)] = np.nan
                return grads

        model, inst = OnePathNanModel([1.0, -1.0]), linear_instance(x)
        assert np.isfinite(integrated_gradients(model, inst, 1, steps=4)).all()
        with pytest.raises(NumericError):
            cooperative_integrated_gradients(model, inst, 1, beta=0.5, steps=4)


class TestRepeatedWords:
    def test_repeated_words_tie_exactly(self, toy_model, toy_corpus, toy_instances):
        # Equal embeddings give bitwise equal scores, so tie-breaks follow
        # the documented rule (lower element first), not rounding.
        compared = 0
        for record, inst in zip(toy_corpus, toy_instances):
            words = tokenize(record.text)
            target = explained_class(toy_model, inst)
            pm = cooperative_integrated_gradients(toy_model, inst, target, beta=0.5, steps=50)
            n = len(words)
            for a in range(n):
                for b in range(a + 1, n):
                    if words[a] != words[b]:
                        continue
                    assert pm.ig[a] == pm.ig[b]
                    for k in set(range(n)) - {a, b}:
                        assert pm.loo[k, a] == pm.loo[k, b]
                        assert pm.loo[a, k] == pm.loo[b, k]
                        assert pm.cig[a, k] == pm.cig[b, k]
                        compared += 1
        assert compared > 0


class TestCooperative:
    def test_record_components_consistent(self):
        model = make_random_model(30)
        inst = make_random_instance(model, 31, length=5)
        pm = cooperative_integrated_gradients(model, inst, 0, beta=0.5)
        ig = pm.ig
        assert pm.cig.shape == pm.loo.shape == (5, 5)
        for i in range(5):
            assert pm.loo[i, i] == 0.0
            for j in range(i + 1, 5):
                loo_i, loo_j = pm.loo[j, i], pm.loo[i, j]
                assert pm.cig[i, j] == pytest.approx(ig[i] + ig[j] + 0.5 * (loo_i + loo_j), abs=1e-15)

    def test_loo_components_match_direct_calls(self):
        model = make_random_model(32)
        inst = make_random_instance(model, 33, length=4)
        pm = cooperative_integrated_gradients(model, inst, 1, beta=0.3)
        for i in range(4):
            for j in range(4):
                if i != j:
                    direct = loo_integrated_gradients(model, inst, i, j, 1)
                    assert pm.loo[j, i] == pytest.approx(direct, abs=1e-15)

    def test_ig_equals_integrated_gradients_bitwise(self):
        # The input path is row 0 of one call with the n leave-one-out
        # paths, and alone in integrated_gradients; its row must not
        # depend on the paths that share the call.
        for seed in range(40):
            model = make_random_model(seed)
            inst = make_random_instance(model, seed + 100)
            for steps in (1, 7, 50):
                pm = cooperative_integrated_gradients(model, inst, seed % 2, beta=0.5, steps=steps)
                assert np.array_equal(pm.ig, integrated_gradients(model, inst, seed % 2, steps=steps))

    def test_symmetric_lookup(self):
        model = make_random_model(34)
        inst = make_random_instance(model, 35, length=4)
        pm = cooperative_integrated_gradients(model, inst, 0, beta=0.5)
        assert np.array_equal(pm.cig, pm.cig.T)

    def test_positive_pairs_exactly_positive_cig(self):
        model = make_random_model(36)
        inst = make_random_instance(model, 37, length=6)
        pm = cooperative_integrated_gradients(model, inst, 1, beta=0.5)
        expected = tuple((i, j) for i in range(6) for j in range(i + 1, 6) if pm.cig[i, j] > 0)
        assert pm.positive_pairs == expected

    def test_single_token_instance_degenerate(self):
        model = make_random_model(38)
        inst = make_random_instance(model, 39, length=1)
        pm = cooperative_integrated_gradients(model, inst, 0, beta=0.5)
        assert pm.cig.shape == pm.loo.shape == (1, 1)
        assert pm.positive_pairs == ()

    def test_beta_out_of_range_rejected(self):
        model = make_random_model(40)
        inst = make_random_instance(model, 41)
        for beta in (-0.1, 1.1):
            with pytest.raises(InputError):
                cooperative_integrated_gradients(model, inst, 0, beta=beta)

    @given(beta=st.floats(0.0, 1.0))
    @settings(max_examples=20)
    def test_with_beta_matches_fresh_computation(self, beta):
        model = make_random_model(42)
        inst = make_random_instance(model, 43, length=4)
        base = cooperative_integrated_gradients(model, inst, 0, beta=0.5, steps=8)
        recombined = base.with_beta(beta)
        fresh = cooperative_integrated_gradients(model, inst, 0, beta=beta, steps=8)
        assert recombined.positive_pairs == fresh.positive_pairs
        for i in range(4):
            for j in range(i + 1, 4):
                assert recombined.cig[i, j] == pytest.approx(fresh.cig[i, j], abs=1e-12)

    def test_linear_model_identity(self):
        # For a linear head cig must equal (1 + beta) * (ig_i + ig_j).
        rng = np.random.default_rng(9)
        w = rng.normal(size=5)
        model = LinearModel(w)
        inst = linear_instance(rng.normal(size=(8, 5)))
        beta = 0.7
        pm = cooperative_integrated_gradients(model, inst, 1, beta=beta, steps=4)
        for i in range(8):
            for j in range(i + 1, 8):
                expected = (1 + beta) * (float(pm.ig[i]) + float(pm.ig[j]))
                assert abs(pm.cig[i, j] - expected) < 1e-10

"""Path attribution: completeness, closed forms, cooperative combination."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_instance, make_random_model
from minfeat.attribution import (
    DEFAULT_STEPS,
    PairScoreMap,
    _average_path_gradient,
    _leave_one_out_scores,
    cooperative_integrated_gradients,
    integrated_gradients,
)
from minfeat.errors import InputError
from stubs import LinearModel, linear_instance


def loo_integrated_gradients(
    model, instance, i: int, j: int, target_class: int, steps: int = DEFAULT_STEPS
) -> float:
    """Reference: attribution of token i with token j padded out of the path endpoint."""
    if i == j:
        raise InputError("leave-one-out requires two distinct positions")
    n = len(instance)
    if not (0 <= i < n and 0 <= j < n):
        raise InputError(f"positions ({i}, {j}) out of range for length {n}")
    if steps < 1:
        raise InputError("step count must be at least 1")
    return float(_leave_one_out_scores(model, instance, j, target_class, steps)[i])


def completeness_residual(model, instance, target: int, steps: int) -> float:
    att = integrated_gradients(model, instance, target, steps=steps)
    full = model.forward(instance.embeddings)[target]
    empty = model.forward(model.baseline_embeddings(len(instance)))[target]
    return abs(float(att.scores.sum()) - float(full - empty))


class TestIntegratedGradients:
    def test_completeness_on_random_models(self):
        for seed in range(10):
            model = make_random_model(seed)
            inst = make_random_instance(model, seed + 50)
            target = model.predicted_class(inst.embeddings)
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
        model = make_random_model(15)
        inst = make_random_instance(model, 16)
        att = integrated_gradients(model, inst, 0)
        expected = tuple(i for i in range(len(inst)) if att.scores[i] > 0)
        assert att.positive_words == expected

    def test_zero_steps_rejected(self):
        model = make_random_model(17)
        inst = make_random_instance(model, 18)
        with pytest.raises(InputError):
            integrated_gradients(model, inst, 0, steps=0)

    def test_linear_model_closed_form(self):
        rng = np.random.default_rng(42)
        w = rng.normal(size=4)
        model = LinearModel(w)
        x = rng.normal(size=(7, 4))
        inst = linear_instance(x)
        att = integrated_gradients(model, inst, 1, steps=3)
        expected = x @ w / x.shape[0]
        assert np.abs(att.scores - expected).max() < 1e-12


def per_point_path_gradient(model, start, end, target_class, steps):
    """Reference: one input_gradient call per path point, summed in order."""
    delta = end - start
    total = np.zeros_like(start)
    for k in range(steps + 1):
        weight = 0.5 if k in (0, steps) else 1.0
        total += weight * model.input_gradient(start + (k / steps) * delta, target_class)
    return total / steps


class TestTrapezoid:
    @pytest.mark.parametrize("steps", [1, 2, 50, 300])
    def test_batched_sweep_matches_per_point_loop(self, toy_model, toy_instances, steps):
        random_model = make_random_model(40)
        random_inst = make_random_instance(random_model, 41, length=7)
        for model, inst in ((toy_model, toy_instances[5]), (random_model, random_inst)):
            start = model.baseline_embeddings(len(inst))
            for target in (0, 1):
                batched = _average_path_gradient(model, start, inst.embeddings, target, steps)
                reference = per_point_path_gradient(model, start, inst.embeddings, target, steps)
                assert np.abs(batched - reference).max() <= 1e-13

    def test_exact_for_constant_gradient(self):
        w = np.array([1.0, -2.0, 0.5])
        model = LinearModel(w)
        start = np.zeros((4, 3))
        end = np.arange(12, dtype=np.float64).reshape(4, 3)
        for steps in (1, 2, 7):
            avg = _average_path_gradient(model, start, end, 1, steps)
            assert np.abs(avg - w / 4.0).max() < 1e-15

    def test_endpoint_weights_are_halved(self):
        # With 1 panel the average must be (g(start) + g(end)) / 2.
        class TwoPointModel:
            def input_gradient(self, emb, target):
                # One gradient per stacked point: 1 where the point sums to 0, else 3.
                emb = np.asarray(emb)
                at_zero = emb.sum(axis=(-2, -1), keepdims=True) == 0
                return np.where(at_zero, 1.0, 3.0) * np.ones_like(emb)

        avg = _average_path_gradient(TwoPointModel(), np.zeros((2, 2)), np.ones((2, 2)), 0, 1)
        assert np.abs(avg - 2.0).max() < 1e-15


class TestLeaveOneOut:
    def test_equals_plain_score_when_other_already_padded(self, toy_model, toy_instances):
        inst = toy_instances[0]
        from minfeat.model import pad_positions

        padded = pad_positions(toy_model, inst, [2])
        att = integrated_gradients(toy_model, padded, 1)
        loo = loo_integrated_gradients(toy_model, padded, 0, 2, 1)
        assert abs(loo - float(att.scores[0])) < 1e-12

    def test_removed_position_scores_zero(self):
        model = make_random_model(20)
        inst = make_random_instance(model, 21, length=5)
        for removed in range(5):
            scores = _leave_one_out_scores(model, inst, removed, 0, 20)
            assert scores[removed] == 0.0

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
        x = rng.normal(size=(6, 3))
        inst = linear_instance(x)
        att = integrated_gradients(model, inst, 1, steps=2)
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                loo = loo_integrated_gradients(model, inst, i, j, 1, steps=2)
                assert abs(loo - float(att.scores[i])) < 1e-12


class TestCooperative:
    def test_record_components_consistent(self):
        model = make_random_model(30)
        inst = make_random_instance(model, 31, length=5)
        pm = cooperative_integrated_gradients(model, inst, 0, beta=0.5)
        ig = pm.attributions.scores
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
        assert pm.degenerate
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
        att = pm.attributions
        for i in range(8):
            for j in range(i + 1, 8):
                expected = (1 + beta) * (float(att.scores[i]) + float(att.scores[j]))
                assert abs(pm.cig[i, j] - expected) < 1e-10

"""Exclusion pipeline: bounds, perturbation streams, refinement audit."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_instance, make_random_model
from refine_oracle import refine_per_iteration
from minfeat.attribution import cooperative_integrated_gradients
from minfeat.errors import ConfigError, InputError, InternalError
from minfeat.pipeline import (
    CidrConfig,
    cidr_without_refinement,
    perturbed_upper_bound,
    refine,
    sample_perturbations,
    upper_bound_u1,
    upper_bound_u2,
)


def pair_map_for(seed: int, length: int = 5, beta: float = 0.5):
    model = make_random_model(seed)
    inst = make_random_instance(model, seed + 1, length=length)
    target = model.predicted_class(inst.embeddings)
    return model, inst, cooperative_integrated_gradients(model, inst, target, beta, steps=10)


class TestCidrConfig:
    def test_defaults(self):
        cfg = CidrConfig()
        assert (cfg.beta, cfg.t, cfg.epsilon) == (0.5, 0.5, 0.5)
        assert (cfg.n_iter, cfg.steps, cfg.q, cfg.seed) == (10, 50, 3, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": -0.01},
            {"beta": 1.01},
            {"t": 0.0},
            {"t": 1.0},
            {"epsilon": 0.0},
            {"epsilon": 1.5},
            {"n_iter": 0},
            {"steps": 0},
            {"q": -1},
            {"seed": -1},
            {"seed": 2**64},
            {"seed": 1.5},
            {"q": 1.5},
            {"beta": True},
            {"n_iter": 2.5},
            {"steps": 2.5},
            {"t": "0.5"},
            {"q": 400},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ConfigError, match=field):
            CidrConfig(**kwargs)


class TestBounds:
    def test_u1_recomputed_independently(self):
        _, _, pm = pair_map_for(1, length=6)
        positive = [i for i in range(len(pm.ig)) if pm.ig[i] > 0]
        if len(positive) <= 1:
            expected = 0.0
        else:
            expected = 2.0 * (len(positive) - 1) * sum(float(pm.ig[i]) for i in positive)
        assert upper_bound_u1(pm.ig) == pytest.approx(expected, abs=1e-12)

    def test_u1_zero_for_at_most_one_positive(self):
        assert upper_bound_u1(np.array([-1.0, 2.0, -0.5])) == 0.0

    def test_u2_recomputed_independently(self):
        _, _, pm = pair_map_for(2, length=6)
        expected = pm.beta * sum(pm.loo[j, i] + pm.loo[i, j] for i, j in pm.positive_pairs)
        assert upper_bound_u2(pm) == pytest.approx(expected, abs=1e-12)

    def test_perturbed_bound_recomputed_independently(self):
        # Every row is summed left to right in pair order from 0.0, so each
        # u2' equals the scalar loop bit for bit.
        _, _, pm = pair_map_for(3, length=6)
        perturbations = sample_perturbations(pm.positive_pairs, seed=0, n_iter=4)
        bounds = perturbed_upper_bound(pm, perturbations)
        assert bounds.shape == (4,)
        for row, bound in zip(perturbations, bounds):
            total = 0.0
            for v, (i, j) in zip(row.tolist(), pm.positive_pairs):
                total += v * float(pm.loo[j, i] + pm.loo[i, j])
            assert bound == pm.beta * total
            assert perturbed_upper_bound(pm, row) == bound

    def test_perturbed_bound_missing_pair_is_internal_error(self):
        _, _, pm = pair_map_for(4, length=5)
        if not pm.positive_pairs:
            pytest.skip("no positive pairs in this draw")
        incomplete = np.full((3, len(pm.positive_pairs) - 1), 0.5)
        with pytest.raises(InternalError):
            perturbed_upper_bound(pm, incomplete)
        with pytest.raises(InternalError):
            perturbed_upper_bound(pm, incomplete[0])

    @given(seed=st.integers(0, 500), length=st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_unit_perturbations_give_u2_exactly(self, seed, length):
        # Both bounds run through one sum, and 1.0 * x == x.
        _, _, pm = pair_map_for(seed, length=length)
        ones = np.ones((2, len(pm.positive_pairs)))
        assert perturbed_upper_bound(pm, ones).tolist() == [upper_bound_u2(pm)] * 2

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25)
    def test_u2_prime_below_u2_when_premises_hold(self, seed):
        # The ordering is only guaranteed when every value is < 1 and
        # every leave-one-out sum is non-negative.
        _, _, pm = pair_map_for(seed, length=5)
        perturbations = sample_perturbations(pm.positive_pairs, seed=seed, n_iter=3)
        loo_sums = [pm.loo[j, i] + pm.loo[i, j] for i, j in pm.positive_pairs]
        if all(s >= 0 for s in loo_sums) and (perturbations < 1).all():
            assert (perturbed_upper_bound(pm, perturbations) <= upper_bound_u2(pm) + 1e-15).all()


def philox_draw(seed: int, iteration: int, index: int) -> float:
    """The draw at one index of the (seed, iteration) stream, by numpy's Generator."""
    stream = np.random.Generator(np.random.Philox(key=np.array([seed, iteration], dtype=np.uint64)))
    return float(stream.random(index + 1)[index])


class TestPerturbations:
    def test_deterministic_per_key(self):
        # Row k depends on (seed, k) alone, not on how many rows are drawn.
        pairs = [(0, 1), (0, 2), (1, 2)]
        a = sample_perturbations(pairs, seed=7, n_iter=4)
        b = sample_perturbations(pairs, seed=7, n_iter=4)
        assert a.shape == (4, 3)
        assert np.array_equal(a, b)
        assert np.array_equal(sample_perturbations(pairs, seed=7, n_iter=2), a[:2])

    def test_iteration_and_seed_change_the_draw(self):
        pairs = [(0, 1), (2, 5)]
        base = sample_perturbations(pairs, seed=7, n_iter=2)
        assert not np.array_equal(base[0], base[1])
        assert not np.array_equal(sample_perturbations(pairs, seed=8, n_iter=2)[0], base[0])

    def test_values_follow_the_given_pair_order(self):
        pairs = [(0, 1), (2, 5), (1, 3)]
        forward = sample_perturbations(pairs, seed=3, n_iter=3)
        backward = sample_perturbations(pairs[::-1], seed=3, n_iter=3)
        assert np.array_equal(backward, forward[:, ::-1])

    def test_value_independent_of_other_pairs(self):
        # Counter-based streams: a pair's value must not change when the
        # pair set around it grows.
        small = sample_perturbations([(1, 4)], seed=0, n_iter=3)
        large = sample_perturbations([(0, 1), (1, 4), (2, 3)], seed=0, n_iter=3)
        assert np.array_equal(small[:, 0], large[:, 1])

    def test_values_strictly_inside_unit_interval(self):
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        values = sample_perturbations(pairs, seed=11, n_iter=3)
        assert values.shape == (3, len(pairs))
        assert ((0.0 < values) & (values < 1.0)).all()

    def test_triangular_stream_mapping(self):
        # Row k, reproduced by hand from the (seed, k) Philox stream.
        pairs = [(2, 7), (0, 1), (4, 12)]
        values = sample_perturbations(pairs, seed=5, n_iter=3)
        for k in range(3):
            for col, (i, j) in enumerate(pairs):
                assert values[k, col] == philox_draw(5, k, j * (j - 1) // 2 + i)

    @given(
        n=st.integers(2, 64),
        data=st.data(),
        seed=st.integers(0, 2**64 - 1),
        n_iter=st.integers(1, 12),
    )
    @settings(max_examples=50, deadline=None)
    def test_value_equals_value_sampled_alone(self, n, data, seed, n_iter):
        all_pairs = [(i, j) for j in range(n) for i in range(j)]
        subset = data.draw(st.lists(st.sampled_from(all_pairs), min_size=1, unique=True))
        values = sample_perturbations(subset, seed=seed, n_iter=n_iter)
        for col, pair in enumerate(subset):
            alone = sample_perturbations([pair], seed=seed, n_iter=n_iter)
            assert np.array_equal(values[:, col], alone[:, 0])
        i, j = subset[-1]
        assert values[-1, -1] == philox_draw(seed, n_iter - 1, j * (j - 1) // 2 + i)

    def test_empty_pair_list(self):
        assert sample_perturbations([], seed=0, n_iter=3).shape == (3, 0)

    @pytest.mark.parametrize("pair", [(3, 3), (4, 2), (-1, 2)])
    def test_malformed_pair_rejected(self, pair):
        with pytest.raises(InputError, match=re.escape(str(pair))):
            sample_perturbations([(0, 1), pair], seed=0, n_iter=1)

    @pytest.mark.parametrize("pairs", [[(0, 1), (0.5, 2.7)], [(0, 1, 2)], [(0, 1, 2, 3)], [(0, 2**64)]])
    def test_non_integer_pairs_rejected(self, pairs):
        # Cast to int, (0.5, 2.7) would be read as (0, 2), and (0, 1, 2, 3)
        # as two pairs.
        with pytest.raises(InputError, match="integer"):
            sample_perturbations(pairs, seed=0, n_iter=1)

    @pytest.mark.parametrize("n_iter", [0, -1])
    def test_iteration_count_below_one_rejected(self, n_iter):
        with pytest.raises(InputError, match="n_iter"):
            sample_perturbations([(0, 1)], seed=0, n_iter=n_iter)

    def test_seeds_above_2_63_do_not_collide(self):
        # Keys are exact unsigned 64-bit words, so seeds that a float64
        # conversion would merge still draw different streams.
        pairs = [(0, 1), (2, 5)]
        high = sample_perturbations(pairs, seed=2**63, n_iter=2)
        assert not np.array_equal(high, sample_perturbations(pairs, seed=2**63 + 1, n_iter=2))
        assert high[1, 1] == philox_draw(2**63, 1, 5 * 4 // 2 + 2)


class TestRefine:
    def test_deterministic(self, toy_model, toy_instances):
        cfg = CidrConfig(n_iter=4, steps=12)
        a = refine(toy_model, toy_instances[0], cfg)
        b = refine(toy_model, toy_instances[0], cfg)
        assert a.pairs == b.pairs
        assert a.frequencies == b.frequencies
        assert (a.u1, a.u2) == (b.u1, b.u2)
        assert a.iterations == b.iterations

    def test_seed_changes_candidates(self, toy_model, toy_instances):
        a = refine(toy_model, toy_instances[0], CidrConfig(seed=0, n_iter=4, steps=12))
        b = refine(toy_model, toy_instances[0], CidrConfig(seed=99, n_iter=4, steps=12))
        assert a.u1 == b.u1  # scores do not depend on the seed
        assert [it.u2_prime for it in a.iterations] != [it.u2_prime for it in b.iterations]

    def test_feasibility_every_iteration(self, toy_model, toy_instances):
        cfg = CidrConfig(n_iter=6, steps=12)
        for inst in toy_instances[:8]:
            mfs = refine(toy_model, inst, cfg)
            for it in mfs.iterations:
                real_score = sum(mfs.pair_scores.cig[p] for p in it.excluded)
                assert real_score <= it.capacity + 1e-9
                assert it.excluded_score == pytest.approx(real_score, abs=1e-12)

    def test_retained_pairs_are_positive_and_frequent(self, toy_model, toy_instances):
        cfg = CidrConfig(n_iter=5, steps=12)
        mfs = refine(toy_model, toy_instances[1], cfg)
        for pair in mfs.pairs:
            assert mfs.pair_scores.cig[pair] > 0
            assert mfs.frequencies[pair] >= cfg.epsilon
        assert mfs.words == tuple(sorted({w for p in mfs.pairs for w in p}))

    def test_candidate_frequencies_cover_retained(self, toy_model, toy_instances):
        mfs = refine(toy_model, toy_instances[2], CidrConfig(n_iter=5, steps=12))
        for pair, freq in mfs.frequencies.items():
            assert mfs.candidate_frequencies[pair] == freq
        for freq in mfs.candidate_frequencies.values():
            assert 0.0 < freq <= 1.0

    @pytest.mark.parametrize("method", [refine, cidr_without_refinement])
    def test_single_token_instance_degenerate(self, toy_model, method):
        from minfeat.model import instance_from_words

        inst, _ = instance_from_words(toy_model, ["good"], 1)
        mfs = method(toy_model, inst, CidrConfig(n_iter=2, steps=5))
        assert mfs.degenerate
        assert mfs.pairs == ()
        assert mfs.words == ()
        assert mfs.iterations == ()
        assert (mfs.u1, mfs.u2) == (0.0, 0.0)

    def test_precomputed_pair_map_matches_internal(self, toy_model, toy_instances):
        inst = toy_instances[3]
        cfg = CidrConfig(n_iter=3, steps=12)
        target = toy_model.predicted_class(inst.embeddings)
        pm = cooperative_integrated_gradients(toy_model, inst, target, cfg.beta, cfg.steps)
        assert refine(toy_model, inst, cfg, pair_map=pm).pairs == refine(toy_model, inst, cfg).pairs

    def test_iteration_count_matches_config(self, toy_model, toy_instances):
        cfg = CidrConfig(n_iter=7, steps=12)
        mfs = refine(toy_model, toy_instances[4], cfg)
        if not mfs.degenerate:
            assert len(mfs.iterations) == 7
            assert [it.iteration for it in mfs.iterations] == list(range(7))


def bitwise(mfs) -> tuple:
    """Every fact refine returns, floats as their exact hex form."""
    iterations = tuple(
        (it.iteration, it.u2_prime.hex(), it.capacity.hex(), it.excluded, it.excluded_score.hex(),
         it.candidate)
        for it in mfs.iterations
    )
    frequencies = tuple((p, f.hex()) for p, f in mfs.frequencies.items())
    candidates = tuple((p, f.hex()) for p, f in mfs.candidate_frequencies.items())
    return (mfs.u1.hex(), mfs.u2.hex(), mfs.pairs, frequencies, candidates, mfs.words, iterations,
            mfs.target_class, mfs.degenerate)


@pytest.fixture(scope="module")
def corpus_pair_maps(toy_model, toy_instances):
    maps = []
    for inst in toy_instances:
        target = toy_model.predicted_class(inst.embeddings)
        maps.append(cooperative_integrated_gradients(toy_model, inst, target, 0.5))
    return maps


class TestAgainstPerIterationOracle:
    @pytest.mark.parametrize("q", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("n_iter", [1, 10])
    @pytest.mark.parametrize("beta", [0.5, 0.0])
    def test_batched_refine_is_bitwise_the_loop(
        self, toy_model, toy_instances, corpus_pair_maps, beta, n_iter, q
    ):
        # The bundled corpus, every record: u1, u2, pairs, frequencies and
        # each IterationRecord equal the per-iteration loop bit for bit.
        config = CidrConfig(beta=beta, n_iter=n_iter, q=q)
        solved = 0
        for inst, pm in zip(toy_instances, corpus_pair_maps):
            pm = pm.with_beta(beta)
            batched = refine(toy_model, inst, config, pm)
            assert bitwise(batched) == bitwise(refine_per_iteration(toy_model, inst, config, pm))
            solved += sum(1 for it in batched.iterations if it.excluded)
        assert solved > 0


class TestGreedyVariant:
    def test_exclusion_respects_running_bound(self, toy_model, toy_instances):
        cfg = CidrConfig(steps=12)
        mfs = cidr_without_refinement(toy_model, toy_instances[0], cfg)
        if mfs.degenerate:
            pytest.skip("degenerate draw")
        bound = mfs.u1 + mfs.u2
        it = mfs.iterations[0]
        assert it.capacity == pytest.approx(bound, abs=1e-12)
        # The greedy pass admits the top-score prefix; every admitted pair
        # was admitted while the running sum was still below the bound.
        ordered = sorted(
            ((p, mfs.pair_scores.cig[p]) for p in mfs.pair_scores.positive_pairs),
            key=lambda kv: (-kv[1], kv[0]),
        )
        running = 0.0
        expected_excluded = []
        for pair, score in ordered:
            if not running < bound:
                break
            expected_excluded.append(pair)
            running += score
        assert tuple(sorted(expected_excluded)) == it.excluded

    def test_retained_frequencies_are_one(self, toy_model, toy_instances):
        mfs = cidr_without_refinement(toy_model, toy_instances[5], CidrConfig(steps=12))
        assert all(f == 1.0 for f in mfs.frequencies.values())

    def test_single_iteration_recorded(self, toy_model, toy_instances):
        mfs = cidr_without_refinement(toy_model, toy_instances[6], CidrConfig(steps=12))
        if not mfs.degenerate:
            assert len(mfs.iterations) == 1
            assert mfs.iterations[0].u2_prime == mfs.u2

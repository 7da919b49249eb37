"""Exclusion pipeline: bounds, perturbation streams, refinement audit."""

from __future__ import annotations

import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import explained_class, make_random_instance, make_random_model, peak_bytes, predicted_pair_map
from refine_oracle import refine_per_iteration, sample_iteration
from minfeat import pipeline
from minfeat.attribution import PairScoreMap, cooperative_integrated_gradients
from minfeat.errors import ConfigError, InputError, InternalError
from minfeat.model import instance_from_words
from minfeat.pipeline import (
    CidrConfig,
    cidr_without_refinement,
    group_slices,
    perturbed_upper_bound,
    refine,
    sample_perturbations,
    upper_bound_u1,
    upper_bound_u2,
)


def excluded_pairs(mfs, k: int) -> tuple:
    """The positive pairs iteration k excluded, in pair order."""
    return tuple(p for p, out in zip(mfs.pair_scores.positive_pairs, mfs.excluded[k].tolist()) if out)


def pair_map_for(seed: int, length: int = 5, beta: float = 0.5):
    model = make_random_model(seed)
    inst = make_random_instance(model, seed + 1, length=length)
    target = explained_class(model, inst)
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
            {"n_iter": 10_001},
            {"steps": 100_001},
            {"n_iter": 10**15},
            {"steps": 10**15},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        (field,) = kwargs
        with pytest.raises(ConfigError, match=field):
            CidrConfig(**kwargs)

    def test_caps_are_inclusive_and_named(self):
        # The check runs before anything is allocated, so a value that
        # would not fit in memory costs nothing to refuse.
        config = CidrConfig(n_iter=10_000, steps=100_000)
        assert (config.n_iter, config.steps) == (10_000, 100_000)
        with pytest.raises(ConfigError, match=r"^n_iter must lie in \[1, 10000\]$"):
            CidrConfig(n_iter=10**15)
        with pytest.raises(ConfigError, match=r"^steps must lie in \[1, 100000\]$"):
            CidrConfig(steps=10**8)


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

    @pytest.mark.parametrize("seed", [2**64, -1])
    @pytest.mark.parametrize("pairs", [[(0, 1)], []])
    def test_seed_outside_64_bits_rejected(self, seed, pairs):
        with pytest.raises(InputError, match=str(seed)):
            sample_perturbations(pairs, seed=seed, n_iter=1)

    def test_top_bit_seeds_draw_apart(self):
        # Seeds are unsigned 64-bit words: 2**63 and 2**63 + 1 are two keys.
        high = sample_perturbations([(0, 1), (1, 2)], seed=2**63, n_iter=2)
        assert not np.array_equal(high, sample_perturbations([(0, 1), (1, 2)], seed=2**63 + 1, n_iter=2))

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
        # conversion would merge still draw different streams, also when
        # the second pass reads both from the kept streams.
        pairs = [(0, 1), (2, 5)]
        for _ in range(2):
            high = sample_perturbations(pairs, seed=2**63, n_iter=2)
            assert not np.array_equal(high, sample_perturbations(pairs, seed=2**63 + 1, n_iter=2))
            assert high[1, 1] == philox_draw(2**63, 1, 5 * 4 // 2 + 2)

    def test_kept_streams_extend_and_stay_exact(self):
        # A short sentence, a longer one, then the short one again: every
        # row is the fresh (seed, k) Philox draw, whatever was kept before.
        short = [(0, 1), (1, 3)]
        long = [(0, 1), (4, 30), (12, 29)]
        for pairs in (short, long, short):
            values = sample_perturbations(pairs, seed=41, n_iter=3)
            for k in range(3):
                assert values[k].tolist() == list(sample_iteration(pairs, 41, k))

    def test_writing_a_result_leaves_the_kept_streams(self):
        pairs = [(0, 1), (2, 5)]
        first = sample_perturbations(pairs, seed=43, n_iter=2)
        expected = first.copy()
        first[:] = 0.5
        assert np.array_equal(sample_perturbations(pairs, seed=43, n_iter=2), expected)
        assert np.array_equal(sample_perturbations(pairs, seed=43, n_iter=2), expected)


    def test_only_one_stream_matrix_under_the_cap_is_kept(self, monkeypatch):
        # Streams of n_iter * L > the cap are drawn for the call alone and
        # leave the kept matrix as it was; a new key replaces it.
        monkeypatch.setattr(pipeline, "_STREAM_KEPT_WORDS", 40)
        monkeypatch.setattr(pipeline, "_STREAMS", {})
        small, large = [(0, 1), (2, 4)], [(1, 2), (3, 9)]  # L = 9 and 40
        for pairs, seed, kept_seed in ((small, 47, 47), (large, 47, 47), (small, 48, 48)):
            values = sample_perturbations(pairs, seed=seed, n_iter=4)
            for k in range(4):
                assert values[k].tolist() == list(sample_iteration(pairs, seed, k))
            assert {key: kept.shape for key, kept in pipeline._STREAMS.items()} == {(kept_seed, 4): (4, 9)}


class TestRefine:
    def test_deterministic(self, toy_model, toy_instances):
        cfg = CidrConfig(n_iter=4, steps=12)
        a, b = (refine([predicted_pair_map(toy_model, toy_instances[0], cfg)], cfg)[0] for _ in range(2))
        assert a.pairs == b.pairs
        assert a.frequencies == b.frequencies
        assert (a.u1, a.u2) == (b.u1, b.u2)
        for field in ("excluded", "u2_prime", "capacities", "excluded_scores"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_seed_changes_candidates(self, toy_model, toy_instances):
        pm = predicted_pair_map(toy_model, toy_instances[0], CidrConfig(steps=12))
        a = refine([pm], CidrConfig(seed=0, n_iter=4, steps=12))[0]
        b = refine([pm], CidrConfig(seed=99, n_iter=4, steps=12))[0]
        assert a.u1 == b.u1  # scores do not depend on the seed
        assert a.u2_prime.tolist() != b.u2_prime.tolist()

    def test_feasibility_every_iteration(self, toy_model, toy_instances):
        cfg = CidrConfig(n_iter=6, steps=12)
        for inst in toy_instances[:8]:
            mfs = refine([predicted_pair_map(toy_model, inst, cfg)], cfg)[0]
            for k, (capacity, score) in enumerate(zip(mfs.capacities, mfs.excluded_scores)):
                real_score = sum(mfs.pair_scores.cig[p] for p in excluded_pairs(mfs, k))
                assert real_score <= capacity + 1e-9
                assert score == pytest.approx(real_score, abs=1e-12)

    def test_retained_pairs_are_positive_and_frequent(self, toy_model, toy_instances):
        cfg = CidrConfig(n_iter=5, steps=12)
        mfs = refine([predicted_pair_map(toy_model, toy_instances[1], cfg)], cfg)[0]
        assert len(mfs.frequencies) == len(mfs.pairs)
        for pair, frequency in zip(mfs.pairs, mfs.frequencies):
            assert mfs.pair_scores.cig[pair] > 0
            assert frequency >= cfg.epsilon
        assert mfs.words == tuple(sorted({w for p in mfs.pairs for w in p}))

    def test_frequencies_are_column_shares_of_excluded(self, toy_model, toy_instances):
        # A pair is retained exactly when the share of candidate sets that
        # keep it (its column of excluded, negated) reaches epsilon, and
        # its frequency is that share.
        cfg = CidrConfig(n_iter=5, steps=12)
        mfs = refine([predicted_pair_map(toy_model, toy_instances[2], cfg)], cfg)[0]
        shares = dict(zip(mfs.pair_scores.positive_pairs, (~mfs.excluded).mean(axis=0).tolist()))
        assert shares
        assert mfs.pairs == tuple(p for p, share in shares.items() if share >= cfg.epsilon)
        assert mfs.frequencies == tuple(shares[p] for p in mfs.pairs)
        assert all(0.0 < f <= 1.0 for f in mfs.frequencies)

    @pytest.mark.parametrize("method", [refine, cidr_without_refinement])
    def test_single_token_instance_degenerate(self, toy_model, method):
        inst, _ = instance_from_words(toy_model, ["good"], 1)
        cfg = CidrConfig(n_iter=2, steps=5)
        mfs = method([predicted_pair_map(toy_model, inst, cfg)], cfg)[0]
        assert mfs.degenerate
        assert mfs.pairs == ()
        assert mfs.words == ()
        assert mfs.excluded.shape == (0, 0)
        assert mfs.u2_prime.shape == mfs.capacities.shape == mfs.excluded_scores.shape == (0,)
        assert mfs.frequencies == ()
        assert (mfs.u1, mfs.u2) == (0.0, 0.0)

    @pytest.mark.parametrize("method", [refine, cidr_without_refinement])
    def test_no_positive_pair_with_positive_words_is_degenerate(self, toy_model, toy_instances, method):
        # Two positive words give u1 = 4, but negative leave-one-out terms
        # leave no positive pair: the record rides its group's path, alone
        # or next to a record with pairs, and still reports zero bounds.
        lonely = PairScoreMap.from_components(np.array([1.0, 1.0]), np.array([[0.0, -2.5], [-2.5, 0.0]]), 0.5, 0)
        assert lonely.positive_pairs == () and upper_bound_u1(lonely.ig) == 4.0
        cfg = CidrConfig(n_iter=3, steps=12)
        other = predicted_pair_map(toy_model, toy_instances[0], cfg)
        for maps in ([lonely], [lonely, lonely], [other, lonely]):
            mfs = method(maps, cfg)[-1]
            assert mfs.degenerate and mfs.pairs == () and mfs.frequencies == ()
            assert (mfs.u1, mfs.u2, mfs.excluded.shape, mfs.u2_prime.shape) == (0.0, 0.0, (0, 0), (0,))

    @pytest.mark.parametrize("method", [refine, cidr_without_refinement])
    def test_precomputed_pair_map_needs_no_forward(self, toy_model, toy_instances, method, monkeypatch):
        # The map carries the class it was scored for, so a map scored for
        # the other class keeps that class, and scoring the pairs needs no
        # forward pass.
        inst = toy_instances[3]
        cfg = CidrConfig(n_iter=3, steps=12)
        target = explained_class(toy_model, inst)
        forwards = []
        forward = toy_model.forward
        monkeypatch.setattr(toy_model, "forward", lambda x: forwards.append(1) or forward(x))
        for scored_for in (target, 1 - target):
            pm = cooperative_integrated_gradients(toy_model, inst, scored_for, cfg.beta, cfg.steps)
            assert method([pm], cfg)[0].target_class == scored_for
        assert forwards == []

    def test_peak_memory_at_the_n_iter_cap(self, toy_model, toy_instances):
        # The bundled corpus's largest class-1 record (21 positive pairs,
        # capacities below the weight sum) at the n_iter cap: refine peaked
        # at 12,254,618 to 12,259,704 bytes under tracemalloc, and must not
        # need more than 12.3 MB.
        cfg = CidrConfig(n_iter=10_000)
        pm = predicted_pair_map(toy_model, toy_instances[3], cfg)
        assert (pm.target_class, len(pm.positive_pairs)) == (1, 21)
        peak, (mfs,) = peak_bytes(lambda: refine([pm], cfg))
        assert 0 < mfs.excluded.sum() < mfs.excluded.size  # the capacities bind
        assert peak <= 12_300_000

    def test_peak_memory_of_a_batch_at_the_n_iter_cap(self, toy_model, toy_instances):
        # Five records (19 to 66 positive pairs) in one call at the n_iter
        # cap: refine works through them in groups of at most GROUP_CELLS
        # cells, so its peak is one group's arrays plus the results held so
        # far. The peak counts every returned (n_iter, P) exclusion matrix
        # and u2' array, 2.5 MB here. It read 19.3 MB; one group of all five
        # (GROUP_CELLS = 2**21) peaks at 33.8 MB. The bound is a constant,
        # not a multiple of the record count.
        cfg = CidrConfig(n_iter=10_000)
        maps = [predicted_pair_map(toy_model, inst, cfg) for inst in toy_instances[:5]]
        peak, results = peak_bytes(lambda: refine(maps, cfg))
        held = sum(mfs.excluded.nbytes + mfs.u2_prime.nbytes for mfs in results)
        assert held > 2_000_000
        assert peak <= 21_000_000

    def test_iteration_count_matches_config(self, toy_model, toy_instances):
        cfg = CidrConfig(n_iter=7, steps=12)
        mfs = refine([predicted_pair_map(toy_model, toy_instances[4], cfg)], cfg)[0]
        if not mfs.degenerate:
            assert mfs.excluded.shape == (7, len(mfs.pair_scores.positive_pairs))
            assert mfs.u2_prime.shape == mfs.capacities.shape == mfs.excluded_scores.shape == (7,)

    @pytest.mark.parametrize("solve", [refine, cidr_without_refinement])
    def test_each_result_owns_its_arrays(self, toy_model, toy_instances, solve):
        # No result is a view of its group's arrays, so a caller that keeps
        # one refined set does not pin the (R, n_iter) bounds of all R.
        cfg = CidrConfig(steps=12)
        results = solve([predicted_pair_map(toy_model, inst, cfg) for inst in toy_instances[:20]], cfg)
        assert sum(not mfs.degenerate for mfs in results) > 1
        assert all(mfs.u2_prime.base is None and mfs.excluded.base is None for mfs in results)


def iteration_facts(mfs) -> tuple:
    """Each iteration of refine's arrays as the oracle records it."""
    positive = mfs.pair_scores.positive_pairs
    return tuple(
        (k, u2p.hex(), capacity.hex(), excluded_pairs(mfs, k), score.hex(),
         tuple(p for p in positive if p not in excluded_pairs(mfs, k)))
        for k, (u2p, capacity, score) in enumerate(
            zip(mfs.u2_prime.tolist(), mfs.capacities.tolist(), mfs.excluded_scores.tolist())
        )
    )


def record_facts(oracle) -> tuple:
    """The same facts from the oracle's per-iteration records."""
    return tuple(
        (it.iteration, it.u2_prime.hex(), it.capacity.hex(), it.excluded, it.excluded_score.hex(),
         it.candidate)
        for it in oracle.iterations
    )


def bitwise(mfs, iterations: tuple) -> tuple:
    """Every fact refine returns, floats as their exact hex form."""
    frequencies = tuple(f.hex() for f in mfs.frequencies)
    return (mfs.u1.hex(), mfs.u2.hex(), mfs.pairs, frequencies, mfs.words, iterations,
            mfs.target_class, mfs.degenerate)


def result_facts(results) -> list:
    """bitwise() of each of refine's results."""
    return [bitwise(mfs, iteration_facts(mfs)) for mfs in results]


@pytest.fixture(scope="module")
def corpus_pair_maps(toy_model, toy_instances):
    return [predicted_pair_map(toy_model, inst, CidrConfig()) for inst in toy_instances]


@pytest.fixture(scope="module")
def mixed_pair_maps(toy_model, corpus_pair_maps):
    """The bundled corpus with one-token (degenerate) and one-pair records
    mixed in, first, inside and last."""
    one_token, one_pair = (
        predicted_pair_map(toy_model, instance_from_words(toy_model, words, 1)[0], CidrConfig())
        for words in (["good"], ["good", "great"])
    )
    assert (one_token.positive_pairs, one_pair.positive_pairs) == ((), ((0, 1),))
    maps = list(corpus_pair_maps)
    for position, extra in ((0, one_token), (1, one_pair), (90, one_token), (91, one_pair), (150, one_pair)):
        maps.insert(position, extra)
    return maps + [one_token, one_pair]


@pytest.fixture(scope="module")
def loop_facts(mixed_pair_maps):
    """The per-iteration oracle's facts of every mixed record under beta,
    n_iter and q, computed once per triple."""

    @functools.cache
    def facts(beta: float, n_iter: int, q: int) -> list:
        config = CidrConfig(n_iter=n_iter, q=q)
        oracles = (refine_per_iteration(pm.with_beta(beta), config) for pm in mixed_pair_maps)
        return [bitwise(oracle, record_facts(oracle)) for oracle in oracles]

    return facts


def splits(data, length: int) -> list[slice]:
    """Consecutive slices that cover range(length), cut where data draws."""
    cuts = sorted(data.draw(st.lists(st.integers(0, length), max_size=6)))
    return [slice(a, b) for a, b in zip([0, *cuts], [*cuts, length])]


class TestAgainstPerIterationOracle:
    @pytest.mark.parametrize("q", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("n_iter", [1, 10])
    @pytest.mark.parametrize("beta", [0.5, 0.0])
    def test_batched_refine_is_bitwise_the_loop(self, mixed_pair_maps, loop_facts, beta, n_iter, q):
        # The bundled corpus, every record refined alone: u1, u2, pairs,
        # frequencies and every iteration's u2', capacity, excluded set,
        # excluded score and candidate set equal the per-iteration loop
        # bit for bit.
        config = CidrConfig(n_iter=n_iter, q=q)
        alone = [refine([pm.with_beta(beta)], config)[0] for pm in mixed_pair_maps]
        assert result_facts(alone) == loop_facts(beta, n_iter, q)
        assert sum(int(mfs.excluded.any(axis=1).sum()) for mfs in alone) > 0


class TestBatchInvariance:
    """A record's result does not depend on the other records in its
    refine or cidr_without_refinement call, nor on how a call is grouped:
    the mixed corpus in one call, reversed, and in drawn splits."""

    @pytest.mark.parametrize("q", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("n_iter", [1, 10])
    @pytest.mark.parametrize("beta", [0.5, 0.0])
    def test_one_call_and_reversed_are_bitwise_the_loop(self, mixed_pair_maps, loop_facts, beta, n_iter, q):
        config = CidrConfig(n_iter=n_iter, q=q)
        maps = [pm.with_beta(beta) for pm in mixed_pair_maps]
        expected = loop_facts(beta, n_iter, q)
        assert result_facts(refine(maps, config)) == expected
        assert result_facts(refine(maps[::-1], config))[::-1] == expected

    @pytest.mark.parametrize("q", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("n_iter", [1, 10])
    @pytest.mark.parametrize("beta", [0.5, 0.0])
    @given(data=st.data())
    @settings(max_examples=2, deadline=None)
    def test_drawn_splits_are_bitwise_the_loop(self, mixed_pair_maps, loop_facts, beta, n_iter, q, data):
        config = CidrConfig(n_iter=n_iter, q=q)
        maps = [pm.with_beta(beta) for pm in mixed_pair_maps]
        pieces = [refine(maps[piece], config) for piece in splits(data, len(maps))]
        assert [facts for piece in pieces for facts in result_facts(piece)] == loop_facts(beta, n_iter, q)

    @pytest.mark.parametrize("budget", [1, 1_000])
    @pytest.mark.parametrize("beta", [0.5, 0.0])
    def test_groups_of_any_size_are_bitwise_the_loop(
        self, mixed_pair_maps, loop_facts, monkeypatch, beta, budget
    ):
        # One record per group, and groups of a few records, in one call.
        monkeypatch.setattr(pipeline, "GROUP_CELLS", budget)
        maps = [pm.with_beta(beta) for pm in mixed_pair_maps]
        assert result_facts(refine(maps, CidrConfig(q=3))) == loop_facts(beta, 10, 3)

    @pytest.mark.parametrize("beta", [0.5, 0.0])
    @given(data=st.data())
    @settings(max_examples=3, deadline=None)
    def test_greedy_batches_equal_one_record_calls(self, mixed_pair_maps, beta, data):
        config = CidrConfig()
        maps = [pm.with_beta(beta) for pm in mixed_pair_maps]
        expected = [result_facts(cidr_without_refinement([pm], config))[0] for pm in maps]
        assert result_facts(cidr_without_refinement(maps, config)) == expected
        assert result_facts(cidr_without_refinement(maps[::-1], config))[::-1] == expected
        pieces = [cidr_without_refinement(maps[piece], config) for piece in splits(data, len(maps))]
        assert [facts for piece in pieces for facts in result_facts(piece)] == expected

    def test_mixed_betas_in_one_call(self, mixed_pair_maps, loop_facts):
        # Each map's own beta weighs its bounds, whatever the others hold.
        betas = [(0.5, 0.0)[k % 2] for k in range(len(mixed_pair_maps))]
        maps = [pm.with_beta(beta) for pm, beta in zip(mixed_pair_maps, betas)]
        expected = [loop_facts(beta, 10, 3)[k] for k, beta in enumerate(betas)]
        assert result_facts(refine(maps, CidrConfig(q=3))) == expected

    def test_no_maps_give_no_results(self):
        assert refine([], CidrConfig()) == [] == cidr_without_refinement([], CidrConfig())

    @pytest.mark.parametrize("budget", [1, 200, 1_000, 2**18])
    @pytest.mark.parametrize("n_rows", [1, 10])
    def test_group_slices_cover_the_maps_in_bounded_groups(self, mixed_pair_maps, monkeypatch, budget, n_rows):
        monkeypatch.setattr(pipeline, "GROUP_CELLS", budget)
        parts = group_slices(mixed_pair_maps, n_rows)
        assert [k for part in parts for k in range(part.start, part.stop)] == list(range(len(mixed_pair_maps)))
        for part in parts:
            # Every map counts against the budget, one without positive pairs too.
            sizes = [len(pm.positive_pairs) for pm in mixed_pair_maps[part]]
            assert len(sizes) == 1 or len(sizes) * n_rows * max(sizes) <= budget
            # A slice is one group: called on it, group_slices returns it whole.
            assert group_slices(mixed_pair_maps[part], n_rows) == [slice(0, part.stop - part.start)]
        assert group_slices([], n_rows) == []


class TestGreedyVariant:
    def test_exclusion_respects_running_bound(self, toy_model, toy_instances):
        cfg = CidrConfig(steps=12)
        mfs = cidr_without_refinement([predicted_pair_map(toy_model, toy_instances[0], cfg)], cfg)[0]
        if mfs.degenerate:
            pytest.skip("degenerate draw")
        bound = mfs.u1 + mfs.u2
        assert mfs.capacities.tolist() == [bound]
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
        assert tuple(sorted(expected_excluded)) == excluded_pairs(mfs, 0)

    def test_retained_frequencies_are_one(self, toy_model, toy_instances):
        cfg = CidrConfig(steps=12)
        mfs = cidr_without_refinement([predicted_pair_map(toy_model, toy_instances[5], cfg)], cfg)[0]
        assert mfs.frequencies == (1.0,) * len(mfs.pairs)

    def test_single_iteration_recorded(self, toy_model, toy_instances):
        cfg = CidrConfig(steps=12)
        mfs = cidr_without_refinement([predicted_pair_map(toy_model, toy_instances[6], cfg)], cfg)[0]
        if not mfs.degenerate:
            assert mfs.excluded.shape == (1, len(mfs.pair_scores.positive_pairs))
            assert mfs.u2_prime.tolist() == [mfs.u2]

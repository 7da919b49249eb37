"""Knapsack solvers: quantization rules, DP vs exhaustive oracle, greedy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knapsack_oracle import solve_bruteforce
from minfeat.errors import ConfigError, InputError
from minfeat.knapsack import KnapsackInstance, quantize, solve_dp, solve_greedy


def random_integer_instance(rng: np.random.Generator, max_items: int = 12) -> KnapsackInstance:
    n = int(rng.integers(0, max_items + 1))
    weights = tuple(int(w) for w in rng.integers(1, 30, size=n))
    values = tuple(float(v) for v in rng.integers(1, 50, size=n))
    capacity = int(rng.integers(0, 80))
    return KnapsackInstance(weights=weights, values=values, capacity=capacity)


def quantize_one(weights, values, capacity, digits) -> KnapsackInstance:
    """quantize on a single capacity, unpacked."""
    (instance,) = quantize(weights, [values], [capacity], digits)
    return instance


class TestQuantize:
    def test_rounds_half_away_from_zero(self):
        q = quantize_one(weights=(0.0015, 0.00249, 0.00251), values=(1.0, 1.0, 1.0), capacity=1.0, digits=3)
        assert q.items == range(3)
        assert q.weights == (2, 2, 3)  # 1.5 -> 2, 2.49 -> 2, 2.51 -> 3

    def test_capacity_is_floored(self):
        q = quantize_one(weights=(1.0,), values=(1.0,), capacity=2.999, digits=0)
        assert q.capacity == 2

    def test_tiny_weights_clamped_to_one(self):
        q = quantize_one(weights=(1e-9,), values=(1.0,), capacity=1.0, digits=3)
        assert q.weights == (1,)

    def test_one_instance_per_capacity_sharing_the_weights(self):
        weights = (0.4, 1.25)
        values = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        capacities = (1.0, 0.0, 2.5)
        batch = quantize(weights, values, capacities, 1)
        assert [b.capacity for b in batch] == [10, 0, 25]
        assert all(b.weights is batch[0].weights for b in batch)
        for row, capacity, instance in zip(values.tolist(), capacities, batch):
            assert instance == quantize_one(weights, row, capacity, 1)
        assert quantize(weights, np.empty((0, 2)), (), 1) == ()

    @pytest.mark.parametrize("digits", [0, 3, 15, 18, 19, 25, 300])
    def test_weights_exact_beyond_int64(self, digits):
        # Each weight is max(1, int(floor(w * 10**q + 0.5))) exactly, as a
        # Python int, also past 2**63 (10.0 at q = 18 is 1e19), and no
        # numpy cast warning is raised.
        weights = (10.0, 1e-3, 0.4999, 7.25, 1.0)
        q = quantize_one(weights, (1.0,) * 5, 0.0, digits)
        assert q.weights == tuple(max(1, int(np.floor(w * 10**digits + 0.5))) for w in weights)
        assert all(type(w) is int for w in q.weights)
        if digits == 18:
            assert q.weights[0] == 10**19 > 2**63

    def test_table_size_guard(self):
        # A capacity of 5e8 below the weight sum of 1e9 needs a 2 x (5e8 + 1) table.
        with pytest.raises(ConfigError):
            quantize_one(weights=(1e6,), values=(1.0,), capacity=5e5, digits=3)
        # 2.0 * 10**308 is inf as a float: a named error, not an overflow.
        with pytest.raises(ConfigError, match="inf"):
            quantize_one(weights=(3.0,), values=(1.0,), capacity=2.0, digits=308)
        with pytest.raises(ConfigError, match="quantized capacity inf"):
            quantize_one(weights=(1e-300,), values=(1.0,), capacity=2.0, digits=308)
        # The guard reads the largest capacity of the batch below the weight
        # sum; 1e12 fits every item and builds no table.
        with pytest.raises(ConfigError, match="quantized capacity 5e[+]08 needs"):
            quantize((1e6,), [[1.0]] * 3, (1.0, 5e5, 1e9), 3)
        # A weight scaled past the float range is named too.
        with pytest.raises(ConfigError, match=r"weights scaled by 10\*\*308"):
            quantize_one(weights=(3.0,), values=(1.0,), capacity=0.0, digits=308)

    def test_table_size_guard_skips_capacities_that_fit_every_item(self):
        # 1e12 and 2e8 quantized units would need more than MAX_TABLE_CELLS
        # cells, but the DP takes every item at or above the weight sum.
        for capacity in (1e9, 2e5):
            instance = quantize_one(weights=(1.0, 199.0), values=(1.0, 1.0), capacity=capacity, digits=3)
            assert instance.capacity == int(capacity * 1000)
            assert solve_dp(instance) == (0, 1)
        at_sum = quantize_one(weights=(1.0, 199.0), values=(1.0, 1.0), capacity=200.0, digits=6)
        assert at_sum.capacity == sum(at_sum.weights) == 200_000_000
        with pytest.raises(ConfigError, match="table cells"):
            quantize_one(weights=(1.0, 199.0), values=(1.0, 1.0), capacity=199.999999, digits=6)

    @pytest.mark.parametrize("digits", [-1, 309, 400])
    def test_digits_beyond_float_range_rejected(self, digits):
        # 10**309 is no finite float: an InputError naming the digits, not
        # an OverflowError. Checked once for a batch of three capacities.
        with pytest.raises(InputError, match=f"digits {digits}"):
            quantize((1.0,), [(1.0,)] * 3, (1.0, 2.0, 3.0), digits)

    def test_whole_value_matrix_checked(self):
        # The values are checked once per call, every row of them.
        values = [[0.5, 0.5], [0.5, 0.0], [0.5, 0.5]]
        with pytest.raises(InputError, match="values must be strictly positive"):
            quantize((1.0, 1.0), values, (1.0, 1.0, 1.0), 0)
        values[1][1] = float("nan")
        with pytest.raises(InputError, match="values must be strictly positive"):
            quantize((1.0, 1.0), values, (1.0, 1.0, 1.0), 0)

    def test_shared_items_checked_once_per_call(self):
        # The items' weights are shared by the batch and checked once,
        # against every row of values.
        with pytest.raises(InputError, match="strictly positive"):
            quantize((1.0, 0.0), [[1.0, 1.0]] * 3, (1.0, 2.0, 3.0), 0)
        with pytest.raises(InputError, match="one row of 3"):
            quantize((1.0, 1.0, 1.0), [[1.0, 1.0]] * 3, (1.0, 2.0, 3.0), 0)

    def test_validation(self):
        with pytest.raises(InputError):
            quantize_one(weights=(0.0,), values=(1.0,), capacity=1.0, digits=0)
        with pytest.raises(InputError):
            quantize_one(weights=(np.inf,), values=(1.0,), capacity=1.0, digits=0)
        with pytest.raises(InputError):
            quantize_one(weights=(1.0,), values=(-1.0,), capacity=1.0, digits=0)
        with pytest.raises(InputError):
            quantize_one(weights=(1.0,), values=(1.0,), capacity=-0.1, digits=0)
        with pytest.raises(InputError):
            quantize_one(weights=(1.0,), values=(1.0,), capacity=1.0, digits=-1)
        with pytest.raises(InputError):
            quantize_one(weights=(float("nan"),), values=(1.0,), capacity=1.0, digits=0)
        with pytest.raises(InputError):
            quantize_one(weights=(1.0,), values=(1.0,), capacity=float("nan"), digits=0)
        # One row of values per capacity, one value per weight.
        with pytest.raises(InputError):
            quantize((1.0,), [[1.0], [1.0]], (1.0,), 0)
        with pytest.raises(InputError):
            quantize((1.0,), [[1.0, 2.0]], (1.0,), 0)


def value_and_weight(inst: KnapsackInstance, selected: tuple) -> tuple[float, int]:
    """A selection's value and weight, summed from the instance's fields."""
    return sum(inst.values[k] for k in selected), sum(inst.weights[k] for k in selected)


class TestSolveDp:
    def test_textbook_instance(self):
        inst = KnapsackInstance(weights=(2, 3, 4, 5), values=(3.0, 4.0, 5.0, 6.0), capacity=5)
        selected = solve_dp(inst)
        assert selected == (0, 1)
        assert value_and_weight(inst, selected) == (7.0, 5)

    def test_empty_and_zero_capacity(self):
        empty = KnapsackInstance(weights=(), values=(), capacity=10)
        assert solve_dp(empty) == ()
        zero = KnapsackInstance(weights=(1,), values=(1.0,), capacity=0)
        assert solve_dp(zero) == ()

    def test_item_heavier_than_capacity_skipped(self):
        inst = KnapsackInstance(weights=(9, 1), values=(100.0, 1.0), capacity=5)
        assert solve_dp(inst) == (1,)

    def test_tie_prefers_not_selecting(self):
        # Both items alone reach value 5; the smaller membership bitmask
        # keeps the earlier item.
        inst = KnapsackInstance(weights=(3, 3), values=(5.0, 5.0), capacity=3)
        assert solve_dp(inst) == (0,)
        assert solve_bruteforce(inst) == (0,)

    def test_solution_weight_within_capacity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            inst = random_integer_instance(rng)
            selected = solve_dp(inst)
            assert value_and_weight(inst, selected)[1] <= inst.capacity
            # Selected positions come in ascending order, each once.
            assert list(selected) == sorted(set(selected))
            assert set(selected) <= set(inst.items)

    def test_matches_bruteforce_on_fixed_draws(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            inst = random_integer_instance(rng)
            assert solve_dp(inst) == solve_bruteforce(inst)

    def test_all_fit_selects_every_item(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            weights = tuple(int(w) for w in rng.integers(1, 30, size=n))
            values = tuple(float(v) for v in rng.uniform(0.01, 1.0, size=n))
            capacity = sum(weights) + int(rng.integers(0, 5))
            inst = KnapsackInstance(weights=weights, values=values, capacity=capacity)
            assert solve_dp(inst) == tuple(range(n)) == solve_bruteforce(inst)

    @given(data=st.data())
    @settings(max_examples=60)
    def test_matches_bruteforce_property(self, data):
        n = data.draw(st.integers(0, 10))
        weights = tuple(data.draw(st.integers(1, 20)) for _ in range(n))
        values = tuple(float(data.draw(st.integers(1, 30))) for _ in range(n))
        capacity = data.draw(st.integers(0, 60))
        inst = KnapsackInstance(weights=weights, values=values, capacity=capacity)
        assert solve_dp(inst) == solve_bruteforce(inst)


class TestBruteforce:
    def test_refuses_large_instances(self):
        inst = KnapsackInstance(weights=(1,) * 21, values=(1.0,) * 21, capacity=5)
        with pytest.raises(InputError):
            solve_bruteforce(inst)


class TestGreedy:
    def test_orders_by_score_then_admits_while_below_bound(self):
        # 1 admitted (0 < 6), 0 admitted (5 < 6), 2 rejected (8 >= 6).
        assert solve_greedy([3.0, 5.0, 2.0], 6.0) == (1, 0)

    def test_check_precedes_addition(self):
        # The first item may overshoot the bound and is still admitted.
        assert solve_greedy([100.0], 1.0) == (0,)

    def test_stops_at_first_failure(self):
        # Once the running total reaches the bound, nothing later is
        # admitted even if it would fit.
        assert solve_greedy([10.0, 0.1], 5.0) == (0,)

    def test_nonpositive_bound_admits_nothing(self):
        assert solve_greedy([1.0], 0.0) == ()
        assert solve_greedy([1.0], -3.0) == ()

    def test_infinite_bound_admits_everything(self):
        assert solve_greedy([1.0, 2.0], np.inf) == (1, 0)

    def test_ties_fall_back_to_item_order(self):
        assert solve_greedy([1.0, 2.0, 1.0, 1.0], np.inf) == (1, 0, 2, 3)

    def test_non_finite_score_rejected(self):
        with pytest.raises(InputError):
            solve_greedy([np.nan], 1.0)
        with pytest.raises(InputError):
            solve_greedy([1.0, np.inf], 1.0)

    def test_empty_input(self):
        assert solve_greedy([], 1.0) == ()

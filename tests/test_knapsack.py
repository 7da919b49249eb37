"""Knapsack solvers: quantization rules, the batched DP against the
per-row DP and the exhaustive oracle, greedy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knapsack_oracle import (
    KnapsackInstance,
    batch_rows,
    one_row_batch,
    positions,
    solve_bruteforce,
    solve_dp_row,
)
from minfeat import knapsack
from minfeat.errors import ConfigError, InputError
from minfeat.knapsack import KnapsackBatch, quantize, solve_dp, solve_greedy


def random_integer_instance(rng: np.random.Generator, max_items: int = 12) -> KnapsackInstance:
    n = int(rng.integers(0, max_items + 1))
    weights = tuple(int(w) for w in rng.integers(1, 30, size=n))
    values = tuple(float(v) for v in rng.integers(1, 50, size=n))
    capacity = int(rng.integers(0, 80))
    return KnapsackInstance(weights=weights, values=values, capacity=capacity)


def random_batch(rng: np.random.Generator, max_items: int = 12, max_rows: int = 8) -> KnapsackBatch:
    """Shared weights, values drawn from few levels so that ties are
    common, and capacities that mix zero rows, rows that fit every item
    and rows that build a table."""
    n = int(rng.integers(0, max_items + 1))
    k = int(rng.integers(0, max_rows + 1))
    weights = tuple(int(w) for w in rng.integers(1, 30, size=n))
    values = rng.integers(1, 6, size=(k, n)).astype(np.float64) / 4.0
    total = sum(weights)
    kinds = rng.integers(0, 4, size=k)
    capacities = tuple(
        0 if kind == 0 else total + int(rng.integers(0, 3)) if kind == 1 else int(rng.integers(1, max(total, 1) + 1))
        for kind in kinds.tolist()
    )
    return KnapsackBatch(weights, values, capacities)


def solve_rows(batch: KnapsackBatch) -> list[tuple[int, ...]]:
    """The batched solver's selections, as positions per row."""
    selected = solve_dp(batch)
    assert selected.shape == batch.values.shape and selected.dtype == bool
    return [positions(row) for row in selected]


def solve_one(instance: KnapsackInstance) -> tuple[int, ...]:
    """The batched solver on the instance as a one-row batch."""
    (selection,) = solve_rows(one_row_batch(instance))
    return selection


def quantize_batch(weights, values, capacities, digits) -> KnapsackBatch:
    """quantize on one entry, as its one batch."""
    (batch,) = quantize([weights], [values], [capacities], digits)
    return batch


def quantize_one(weights, values, capacity, digits) -> KnapsackInstance:
    """quantize on a single capacity, as its one row."""
    (instance,) = batch_rows(quantize_batch(weights, [values], [capacity], digits))
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
        # One batch: the integer weights once, the value matrix as given,
        # one capacity per row.
        weights = (0.4, 1.25)
        values = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        capacities = (1.0, 0.0, 2.5)
        batch = quantize_batch(weights, values, capacities, 1)
        assert batch.weights == (4, 13)
        assert batch.capacities == (10, 0, 25)
        assert all(type(c) is int for c in batch.capacities)
        assert batch.values.dtype == np.float64 and (batch.values == values).all()
        assert batch.items == range(2)
        assert batch.capacity == 25
        for row, capacity, instance in zip(values.tolist(), capacities, batch_rows(batch)):
            assert instance == quantize_one(weights, row, capacity, 1)
        empty = quantize_batch(weights, np.empty((0, 2)), (), 1)
        assert empty.capacities == () and empty.values.shape == (0, 2) and empty.capacity == 0
        assert solve_dp(empty).shape == (0, 2)

    def test_one_call_builds_each_entry_as_alone(self):
        # Many records' batches in one call: each equals its own call,
        # whatever entries share it, the empty batch included.
        rng = np.random.default_rng(11)
        entries = []
        for _ in range(30):
            n, k = int(rng.integers(1, 9)), int(rng.integers(0, 5))
            weights = tuple(rng.uniform(0.001, 2.0, size=n).tolist())
            capacities = tuple(rng.uniform(0.0, 6.0, size=k).tolist())
            entries.append((weights, rng.uniform(0.01, 1.0, size=(k, n)), capacities))
        together = quantize(*map(list, zip(*entries)), 3)
        assert len(together) == len(entries)
        for batch, entry in zip(together, entries):
            alone = quantize_batch(*entry, 3)
            assert (batch.weights, batch.capacities) == (alone.weights, alone.capacities)
            assert np.array_equal(batch.values, alone.values)
        assert quantize([], [], [], 3) == []

    def test_one_call_checks_every_entry(self):
        good = ((1.0, 2.0), [[0.5, 0.5]], (1.0,))
        with pytest.raises(InputError, match="values must be strictly positive"):
            quantize([good[0], (1.0,)], [good[1], [[0.0]]], [good[2], (1.0,)], 0)
        with pytest.raises(InputError, match="weights must be finite"):
            quantize([good[0], (np.nan,)], [good[1], [[0.5]]], [good[2], (1.0,)], 0)
        with pytest.raises(InputError, match="capacity must be non-negative"):
            quantize([good[0], (1.0,)], [good[1], [[0.5]]], [good[2], (-1.0,)], 0)
        with pytest.raises(InputError, match="one row of 1"):
            quantize([good[0], (1.0,)], [good[1], [[0.5, 0.5]]], [good[2], (1.0,)], 0)
        with pytest.raises(InputError, match="must pair up"):
            quantize([good[0]], [good[1], good[1]], [good[2]], 0)
        # The cell guard names the first entry in order that exceeds it.
        with pytest.raises(ConfigError, match="quantized capacity 3e[+]08 needs"):
            quantize([(1e6,), (1e6,), (1e6,)], [[[1.0]]] * 3, [(1.0,), (3e5,), (4e5,)], 3)
        # The cell guard and the weight overflow check run entry by entry:
        # the first entry in order that fails either is named.
        tall, overflowing = ((1.0,), [[1.0]], (0.5,)), ((1e10,), [[1.0]], (0.5,))
        with pytest.raises(ConfigError, match="quantized capacity 5e[+]299 needs"):
            quantize(*zip(tall, overflowing), 300)
        with pytest.raises(ConfigError, match="overflow to inf"):
            quantize(*zip(overflowing, tall), 300)

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
            quantize_batch((1e6,), [[1.0]] * 3, (1.0, 5e5, 1e9), 3)
        # A weight scaled past the float range is named too.
        with pytest.raises(ConfigError, match=r"weights scaled by 10\*\*308"):
            quantize_one(weights=(3.0,), values=(1.0,), capacity=0.0, digits=308)

    def test_table_size_guard_skips_capacities_that_fit_every_item(self):
        # 1e12 and 2e8 quantized units would need more than MAX_TABLE_CELLS
        # cells, but the DP takes every item at or above the weight sum.
        for capacity in (1e9, 2e5):
            instance = quantize_one(weights=(1.0, 199.0), values=(1.0, 1.0), capacity=capacity, digits=3)
            assert instance.capacity == int(capacity * 1000)
            assert solve_one(instance) == (0, 1)
        at_sum = quantize_one(weights=(1.0, 199.0), values=(1.0, 1.0), capacity=200.0, digits=6)
        assert at_sum.capacity == sum(at_sum.weights) == 200_000_000
        with pytest.raises(ConfigError, match="table cells"):
            quantize_one(weights=(1.0, 199.0), values=(1.0, 1.0), capacity=199.999999, digits=6)

    @pytest.mark.parametrize("digits", [-1, 309, 400])
    def test_digits_beyond_float_range_rejected(self, digits):
        # 10**309 is no finite float: an InputError naming the digits, not
        # an OverflowError. Checked once for a batch of three capacities.
        with pytest.raises(InputError, match=f"digits {digits}"):
            quantize_batch((1.0,), [(1.0,)] * 3, (1.0, 2.0, 3.0), digits)

    def test_whole_value_matrix_checked(self):
        # The values are checked once per call, every row of them.
        values = [[0.5, 0.5], [0.5, 0.0], [0.5, 0.5]]
        with pytest.raises(InputError, match="values must be strictly positive"):
            quantize_batch((1.0, 1.0), values, (1.0, 1.0, 1.0), 0)
        values[1][1] = float("nan")
        with pytest.raises(InputError, match="values must be strictly positive"):
            quantize_batch((1.0, 1.0), values, (1.0, 1.0, 1.0), 0)

    def test_shared_items_checked_once_per_call(self):
        # The items' weights are shared by the batch and checked once,
        # against every row of values.
        with pytest.raises(InputError, match="strictly positive"):
            quantize_batch((1.0, 0.0), [[1.0, 1.0]] * 3, (1.0, 2.0, 3.0), 0)
        with pytest.raises(InputError, match="one row of 3"):
            quantize_batch((1.0, 1.0, 1.0), [[1.0, 1.0]] * 3, (1.0, 2.0, 3.0), 0)

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
            quantize_batch((1.0,), [[1.0], [1.0]], (1.0,), 0)
        with pytest.raises(InputError):
            quantize_batch((1.0,), [[1.0, 2.0]], (1.0,), 0)


def value_and_weight(inst: KnapsackInstance, selected: tuple) -> tuple[float, int]:
    """A selection's value and weight, summed from the instance's fields."""
    return sum(inst.values[k] for k in selected), sum(inst.weights[k] for k in selected)


class TestSolveDp:
    def test_textbook_instance(self):
        inst = KnapsackInstance(weights=(2, 3, 4, 5), values=(3.0, 4.0, 5.0, 6.0), capacity=5)
        selected = solve_one(inst)
        assert selected == (0, 1)
        assert value_and_weight(inst, selected) == (7.0, 5)

    def test_empty_and_zero_capacity(self):
        empty = KnapsackInstance(weights=(), values=(), capacity=10)
        assert solve_one(empty) == ()
        zero = KnapsackInstance(weights=(1,), values=(1.0,), capacity=0)
        assert solve_one(zero) == ()

    def test_item_heavier_than_capacity_skipped(self):
        inst = KnapsackInstance(weights=(9, 1), values=(100.0, 1.0), capacity=5)
        assert solve_one(inst) == (1,)

    def test_tie_prefers_not_selecting(self):
        # Both items alone reach value 5; the smaller membership bitmask
        # keeps the earlier item.
        inst = KnapsackInstance(weights=(3, 3), values=(5.0, 5.0), capacity=3)
        assert solve_one(inst) == (0,)
        assert solve_bruteforce(inst) == (0,)

    def test_solution_weight_within_capacity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            inst = random_integer_instance(rng)
            selected = solve_one(inst)
            assert value_and_weight(inst, selected)[1] <= inst.capacity
            # Selected positions come in ascending order, each once.
            assert list(selected) == sorted(set(selected))
            assert set(selected) <= set(inst.items)

    def test_matches_bruteforce_on_fixed_draws(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            inst = random_integer_instance(rng)
            assert solve_one(inst) == solve_bruteforce(inst)

    def test_all_fit_selects_every_item(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            weights = tuple(int(w) for w in rng.integers(1, 30, size=n))
            values = tuple(float(v) for v in rng.uniform(0.01, 1.0, size=n))
            capacity = sum(weights) + int(rng.integers(0, 5))
            inst = KnapsackInstance(weights=weights, values=values, capacity=capacity)
            assert solve_one(inst) == tuple(range(n)) == solve_bruteforce(inst)

    @given(data=st.data())
    @settings(max_examples=60)
    def test_matches_bruteforce_property(self, data):
        n = data.draw(st.integers(0, 10))
        weights = tuple(data.draw(st.integers(1, 20)) for _ in range(n))
        values = tuple(float(data.draw(st.integers(1, 30))) for _ in range(n))
        capacity = data.draw(st.integers(0, 60))
        inst = KnapsackInstance(weights=weights, values=values, capacity=capacity)
        assert solve_one(inst) == solve_bruteforce(inst)


class TestBatchedSolver:
    """solve_dp on many rows at once equals the per-row DP on each row."""

    def test_random_batches_match_the_per_row_dp_and_bruteforce(self):
        # Ties (values on a grid of quarters), zero rows, rows that fit
        # every item, no rows and no items all occur in these draws.
        rng = np.random.default_rng(32)
        kinds = set()
        for _ in range(300):
            batch = random_batch(rng)
            total = sum(batch.weights)
            kinds |= {0 if c == 0 else 1 if c >= total else 2 for c in batch.capacities}
            kinds |= {"no rows"} if not batch.capacities else set()
            rows = batch_rows(batch)
            assert solve_rows(batch) == [solve_dp_row(r) for r in rows] == [solve_bruteforce(r) for r in rows]
        assert kinds == {0, 1, 2, "no rows"}

    def test_twenty_items_match_bruteforce(self):
        rng = np.random.default_rng(20)
        weights = tuple(int(w) for w in rng.integers(1, 9, size=20))
        values = rng.integers(1, 4, size=(6, 20)).astype(np.float64)
        batch = KnapsackBatch(weights, values, (1, 7, 19, 33, sum(weights) - 1, sum(weights)))
        assert solve_rows(batch) == [solve_bruteforce(r) for r in batch_rows(batch)]

    @given(data=st.data())
    @settings(max_examples=60)
    def test_matches_per_row_dp_property(self, data):
        n = data.draw(st.integers(0, 10))
        k = data.draw(st.integers(0, 6))
        weights = tuple(data.draw(st.integers(1, 20)) for _ in range(n))
        values = np.array([[float(data.draw(st.integers(1, 4))) for _ in range(n)] for _ in range(k)])
        capacities = tuple(data.draw(st.integers(0, 2 * sum(weights) + 1)) for _ in range(k))
        batch = KnapsackBatch(weights, values.reshape(k, n), capacities)
        assert solve_rows(batch) == [solve_dp_row(r) for r in batch_rows(batch)]

    def test_capacities_and_weights_beyond_int64(self):
        # A capacity past 2**63 that fits every item takes them all; a
        # weight past 2**63 lies above every table's top row and is never
        # taken, in a batch whose other rows build a table.
        huge = 10**19
        assert huge > 2**63
        weights = (3, huge, 5, 2)
        values = np.array([[1.0, 9.0, 2.0, 1.5]] * 4)
        capacities = (2**70, 7, 12, 0)
        batch = KnapsackBatch(weights, values, capacities)
        rows = solve_rows(batch)
        assert rows == [solve_dp_row(r) for r in batch_rows(batch)]
        assert rows == [(0, 1, 2, 3), (2, 3), (0, 2, 3), ()]
        # The same through quantize: 10.0 at q = 18 scales to 10**19.
        batch = quantize_batch((10.0, 1e-18, 2e-18), [[1.0, 1.0, 1.0], [2.0, 1.0, 3.0]], (1e5, 2.5e-18), 18)
        assert batch.weights == (huge, 1, 2)
        assert batch.capacities[0] > 2**63 and batch.capacities[1] == 2
        assert solve_rows(batch) == [solve_dp_row(r) for r in batch_rows(batch)] == [(0, 1, 2), (2,)]

    def test_one_row_blocks_give_the_same_selections(self, monkeypatch):
        # With a budget of one cell every block holds one row; blocks of
        # mixed capacities, sorted and cut by the budget, agree too.
        rng = np.random.default_rng(5)
        batches = [random_batch(rng, max_rows=12) for _ in range(60)]
        expected = [[solve_dp_row(r) for r in batch_rows(b)] for b in batches]
        for budget in (1, 200, knapsack.BLOCK_CELLS):
            monkeypatch.setattr(knapsack, "BLOCK_CELLS", budget)
            assert [solve_rows(b) for b in batches] == expected

    def test_block_tables_stay_within_the_budget(self, monkeypatch):
        # Each block's take table holds at most BLOCK_CELLS cells unless it
        # is one row; the blocks together cover every tabled row once.
        shapes = []
        solve_block = knapsack._solve_block

        def recording(weights, values, capacities):
            shapes.append((len(weights), int(capacities[-1]) + 1, len(capacities)))
            assert list(capacities) == sorted(capacities)
            return solve_block(weights, values, capacities)

        monkeypatch.setattr(knapsack, "_solve_block", recording)
        monkeypatch.setattr(knapsack, "BLOCK_CELLS", 400)
        weights = (4, 6, 9, 11)
        capacities = (29, 3, 12, 0, 30, 17, 8, 25, 40, 13)
        batch = KnapsackBatch(weights, np.ones((10, 4)), capacities)
        assert solve_rows(batch) == [solve_dp_row(r) for r in batch_rows(batch)]
        assert sum(rows for _, _, rows in shapes) == 7  # not the zero row, nor 30 and 40
        assert all(n * height * rows <= 400 or rows == 1 for n, height, rows in shapes)
        assert len(shapes) > 1


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
        with pytest.raises(InputError):
            solve_greedy([-np.inf, 1.0], 1.0)

    def test_empty_input(self):
        assert solve_greedy([], 1.0) == ()

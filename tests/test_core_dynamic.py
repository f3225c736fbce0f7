"""Tests for Section IV-A — dynamic insertion/deletion (Algorithms 4-6)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cost_models
from repro.core.batch_single import schedule_cost_lower_bound
from repro.core.dynamic import DynamicCostIndex, NaiveCostIndex
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II
from repro.models.task import Task


@pytest.fixture
def index(online_model):
    return DynamicCostIndex(online_model)


class TestEmptyAndSingle:
    def test_empty_cost_zero(self, index):
        assert index.total_cost == 0.0
        assert len(index) == 0
        assert index.head() is None
        assert index.execution_order() == []

    def test_single_insert_cost(self, index, online_model):
        node = index.insert(10.0)
        # one task, backward position 1 → CB*(1)·L
        expected = online_model.best_backward_cost(1) * 10.0
        assert index.total_cost == pytest.approx(expected)
        assert index.backward_position(node) == 1
        index.check_invariants()

    def test_insert_then_delete_returns_to_zero(self, index):
        node = index.insert(42.0)
        index.delete(node)
        assert index.total_cost == pytest.approx(0.0, abs=1e-9)
        assert len(index) == 0
        index.check_invariants()

    def test_rejects_nonpositive_cycles(self, index):
        with pytest.raises(ValueError):
            index.insert(0.0)


class TestAgainstClosedForm:
    def test_matches_equation_17(self, index, online_model):
        """C equals Σ CB*(k)·L^B_k, i.e. the Algorithm 2 optimal cost."""
        cycles = [17.0, 3.0, 99.0, 45.0, 45.0, 8.0]
        for c in cycles:
            index.insert(c)
        tasks = [Task(cycles=c) for c in cycles]
        assert index.total_cost == pytest.approx(
            schedule_cost_lower_bound(tasks, online_model), rel=1e-9
        )

    def test_execution_order_is_shortest_first(self, index):
        for c in (30.0, 10.0, 20.0):
            index.insert(c)
        order = [n.value for n in index.execution_order()]
        assert order == [10.0, 20.0, 30.0]
        assert index.head().value == 10.0

    def test_rate_of_follows_dominating_ranges(self, online_model):
        idx = DynamicCostIndex(online_model)
        nodes = [idx.insert(float(i)) for i in range(1, 31)]
        for node in nodes:
            kb = idx.backward_position(node)
            assert idx.rate_of(node) == idx.ranges.rate_for(kb)


class TestCascades:
    def test_insert_cascade_across_boundaries(self, batch_model):
        """Batch pricing has tight ranges ([1,2),[2,3),[3,5),[5,10),[10,∞)),
        so a burst of inserts exercises every boundary cascade."""
        idx = DynamicCostIndex(batch_model)
        naive = NaiveCostIndex(batch_model)
        for i in range(25):
            idx.insert(float(100 - i))
            naive.insert(float(100 - i))
            assert idx.total_cost == pytest.approx(naive.total_cost, rel=1e-9)
        idx.check_invariants()

    def test_delete_cascade_back_across_boundaries(self, batch_model):
        idx = DynamicCostIndex(batch_model)
        naive = NaiveCostIndex(batch_model)
        nodes = []
        for i in range(25):
            v = float(100 - i)
            nodes.append((idx.insert(v), v))
        for node, v in nodes[::2]:
            idx.delete(node)
            naive_values = [x for _, x in nodes if x != v]
            # rebuild naive from scratch for clarity
        # simpler: rebuild naive and compare end state
        survivors = [v for i, (_, v) in enumerate(nodes) if i % 2 == 1]
        for v in survivors:
            naive.insert(v)
        assert idx.total_cost == pytest.approx(naive.total_cost, rel=1e-9)
        idx.check_invariants()

    def test_insert_smallest_lands_at_tail(self, batch_model):
        idx = DynamicCostIndex(batch_model)
        for v in (50.0, 40.0, 30.0):
            idx.insert(v)
        tail = idx.insert(1.0)
        assert idx.backward_position(tail) == 4
        idx.check_invariants()

    def test_insert_largest_lands_at_head(self, batch_model):
        idx = DynamicCostIndex(batch_model)
        for v in (50.0, 40.0, 30.0):
            idx.insert(v)
        head = idx.insert(99.0)
        assert idx.backward_position(head) == 1
        idx.check_invariants()


def _state(index):
    """Everything a probe could disturb, compared bitwise."""
    return (index.total_cost, len(index), index.tree.values(), list(index._b),
            list(index._x), list(index._d), [id(n) for n in index._alpha],
            [id(n) for n in index._beta])


def _deep_index(model, n=80, seed=7):
    """A queue past several range edges (online pricing: 28, 39, 67)."""
    idx = DynamicCostIndex(model)
    rng = random.Random(seed)
    for _ in range(n):
        idx.insert(rng.uniform(1.0, 50.0))
    return idx


class TestMarginalCost:
    def test_probe_restores_state(self, index, online_model):
        for v in (10.0, 20.0, 30.0):
            index.insert(v)
        deep = _deep_index(online_model)
        for idx, probe in ((index, 15.0), (deep, 45.0), (deep, 0.5)):
            before = _state(idx)
            mc = idx.marginal_insert_cost(probe)
            assert _state(idx) == before
            assert idx.marginal_insert_cost(probe) == mc  # same float again
            assert mc > 0
            idx.check_invariants()

    def test_probe_equals_actual_insert_delta(self, index, online_model):
        for v in (10.0, 20.0, 30.0):
            index.insert(v)
        before = index.total_cost
        mc = index.marginal_insert_cost(15.0)
        index.insert(15.0)
        assert index.total_cost - before == pytest.approx(mc, rel=1e-9)

        # a probe whose cascade crosses every full range edge; one equal
        # to the last value of the first range, which ranks after it and
        # so crosses every edge but the first; one at the very end
        deep = _deep_index(online_model)
        edges = [r.hi for r in deep.ranges if r.hi is not None and r.hi <= len(deep)]
        assert len(edges) >= 3
        at_edge = deep.tree.select(edges[0] - 1).value
        assert deep.tree.count_at_least(45.0) + 1 < edges[0]
        assert deep.tree.count_at_least(at_edge) + 1 == edges[0]
        for probe in (45.0, at_edge, 0.5):
            kb = deep.tree.count_at_least(probe) + 1
            before = deep.total_cost
            mc = deep.marginal_insert_cost(probe)
            node = deep.insert(probe)
            assert deep.backward_position(node) == kb
            assert deep.total_cost - before == pytest.approx(mc, rel=1e-9)
            deep.delete(node)

    def test_matches_naive(self, online_model):
        idx = DynamicCostIndex(online_model)
        naive = NaiveCostIndex(online_model)
        for v in (5.0, 25.0, 125.0):
            idx.insert(v)
            naive.insert(v)
        for probe in (1.0, 10.0, 60.0, 300.0):
            assert idx.marginal_insert_cost(probe) == pytest.approx(
                naive.marginal_insert_cost(probe), rel=1e-9
            )


class TestFuzzAgainstNaive:
    """The headline property: incremental C == from-scratch C, always."""

    @settings(max_examples=30, deadline=None)
    @given(cost_models(min_rates=1, max_rates=6), st.data())
    def test_random_workload(self, model, data):
        idx = DynamicCostIndex(model)
        naive = NaiveCostIndex(model)
        handles = []
        n_ops = data.draw(st.integers(1, 60))
        for _ in range(n_ops):
            if handles and data.draw(st.booleans()):
                i = data.draw(st.integers(0, len(handles) - 1))
                node, v = handles.pop(i)
                idx.delete(node)
                naive.delete(v)
            else:
                v = data.draw(st.floats(0.001, 1e4))
                handles.append((idx.insert(v), v))
                naive.insert(v)
            assert idx.total_cost == pytest.approx(
                naive.total_cost, rel=1e-9, abs=1e-9
            )
        idx.check_invariants()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_long_random_run_table_ii(self, seed):
        rng = random.Random(seed)
        model = CostModel(TABLE_II, re=0.4, rt=0.1)
        idx = DynamicCostIndex(model)
        naive = NaiveCostIndex(model)
        handles = []
        for _ in range(300):
            if handles and rng.random() < 0.45:
                node, v = handles.pop(rng.randrange(len(handles)))
                idx.delete(node)
                naive.delete(v)
            else:
                v = rng.uniform(0.01, 500.0)
                handles.append((idx.insert(v), v))
                naive.insert(v)
        assert idx.total_cost == pytest.approx(naive.total_cost, rel=1e-9)
        idx.check_invariants()

    def test_duplicate_values_throughout(self, batch_model):
        idx = DynamicCostIndex(batch_model)
        naive = NaiveCostIndex(batch_model)
        nodes = [idx.insert(7.0) for _ in range(20)]
        for _ in range(20):
            naive.insert(7.0)
        assert idx.total_cost == pytest.approx(naive.total_cost, rel=1e-9)
        for node in nodes[:10]:
            idx.delete(node)
            naive.delete(7.0)
        assert idx.total_cost == pytest.approx(naive.total_cost, rel=1e-9)
        idx.check_invariants()


class TestPayloads:
    def test_payload_travels_with_node(self, index):
        t = Task(cycles=11.0, name="job")
        node = index.insert(t.cycles, payload=t)
        assert index.head().payload is t

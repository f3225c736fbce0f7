"""Correctness tests for the Algorithm 1 memo and the read-only probe.

The repo keeps one cache — the process-wide Algorithm 1 memo behind
:meth:`DominatingRanges.cached` — and prices arrivals with a read-only
marginal probe. Neither may change any observable result:

* churn through ``DynamicCostIndex`` with probes in between must match
  a fresh solver built from the surviving values;
* a probe must leave the index untouched;
* the memo must hit on equal keys, miss on different ones, and evict
  beyond capacity without ever returning a wrong table;
* Equation 27 must break ties to the lowest core index.
"""

from __future__ import annotations

import random

from repro.core.dominating import DominatingRanges, dominating_cache_stats
from repro.core.dynamic import DynamicCostIndex
from repro.core.online_lmc import LeastMarginalCostPolicy
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II
from repro.models.tolerances import AGG_ABS_TOL, REL_TOL


def _model(re: float = 0.1, rt: float = 0.4) -> CostModel:
    return CostModel(TABLE_II, re, rt)


def _agg_close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= max(AGG_ABS_TOL, REL_TOL * max(abs(a), abs(b), scale))


# ---------------------------------------------------------------------------
# probed churn vs fresh solver
# ---------------------------------------------------------------------------


def test_dynamic_churn_with_probes_matches_fresh_solver() -> None:
    rng = random.Random(314)
    probed = DynamicCostIndex(_model(), seed=5)
    live: list = []
    probe_menu = (0.5, 2.0, 7.5)

    for step in range(400):
        if rng.random() < 0.6 or not live:
            value = rng.uniform(0.1, 40.0)
            live.append((probed.insert(value), value))
        else:
            node, _ = live.pop(rng.randrange(len(live)))
            probed.delete(node)
        for cycles in probe_menu:
            probed.marginal_insert_cost(cycles)

        if step % 50 == 0 or step == 399:
            fresh = DynamicCostIndex(_model(), seed=5)
            for _, value in live:
                fresh.insert(value)
            assert len(probed) == len(fresh)
            # identical plan: same sorted values, same per-position rates
            assert probed.tree.values() == fresh.tree.values()
            n = len(fresh)
            for k in (1, max(1, n // 2), n) if n else ():
                assert probed.rate_of(probed.tree.select(k)) == fresh.rate_of(
                    fresh.tree.select(k)
                )
            assert _agg_close(
                probed.total_cost, fresh.total_cost, probed.total_cost
            )
            for cycles in probe_menu:
                assert _agg_close(
                    probed.marginal_insert_cost(cycles),
                    fresh.marginal_insert_cost(cycles),
                    probed.total_cost,
                )


def test_repeated_probe_is_bit_identical_memo_hit() -> None:
    # No probe memo any more: a repeat is a fresh read-only probe of the
    # unchanged index, and must still return the very same float.
    index = DynamicCostIndex(_model())
    for value in (3.0, 11.0, 0.7, 25.0):
        index.insert(value)
    first = index.marginal_insert_cost(4.2)
    probes = index.counters["probes"]
    again = index.marginal_insert_cost(4.2)
    assert again == first  # == on purpose: same state, same arithmetic
    assert index.counters["probes"] == probes + 1


def test_probe_does_not_mutate_or_invalidate() -> None:
    index = DynamicCostIndex(_model())
    nodes = [index.insert(v) for v in (5.0, 1.5, 9.0)]
    total = index.total_cost
    index.marginal_insert_cost(2.0)
    assert index.total_cost == total
    assert len(index) == 3
    assert index.counters["probes"] == 1
    assert index.counters["inserts"] == 3  # probes not counted as mutations
    assert index.counters["deletes"] == 0
    index.delete(nodes[0])
    assert index.counters["deletes"] == 1


# ---------------------------------------------------------------------------
# the Algorithm 1 memo
# ---------------------------------------------------------------------------


def test_ranges_cache_hits_on_equal_key_misses_on_distinct() -> None:
    base = dominating_cache_stats()
    a = DominatingRanges.cached(_model(0.31, 0.7))
    b = DominatingRanges.cached(_model(0.31, 0.7))  # distinct CostModel, same key
    c = DominatingRanges.cached(_model(0.31, 0.8))
    stats = dominating_cache_stats()
    assert a is b
    assert c is not a
    assert stats["hits"] - base["hits"] == 1
    assert stats["misses"] - base["misses"] == 2


def test_ranges_cache_eviction_never_corrupts_results() -> None:
    """Push far past capacity; every lookup must still be correct."""
    capacity = dominating_cache_stats()["capacity"]
    pricings = [(0.01 * (i + 1), 0.4) for i in range(capacity + 40)]
    for re, rt in pricings:
        model = _model(re, rt)
        cached = DominatingRanges.cached(model)
        fresh = DominatingRanges.from_cost_model(model)
        assert [(r.rate, r.lo, r.hi) for r in cached] == [
            (r.rate, r.lo, r.hi) for r in fresh
        ]
    assert dominating_cache_stats()["entries"] == capacity


# ---------------------------------------------------------------------------
# Equation 27 core choice
# ---------------------------------------------------------------------------


def test_interactive_tie_picks_lowest_core() -> None:
    policy = LeastMarginalCostPolicy([_model(0.4, 0.1)] * 4)
    assert policy.choose_core_interactive(3.0, [2, 1, 1, 1]) == 1
    assert policy.choose_core_interactive(3.0, [0, 0, 0, 0]) == 0
    assert policy.choose_core_interactive(3.0, [5, 4, 3, 3]) == 2

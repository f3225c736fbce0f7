"""Golden tests for ``repro explain`` on the paper's Table II platform.

The explanations are cross-checked against the analytic models: the
cited rate must be exactly the Algorithm 1 dominating-range rate for
the cited slot, and the cited positional cost must be exactly
``CB*(kb)`` from :meth:`~repro.core.dominating.DominatingRanges.cost`.
"""

import pytest

from repro.core.dominating import DominatingRanges
from repro.models.cost import CostModel
from repro.models.rates import TABLE_II
from repro.obs import ExplainError, RecordingTracer, explain_task, task_events
from repro.scenarios import run_traced


def _traced(name):
    tracer = RecordingTracer()
    tasks = run_traced(name, tracer, n_cores=2).tasks
    summary = {"task_ids": [t.task_id for t in tasks],
               "task_names": [t.name for t in tasks]}
    return tracer.events, summary


@pytest.fixture(scope="module")
def wbg_trace():
    return _traced("wbg")


@pytest.fixture(scope="module")
def lmc_trace():
    return _traced("lmc")


class TestBatchGolden:
    def test_every_spec_task_is_explainable(self, wbg_trace):
        events, summary = wbg_trace
        ranges = DominatingRanges.from_cost_model(CostModel(TABLE_II, 0.1, 0.4))
        for name in summary["task_names"]:
            exp = explain_task(events, name)
            assert exp.mode == "batch"
            assert exp.core in (0, 1)
            # golden cross-check against Algorithm 1 on the Table II menu
            assert exp.rate == ranges.rate_for(exp.slot)
            assert exp.positional_cost == ranges.cost(exp.slot)
            lo_rate, lo, hi = exp.dominating_range
            assert lo_rate == exp.rate
            assert lo <= exp.slot and (hi is None or exp.slot < hi)

    def test_explains_by_id_and_by_name_identically(self, wbg_trace):
        events, summary = wbg_trace
        by_name = explain_task(events, summary["task_names"][0])
        by_id = explain_task(events, summary["task_ids"][0])
        assert by_name.core == by_id.core
        assert by_name.slot == by_id.slot
        assert by_name.rate == by_id.rate

    def test_runner_up_is_costlier_or_equal(self, wbg_trace):
        events, summary = wbg_trace
        for name in summary["task_names"]:
            exp = explain_task(events, name)
            ru = exp.runner_up
            assert ru is not None
            assert ru[2] >= exp.positional_cost

    def test_render_cites_the_paper(self, wbg_trace):
        events, summary = wbg_trace
        text = explain_task(events, summary["task_names"][0]).render()
        assert "Algorithm 1 dominating range" in text
        assert "Algorithm 3" in text
        assert "Re=0.1" in text and "Rt=0.4" in text
        assert "runner-up" in text

    def test_pricing_comes_from_ranges_event(self, wbg_trace):
        events, summary = wbg_trace
        exp = explain_task(events, summary["task_names"][3])
        assert exp.pricing == (0.1, 0.4)


class TestOnlineGolden:
    def test_interactive_cites_eq27_argmin(self, lmc_trace):
        events, _ = lmc_trace
        decision = next(e for e in events if e.kind == "lmc.interactive")
        exp = explain_task(events, decision.data["task_id"])
        assert exp.mode == "interactive"
        assert exp.core == decision.data["chosen"]
        assert exp.marginal_costs == list(decision.data["costs"])
        assert exp.marginal_costs[exp.core] == min(exp.marginal_costs)
        assert "Equation 27" in exp.render()
        # interactive tasks run at the core's maximum frequency
        assert exp.rate == max(TABLE_II.rates)

    def test_noninteractive_links_queue_insert(self, lmc_trace):
        events, _ = lmc_trace
        decision = next(e for e in events if e.kind == "lmc.noninteractive")
        exp = explain_task(events, decision.data["task_id"])
        assert exp.mode == "noninteractive"
        assert exp.slot is not None  # found its dynamic.insert
        ranges = DominatingRanges.from_cost_model(CostModel(TABLE_II, 0.4, 0.1))
        assert exp.rate == ranges.rate_for(exp.slot)

    def test_lifecycle_events_attached(self, lmc_trace):
        events, summary = lmc_trace
        exp = explain_task(events, summary["task_ids"][0])
        assert exp.dispatches, "expected at least one sim.dispatch"
        assert exp.completion is not None
        assert exp.completion["turnaround"] > 0

    def test_task_events_filters_by_task(self, lmc_trace):
        events, summary = lmc_trace
        tid = summary["task_ids"][0]
        mine = task_events(events, tid)
        assert mine
        assert all(e.data.get("task_id") == tid for e in mine)


class TestExplainErrors:
    def test_unknown_task_raises(self, wbg_trace):
        events, _ = wbg_trace
        with pytest.raises(ExplainError, match="no placement decision"):
            explain_task(events, "not-a-task")
        with pytest.raises(ExplainError):
            explain_task(events, -42)

    def test_empty_trace_raises(self):
        with pytest.raises(ExplainError):
            explain_task([], 0)

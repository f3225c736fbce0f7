"""Output checks: decision digests, recorded values, invariants, guards.

A check returns a list of problems (empty means it passed); callers
count an arm (or batch cell) as failed when any of its checks reports
one. All checks run outside the timed region.

* **Decision digests** pin what each scheduler decided. An online arm's
  digest covers every task's core and preemption count in start order;
  a batch arm's covers every cell's per-core task order and rates. At
  the recorded seed they must match ``expected.json`` exactly.
* **Energy and cost** may differ from the recorded values only within
  the aggregate tolerances of :mod:`repro.models.tolerances`, so a
  rewrite whose decisions are identical passes.
* **Invariants**: ``repro.verify.invariants`` audits every online
  result and every batch plan.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Sequence

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def online_digest(trace: Sequence[Any], result: Any) -> str:
    """Hash of (trace index, core, preemptions) per task, in start order."""
    index = {task.task_id: i for i, task in enumerate(trace)}
    rows = sorted(
        (r.first_start, index[r.task.task_id], r.core, r.preemptions)
        for r in result.records
    )
    h = hashlib.sha256()
    for _, i, core, preemptions in rows:
        h.update(f"{i}:{core}:{preemptions};".encode())
    return h.hexdigest()[:16]


def plan_digest_update(h: Any, cell: int, tasks: Sequence[Any], plan: Sequence[Any]) -> None:
    """Fold one batch plan (per-core task order and rates) into ``h``."""
    index = {task.task_id: i for i, task in enumerate(tasks)}
    h.update(f"cell{cell}|".encode())
    for schedule in plan:
        h.update(f"c{schedule.core_index}:".encode())
        for placement in schedule.placements:
            h.update(f"{index[placement.task.task_id]}@{placement.rate!r},".encode())


def load_expected() -> dict[str, Any]:
    return json.loads(EXPECTED_PATH.read_text())


def compare_recorded(measured: dict[str, Any], recorded: dict[str, Any]) -> list[str]:
    """Digest exactly; energy and cost within the aggregate tolerances."""
    from repro.models.tolerances import AGG_ABS_TOL, AGG_REL_TOL

    problems = []
    if measured["digest"] != recorded["digest"]:
        problems.append(f"digest {measured['digest']} != recorded {recorded['digest']}")
    for key in ("energy_j", "cost"):
        if not math.isclose(measured[key], recorded[key],
                            rel_tol=AGG_REL_TOL, abs_tol=AGG_ABS_TOL):
            problems.append(f"{key} {measured[key]!r} != recorded {recorded[key]!r}")
    return problems


def online_invariants(trace: Sequence[Any], result: Any, n_cores: int) -> list[str]:
    from repro.models.rates import TABLE_II
    from repro.verify.invariants import check_online_result

    report = check_online_result(trace, result, n_cores, TABLE_II)
    return [str(v) for v in report.violations]


def batch_invariants(plan: Sequence[Any], tasks: Sequence[Any], re: float, rt: float,
                     paper_order: bool) -> list[str]:
    """Audit one batch plan; WBG must also keep Theorem 3 order and
    Lemma 3 rates, the fixed-rate baselines need not."""
    from repro.models.cost import CostModel
    from repro.models.rates import TABLE_II
    from repro.verify.invariants import check_batch_schedules

    models = [CostModel(TABLE_II, re, rt)] * len(plan)
    report = check_batch_schedules(plan, models, tasks, optimal_order=paper_order,
                                   dominating_rates=paper_order)
    return [str(v) for v in report.violations]


def queue_depth_max(result: Any) -> int:
    """Deepest LMC waiting queue, rebuilt from the records.

    A non-interactive task waits in its core's queue from its arrival
    until it first starts; a task that starts on arrival still enters
    the queue for that instant, as the runner enqueues before it
    dispatches.
    """
    from repro.models.task import TaskKind

    events: dict[int, list[tuple[float, int]]] = {}
    for r in result.records:
        if r.task.kind is TaskKind.NONINTERACTIVE:
            events.setdefault(r.core, []).extend(
                [(r.task.arrival, 1), (r.first_start, -1)]
            )
    deepest = 0
    for core_events in events.values():
        # at equal times arrivals (+1) count before departures (-1)
        depth = 0
        for _, step in sorted(core_events, key=lambda e: (e[0], -e[1])):
            depth += step
            deepest = max(deepest, depth)
    return deepest


def deepest_range_edge(re: float, rt: float) -> int:
    """First backward position of the last dominating range (Algorithm 1)."""
    from repro.core.dominating import DominatingRanges
    from repro.models.cost import CostModel
    from repro.models.rates import TABLE_II

    return DominatingRanges.from_cost_model(CostModel(TABLE_II, re, rt)).ranges[-1].lo


def queue_guard(workload: str, depth: int, edge: int) -> list[str]:
    """The deep-queue workload must pass every range edge; Fig. 3 must not."""
    if workload == "deep_queue_online" and depth <= edge:
        return [f"LMC queue depth {depth} never passed the last range edge {edge}"]
    if workload == "fig3_online" and depth >= edge:
        return [f"LMC queue depth {depth} reached the last range edge {edge}"]
    return []

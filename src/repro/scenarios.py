"""The scenario catalog: the paper's experiments and the seeded scenarios.

Everything that names a paper experiment lives here once:

* the two pricings — Fig. 2 runs the SPEC batch at ``RE_BATCH``,
  ``RT_BATCH``; Fig. 3 runs the judge trace at ``RE_ONLINE``,
  ``RT_ONLINE``;
* the two arm sets — :func:`batch_costs` (WBG / OLB / PS) and
  :func:`online_costs` (LMC / OLB / OD), which ``repro fig2``/``fig3``,
  the ``repro sweep`` cells and the Fig. 2/3 benchmarks all call;
* the seeded scenarios ``wbg``, ``lmc`` and ``dynamic`` in
  :data:`SCENARIOS`, read by ``repro trace``, ``repro explain`` and
  ``repro bench``.

A scenario is one runner plus its pinned inputs per size: ``trace`` is
small enough to read its decision log end to end, ``quick`` and
``full`` are the two ``repro bench`` profiles (whose inputs are the
recorded bench ``params``). A runner takes an optional tracer, and a
``timed`` hook that the bench wraps around the region it measures.
The same inputs always give the same decisions, ops and checksum, with
or without a tracer.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.core.batch_multi import WorkloadBasedGreedy
from repro.core.dynamic import DynamicCostIndex
from repro.governors import OnDemandGovernor
from repro.models.cost import CostModel, ScheduleCost
from repro.models.rates import TABLE_II, RateTable
from repro.models.task import Task
from repro.obs.tracer import Tracer
from repro.schedulers import (
    LMCOnlineScheduler,
    OLBOnlineScheduler,
    OnDemandRoundRobinScheduler,
    olb_plan,
    power_saving_plan,
    wbg_plan,
)
from repro.simulator import run_batch, run_online
from repro.workloads import JudgeTraceConfig, generate_judge_trace, spec_tasks

#: Paper pricing: batch experiments (Fig. 2) and online experiments (Fig. 3).
RE_BATCH, RT_BATCH = 0.1, 0.4
RE_ONLINE, RT_ONLINE = 0.4, 0.1


# ---------------------------------------------------------------------------
# the paper's two comparisons
# ---------------------------------------------------------------------------


def batch_costs(
    tasks: Sequence[Task], n_cores: int, re: float = RE_BATCH, rt: float = RT_BATCH
) -> dict[str, ScheduleCost]:
    """Fig. 2's arms: WBG, OLB and PS plans for ``tasks`` on Table II
    cores, each run through the batch simulator and priced at ``re, rt``."""
    plans = {
        "WBG": wbg_plan(tasks, TABLE_II, n_cores, re, rt),
        "OLB": olb_plan(tasks, TABLE_II, n_cores),
        "PS": power_saving_plan(tasks, TABLE_II, n_cores),
    }
    return {label: run_batch(plan, TABLE_II).cost(re, rt) for label, plan in plans.items()}


def online_costs(
    trace: Sequence[Task],
    n_cores: int,
    arms: Sequence[str],
    re: float = RE_ONLINE,
    rt: float = RT_ONLINE,
) -> dict[str, ScheduleCost]:
    """Fig. 3's arms named in ``arms`` (any of ``LMC``, ``OLB``, ``OD``),
    each replaying ``trace`` on Table II cores and priced at ``re, rt``."""

    def run(arm: str) -> ScheduleCost:
        if arm == "LMC":
            result = run_online(trace, LMCOnlineScheduler(TABLE_II, n_cores, re, rt), TABLE_II)
        elif arm == "OLB":
            result = run_online(trace, OLBOnlineScheduler(TABLE_II, n_cores), TABLE_II)
        elif arm == "OD":
            result = run_online(
                trace, OnDemandRoundRobinScheduler(n_cores), TABLE_II,
                governors=[OnDemandGovernor(TABLE_II) for _ in range(n_cores)],
            )
        else:
            raise ValueError(f"unknown online arm {arm!r}; choose from LMC, OLB, OD")
        return result.cost(re, rt)

    return {arm: run(arm) for arm in arms}


# ---------------------------------------------------------------------------
# seeded scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """What one scenario run reports."""

    #: The headline ``repro trace`` prints, in order.
    summary: dict[str, Any]
    #: Deterministic counters the bench gate pins exactly.
    ops: dict[str, int]
    #: Digest of the numeric results.
    checksum: str
    #: The tasks the scenario scheduled (empty for ``dynamic``).
    tasks: tuple[Task, ...] = field(default=(), repr=False)


#: Runs the measured region of a scenario once and returns its result.
Timed = Callable[[Callable[[], Any]], Any]


def _untimed(fn: Callable[[], Any]) -> Any:
    return fn()


def _checksum(*values: object) -> str:
    digest = hashlib.sha256()
    for value in values:
        digest.update(repr(value).encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def _heterogeneous_platform(n_cores: int) -> list[RateTable]:
    """Table II menus with per-core energy scaling (silicon variation)."""
    factors = (1.0, 1.08, 1.18, 1.3)
    if n_cores > len(factors):
        raise ValueError(f"platform supports at most {len(factors)} cores")
    return [
        RateTable(
            TABLE_II.rates,
            tuple(e * f for e in TABLE_II.energy_per_cycle),
            TABLE_II.time_per_cycle,
            name=f"core{j}",
        )
        for j, f in enumerate(factors[:n_cores])
    ]


def run_wbg(
    inputs: Mapping[str, Any], tracer: Optional[Tracer] = None, timed: Timed = _untimed
) -> Outcome:
    """Algorithm 3's heap loop over one batch.

    Without ``n_tasks`` in ``inputs`` the batch is the Table I SPEC
    batch on identical Table II cores (``seed`` is then unused); with
    it, ``n_tasks`` seeded uniform tasks on the heterogeneous platform.
    """
    n_cores = inputs["n_cores"]
    if "n_tasks" in inputs:
        tables = _heterogeneous_platform(n_cores)
        rng = random.Random(inputs["seed"])
        tasks = [
            Task(cycles=rng.uniform(0.05, 30.0), name=f"t{i}")
            for i in range(inputs["n_tasks"])
        ]
    else:
        tasks = spec_tasks("both")
        tables = [TABLE_II] * n_cores
    models = [CostModel(t, inputs["re"], inputs["rt"]) for t in tables]
    scheduler = WorkloadBasedGreedy(models, tracer=tracer)
    plan = timed(lambda: scheduler.schedule(tasks))
    # (core, [(cycles, rate), ...]) — identity up to task naming
    plan_key = [(s.core_index, [(p.task.cycles, p.rate) for p in s.placements]) for s in plan]
    cost = scheduler.schedule_cost(plan)
    return Outcome(
        summary={"n_tasks": len(tasks), "n_cores": n_cores, "total_cost": cost.total_cost},
        ops={"tasks": len(tasks), "cores": n_cores},
        checksum=_checksum(plan_key, cost.total_cost),
        tasks=tuple(tasks),
    )


def run_lmc(
    inputs: Mapping[str, Any], tracer: Optional[Tracer] = None, timed: Timed = _untimed
) -> Outcome:
    """The LMC policy over a seeded Judgegirl-style trace through the
    event-driven runner: Equation 27, the marginal probes and the
    simulator itself. Ops come from the policy (probes, queue
    mutations) and the runner (events fired, preemptions)."""
    cfg = JudgeTraceConfig(
        n_interactive=inputs["n_interactive"],
        n_noninteractive=inputs["n_noninteractive"],
        duration_s=inputs["duration_s"],
        seed=inputs["seed"],
    )
    trace = generate_judge_trace(cfg)
    n_cores, re, rt = inputs["n_cores"], inputs["re"], inputs["rt"]

    def run():
        scheduler = LMCOnlineScheduler(TABLE_II, n_cores, re, rt, tracer=tracer)
        return scheduler, run_online(trace, scheduler, TABLE_II, tracer=tracer)

    scheduler, result = timed(run)
    cost = result.cost(re, rt)
    ops = {"events": result.events, "preemptions": result.total_preemptions}
    ops.update(scheduler.counters())
    return Outcome(
        summary={"n_tasks": len(trace), "n_cores": n_cores, "total_cost": cost.total_cost},
        ops=ops,
        checksum=_checksum(cost.total_cost, result.horizon, result.energy_joules),
        tasks=tuple(trace),
    )


def run_dynamic(
    inputs: Mapping[str, Any], tracer: Optional[Tracer] = None, timed: Timed = _untimed
) -> Outcome:
    """Algorithms 4–6 under seeded churn on one :class:`DynamicCostIndex`:
    inserts (45%), deletes (30%) and marginal-cost probes (25%) drawn
    from ``probe_menu``."""
    n_ops, seed, probe_menu = inputs["n_ops"], inputs["seed"], inputs["probe_menu"]

    def run():
        index = DynamicCostIndex(
            CostModel(TABLE_II, inputs["re"], inputs["rt"]),
            seed=seed, tracer=tracer, label="queue",
        )
        rng = random.Random(seed)
        handles = []
        probe_sum = 0.0
        for _ in range(n_ops):
            draw = rng.random()
            if draw < 0.45 or not handles:
                handles.append(index.insert(rng.uniform(0.1, 50.0)))
            elif draw < 0.75:
                index.delete(handles.pop(rng.randrange(len(handles))))
            else:
                probe_sum += index.marginal_insert_cost(rng.choice(probe_menu))
        return index, probe_sum

    index, probe_sum = timed(run)
    return Outcome(
        summary={"n_ops": n_ops, "total_cost": index.total_cost},
        ops=dict(index.counters),
        checksum=_checksum(index.total_cost, probe_sum, len(index)),
    )


@dataclass(frozen=True)
class Scenario:
    """A registered scenario: its runner and pinned inputs per size."""

    name: str
    description: str
    run: Callable[..., Outcome]
    #: ``"trace"``, ``"quick"`` and ``"full"`` → the runner's inputs.
    inputs: Mapping[str, Mapping[str, Any]]


_PROBE_MENU = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]

SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("wbg", "Algorithm 3 heap loop over a batch", run_wbg, {
            "trace": {"n_cores": 2, "re": RE_BATCH, "rt": RT_BATCH},
            "quick": {"n_tasks": 2_000, "n_cores": 4, "seed": 2014,
                      "re": RE_BATCH, "rt": RT_BATCH},
            "full": {"n_tasks": 10_000, "n_cores": 4, "seed": 2014,
                     "re": RE_BATCH, "rt": RT_BATCH},
        }),
        Scenario("lmc", "LMC policy over a seeded Judgegirl trace", run_lmc, {
            size: {"n_interactive": n_i, "n_noninteractive": n_ni, "duration_s": d,
                   "seed": 2014, "n_cores": c, "re": RE_ONLINE, "rt": RT_ONLINE}
            for size, n_i, n_ni, d, c in (("trace", 40, 12, 30.0, 2),
                                          ("quick", 600, 80, 120.0, 4),
                                          ("full", 3_000, 400, 600.0, 4))
        }),
        Scenario("dynamic", "DynamicCostIndex insert/delete/probe churn", run_dynamic, {
            size: {"n_ops": n_ops, "seed": 99, "re": RE_BATCH, "rt": RT_BATCH,
                   "probe_menu": _PROBE_MENU}
            for size, n_ops in (("trace", 120), ("quick", 4_000), ("full", 20_000))
        }),
    )
}


def lookup(name: str) -> Scenario:
    """The registered scenario ``name``; ``KeyError`` lists the others."""
    try:
        return SCENARIOS[name]
    except KeyError:
        available = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (available: {available})") from None


def run_traced(name: str, tracer: Optional[Tracer], **overrides: Any) -> Outcome:
    """Run scenario ``name`` at its ``trace`` size with ``tracer`` attached.

    ``overrides`` replace trace inputs (``re``, ``rt``, ``n_cores``,
    ``seed``); ``None`` values keep the scenario's own.
    """
    scenario = lookup(name)
    inputs = dict(scenario.inputs["trace"])
    inputs.update((k, v) for k, v in overrides.items() if v is not None)
    return scenario.run(inputs, tracer)


__all__ = [
    "RE_BATCH",
    "RE_ONLINE",
    "RT_BATCH",
    "RT_ONLINE",
    "SCENARIOS",
    "Outcome",
    "Scenario",
    "batch_costs",
    "lookup",
    "online_costs",
    "run_dynamic",
    "run_lmc",
    "run_traced",
    "run_wbg",
]

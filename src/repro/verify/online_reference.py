"""Reference online runner for the ``online_ref`` differential check.

:func:`run_online_reference` is the straightforward form of the online
simulator's event loop: every arrival is an :class:`EventHandle` in the
event heap from the start, every event advances every core (idle ones
included), and a fresh set of :class:`CoreView` snapshots is built for
each arrival. :func:`repro.simulator.online_runner.run_online` computes
the same floats with less work; the ``online_ref`` check in
:mod:`repro.verify.differential` requires the two to agree exactly.

This module is verification code. Nothing outside :mod:`repro.verify`
and the tests runs it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.governors.base import Governor
from repro.models.rates import RateTable
from repro.models.task import Task, TaskKind
from repro.simulator.engine import EventHandle, Simulation
from repro.simulator.online_runner import (
    CoreView,
    OnlinePolicy,
    OnlineResult,
    OnlineTaskRecord,
)
from repro.simulator.platform import SimCore, TaskExecution


@dataclass
class _CoreState:
    sim: SimCore
    governor: Optional[Governor]
    current_rate: float
    running: Optional[TaskExecution] = None
    running_kind: Optional[TaskKind] = None
    interactive_queue: deque = field(default_factory=deque)
    preempted: Optional[TaskExecution] = None
    completion: Optional[EventHandle] = None
    busy_accum: float = 0.0
    busy_since: Optional[float] = None
    total_busy: float = 0.0


def run_online_reference(
    trace: Sequence[Task],
    policy: OnlinePolicy,
    tables: Sequence[RateTable] | RateTable,
    governors: Optional[Sequence[Governor]] = None,
    tracer=None,
) -> OnlineResult:
    """Reference event loop for :func:`~repro.simulator.online_runner.run_online`.

    Every arrival is queued in the event heap up front, every event
    advances every core, and each arrival gets freshly built views. Same
    signature and result as ``run_online``, which must match it exactly.

    Parameters
    ----------
    trace:
        Tasks with arrival times and kinds; completion order is decided
        by the policy and the runner's mechanics. The run continues past
        the last arrival until every task completes.
    tables:
        One :class:`RateTable` (homogeneous) or one per core.
    governors:
        Optional per-core governors. When given, they sample load every
        ``sampling_period`` seconds and set frequencies whenever the
        policy declines to (returns ``None`` from a rate method).
    tracer:
        Optional decision tracer (:mod:`repro.obs`): records
        ``sim.dispatch`` / ``sim.complete`` / ``sim.preempt`` /
        ``sim.rate`` events at simulated time. Measurements are
        bit-identical with and without it.
    """
    n = policy.n_cores
    if n < 1:
        raise ValueError("policy must manage at least one core")
    if governors is not None and len(governors) != n:
        raise ValueError("need one governor per core")

    def table_for(j: int) -> RateTable:
        return tables if isinstance(tables, RateTable) else tables[j]

    sim = Simulation()
    cores: list[_CoreState] = []
    for j in range(n):
        gov = governors[j] if governors is not None else None
        sc = SimCore(j, table_for(j), keep_trace=False)
        rate = gov.initial_rate() if gov is not None else table_for(j).max_rate
        sc.rate = rate
        cores.append(_CoreState(sim=sc, governor=gov, current_rate=rate))

    records: list[OnlineTaskRecord] = []
    outstanding = len(trace)  # tasks arrived-or-future and not yet completed

    # ---- helpers -------------------------------------------------------------
    def advance_all() -> None:
        for cs in cores:
            cs.sim.advance(sim.now)

    def views() -> list[CoreView]:
        advance_all()
        out = []
        for j, cs in enumerate(cores):
            out.append(
                CoreView(
                    index=j,
                    current_rate=cs.current_rate,
                    running_kind=cs.running_kind,
                    running_remaining_cycles=(
                        cs.running.remaining_cycles if cs.running is not None else 0.0
                    ),
                    preempted_remaining_cycles=(
                        cs.preempted.remaining_cycles if cs.preempted is not None else 0.0
                    ),
                    interactive_waiting=len(cs.interactive_queue),
                    interactive_backlog_cycles=sum(t.cycles for t in cs.interactive_queue),
                )
            )
        return out

    def schedule_completion(j: int) -> None:
        cs = cores[j]
        if cs.completion is not None:
            cs.completion.cancel()
            cs.completion = None
        if cs.running is None:
            return
        t_done = cs.sim.next_completion_time(sim.now)
        assert math.isfinite(t_done)
        cs.completion = sim.at(t_done, lambda j=j: on_completion(j), label=f"done@core{j}")

    def set_core_rate(j: int, rate: float) -> None:
        cs = cores[j]
        if rate == cs.current_rate:
            return
        if tracer is not None:
            tracer.emit("sim.rate",
                        {"time": sim.now, "core": j, "rate": rate,
                         "prev_rate": cs.current_rate},
                        time=sim.now)
        cs.sim.set_rate(rate, sim.now)
        cs.current_rate = rate
        if cs.running is not None:
            schedule_completion(j)

    def mark_busy(j: int) -> None:
        cs = cores[j]
        if cs.busy_since is None:
            cs.busy_since = sim.now

    def mark_idle(j: int) -> None:
        cs = cores[j]
        if cs.busy_since is not None:
            elapsed = sim.now - cs.busy_since
            cs.busy_accum += elapsed
            cs.total_busy += elapsed
            cs.busy_since = None

    def start_execution(j: int, execution: TaskExecution, kind: TaskKind,
                        rate: Optional[float]) -> None:
        cs = cores[j]
        assert cs.running is None
        if rate is not None:
            set_core_rate(j, rate)
        cs.sim.start(execution, cs.current_rate, sim.now)
        cs.running = execution
        cs.running_kind = kind
        if tracer is not None:
            tracer.emit("sim.dispatch",
                        {"time": sim.now, "core": j, "task_id": execution.task.task_id,
                         "task": execution.task.name, "task_kind": kind.name,
                         "rate": cs.current_rate},
                        time=sim.now)
        mark_busy(j)
        schedule_completion(j)

    def start_next(j: int) -> None:
        """Fill an idle core per the fixed priority order."""
        cs = cores[j]
        assert cs.running is None
        if cs.interactive_queue:
            task = cs.interactive_queue.popleft()
            execution = TaskExecution(task=task, remaining_cycles=task.cycles)
            start_execution(j, execution, TaskKind.INTERACTIVE,
                            policy.rate_for_interactive(j, task))
            return
        if cs.preempted is not None:
            execution = cs.preempted
            cs.preempted = None
            start_execution(j, execution, TaskKind.NONINTERACTIVE,
                            policy.rate_for_noninteractive(j, execution.task))
            return
        task = policy.dequeue_noninteractive(j)
        if task is not None:
            execution = TaskExecution(task=task, remaining_cycles=task.cycles)
            start_execution(j, execution, TaskKind.NONINTERACTIVE,
                            policy.rate_for_noninteractive(j, task))
            return
        mark_idle(j)

    # ---- event handlers ---------------------------------------------------------
    def on_completion(j: int) -> None:
        nonlocal outstanding
        cs = cores[j]
        advance_all()
        execution = cs.sim.complete(sim.now)
        cs.running = None
        cs.running_kind = None
        cs.completion = None
        assert execution.started_at is not None and execution.finished_at is not None
        records.append(
            OnlineTaskRecord(
                task=execution.task,
                core=j,
                first_start=execution.started_at,
                finish=execution.finished_at,
                energy_joules=execution.energy_joules,
                preemptions=execution.preemptions,
                busy_seconds=execution.busy_seconds,
            )
        )
        outstanding -= 1
        if tracer is not None:
            tracer.emit("sim.complete",
                        {"time": sim.now, "core": j, "task_id": execution.task.task_id,
                         "task": execution.task.name,
                         "energy_joules": execution.energy_joules,
                         "turnaround": execution.finished_at - execution.task.arrival},
                        time=sim.now)
        on_complete_hook = getattr(policy, "on_complete", None)
        if on_complete_hook is not None:
            on_complete_hook(j, execution.task)
        start_next(j)

    def on_arrival(task: Task) -> None:
        vs = views()
        j = policy.select_core(task, vs)
        if not (0 <= j < n):
            raise ValueError(f"policy selected invalid core {j}")
        cs = cores[j]
        if task.kind is TaskKind.INTERACTIVE:
            if cs.running_kind is TaskKind.NONINTERACTIVE and cs.running is not None and cs.running.done:
                # the running task finishes at exactly this instant; its
                # completion event is already queued behind this arrival —
                # queue up rather than preempting a zero-cycle remainder.
                cs.interactive_queue.append(task)
            elif cs.running_kind is TaskKind.NONINTERACTIVE:
                # preempt the lower-priority task (Section IV mechanics)
                assert cs.preempted is None, "an NI task cannot run while one is preempted"
                if cs.completion is not None:
                    cs.completion.cancel()
                    cs.completion = None
                cs.preempted = cs.sim.preempt(sim.now)
                if tracer is not None:
                    tracer.emit("sim.preempt",
                                {"time": sim.now, "core": j,
                                 "task_id": cs.preempted.task.task_id,
                                 "task": cs.preempted.task.name},
                                time=sim.now)
                cs.running = None
                cs.running_kind = None
                execution = TaskExecution(task=task, remaining_cycles=task.cycles)
                start_execution(j, execution, TaskKind.INTERACTIVE,
                                policy.rate_for_interactive(j, task))
            elif cs.running_kind is TaskKind.INTERACTIVE:
                cs.interactive_queue.append(task)
            else:
                execution = TaskExecution(task=task, remaining_cycles=task.cycles)
                start_execution(j, execution, TaskKind.INTERACTIVE,
                                policy.rate_for_interactive(j, task))
        else:
            policy.enqueue_noninteractive(j, task)
            if cs.running is None:
                start_next(j)
            elif cs.running_kind is TaskKind.NONINTERACTIVE and not cs.running.done:
                # queue membership changed → the running task's positional
                # rate may change ("adjusted according to C(k, p_k)")
                new_rate = policy.rate_for_noninteractive(j, cs.running.task)
                if new_rate is not None and new_rate != cs.current_rate:
                    set_core_rate(j, new_rate)

    def on_tick(j: int) -> None:
        cs = cores[j]
        gov = cs.governor
        assert gov is not None
        advance_all()
        window = gov.sampling_period
        busy = cs.busy_accum
        if cs.busy_since is not None:
            elapsed = sim.now - cs.busy_since
            busy += elapsed
            cs.total_busy += elapsed
            cs.busy_since = sim.now
        cs.busy_accum = 0.0
        load = min(1.0, busy / window) if window > 0 else 0.0
        new_rate = gov.on_sample(load, cs.current_rate)
        set_core_rate(j, new_rate)
        if outstanding > 0:
            sim.after(window, lambda j=j: on_tick(j), label=f"tick@core{j}")

    # ---- schedule the trace --------------------------------------------------------
    for task in sorted(trace, key=lambda t: (t.arrival, t.task_id)):
        sim.at(task.arrival, lambda t=task: on_arrival(t), label=f"arrive#{task.task_id}")
    if governors is not None:
        for j, gov in enumerate(governors):
            sim.after(gov.sampling_period, lambda j=j: on_tick(j), label=f"tick@core{j}")

    sim.run()

    if outstanding != 0:
        raise RuntimeError(f"{outstanding} tasks never completed — scheduling deadlock?")
    horizon = max((r.finish for r in records), default=0.0)
    return OnlineResult(
        records=records,
        horizon=horizon,
        energy_joules=sum(r.energy_joules for r in records),
        events=sim.events_fired,
        core_busy_seconds=tuple(cs.total_busy for cs in cores),
    )

"""Online-mode execution: arrivals, preemption, per-core queues.

This is the event-driven simulator of Section V-B: events are task
arrivals and task completions (plus governor sampling ticks when a
baseline delegates frequency control to a governor). The scheduling
*policy* — LMC or a baseline — is pluggable through the small
:class:`OnlinePolicy` protocol below; the runner owns the mechanics the
paper fixes for every policy (Section IV assumptions):

* one execution queue per core; the policy orders its own
  non-interactive queue;
* interactive tasks have priority: they preempt a running
  non-interactive task and FIFO among themselves;
* the preempted task resumes once no interactive work is pending;
* a core may change frequency at any time (online-mode rate model).

Cost accounting follows the paper: each task pays ``Re × joules`` plus
``Rt × (completion − arrival)``; the run's total cost is the sum over
tasks.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

from repro.governors.base import Governor
from repro.models.cost import ScheduleCost
from repro.models.rates import RateTable
from repro.models.task import Task, TaskKind
from repro.models.tolerances import TIME_SLACK
from repro.simulator.engine import EventHandle, Simulation
from repro.simulator.platform import SimCore, TaskExecution


@dataclass(frozen=True)
class CoreView:
    """Read-only core snapshot handed to policies at arrival time."""

    index: int
    current_rate: float
    running_kind: Optional[TaskKind]
    running_remaining_cycles: float
    preempted_remaining_cycles: float
    interactive_waiting: int
    interactive_backlog_cycles: float


class OnlinePolicy(Protocol):
    """What a scheduling strategy must provide to drive the runner.

    Rate-returning methods may return ``None`` to mean "leave frequency
    control to the governor" (how On-demand works); returning a rate
    pins the core to it, as the paper's userspace-governor setup does.
    """

    n_cores: int

    def select_core(self, task: Task, views: Sequence[CoreView]) -> int:
        """Core for a newly arrived task (both kinds)."""
        ...

    def enqueue_noninteractive(self, core: int, task: Task) -> None:
        """Record a non-interactive task in ``core``'s waiting queue."""
        ...

    def dequeue_noninteractive(self, core: int) -> Optional[Task]:
        """Pop the next non-interactive task to run, or None if empty."""
        ...

    def rate_for_noninteractive(self, core: int, task: Task) -> Optional[float]:
        """Rate for the (re)starting or queue-adjusted running NI task."""
        ...

    def rate_for_interactive(self, core: int, task: Task) -> Optional[float]:
        """Rate for a starting interactive task."""
        ...


@dataclass(frozen=True)
class OnlineTaskRecord:
    """Measured outcome of one online task.

    ``busy_seconds`` counts actual execution time only; a preempted
    task's suspension gap is part of its turnaround but not its busy
    time.
    """

    task: Task
    core: int
    first_start: float
    finish: float
    energy_joules: float
    preemptions: int
    busy_seconds: float = 0.0

    @property
    def turnaround(self) -> float:
        return self.finish - self.task.arrival

    @property
    def response_time(self) -> float:
        """Arrival → first execution; the paper's interactive-task metric."""
        return self.first_start - self.task.arrival

    @property
    def kind(self) -> TaskKind:
        return self.task.kind


@dataclass
class OnlineResult:
    """Everything measured during one online run.

    ``core_busy_seconds[j]`` is how long core ``j`` spent executing
    (any task kind); divide by :attr:`horizon` for utilisation.
    """

    records: list[OnlineTaskRecord]
    horizon: float
    energy_joules: float
    events: int
    core_busy_seconds: tuple[float, ...] = ()

    @property
    def total_preemptions(self) -> int:
        """Preemptions summed over all tasks — a deterministic ops
        counter (``repro bench`` compares it against the baseline)."""
        return sum(r.preemptions for r in self.records)

    def utilisation(self, core: int) -> float:
        """Busy fraction of ``core`` over the run's horizon."""
        if not self.core_busy_seconds:
            raise ValueError("this result carries no per-core accounting")
        if self.horizon <= 0:
            return 0.0
        return self.core_busy_seconds[core] / self.horizon

    def mean_utilisation(self) -> float:
        if not self.core_busy_seconds or self.horizon <= 0:
            return 0.0
        return sum(self.core_busy_seconds) / (len(self.core_busy_seconds) * self.horizon)

    def cost(self, re: float, rt: float) -> ScheduleCost:
        if re <= 0 or rt <= 0:
            raise ValueError("Re and Rt must be positive")
        turnaround_sum = sum(r.turnaround for r in self.records)
        return ScheduleCost(
            energy_cost=re * self.energy_joules,
            temporal_cost=rt * turnaround_sum,
            energy_joules=self.energy_joules,
            busy_seconds=sum(r.busy_seconds for r in self.records),
            makespan=self.horizon,
            turnaround_sum=turnaround_sum,
            task_count=len(self.records),
        )

    def by_kind(self, kind: TaskKind) -> list[OnlineTaskRecord]:
        return [r for r in self.records if r.kind is kind]

    def mean_response(self, kind: TaskKind) -> float:
        rs = self.by_kind(kind)
        return sum(r.response_time for r in rs) / len(rs) if rs else 0.0

    def mean_turnaround(self, kind: TaskKind) -> float:
        rs = self.by_kind(kind)
        return sum(r.turnaround for r in rs) / len(rs) if rs else 0.0

    # -- QoS metrics (interactive tasks carry firm deadlines, Section II-A) ----
    def deadline_misses(self, kind: Optional[TaskKind] = None) -> int:
        """Tasks whose completion exceeded their (finite) deadline."""
        rs = self.records if kind is None else self.by_kind(kind)
        return sum(
            1 for r in rs if r.task.has_deadline and r.finish > r.task.deadline + TIME_SLACK
        )

    def deadline_miss_rate(self, kind: Optional[TaskKind] = None) -> float:
        """Miss fraction among tasks that *have* a finite deadline."""
        rs = self.records if kind is None else self.by_kind(kind)
        with_deadline = [r for r in rs if r.task.has_deadline]
        if not with_deadline:
            return 0.0
        return self.deadline_misses(kind) / len(with_deadline)

    def response_percentile(self, kind: TaskKind, q: float) -> float:
        """The ``q``-quantile (0..1) of response times for a task class.

        Nearest-rank percentile; the paper's interactive SLO is about
        tail response, not the mean.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError("q must be in [0, 1]")
        rs = sorted(r.response_time for r in self.by_kind(kind))
        if not rs:
            return 0.0
        idx = min(len(rs) - 1, max(0, int(math.ceil(q * len(rs))) - 1))
        return rs[idx]


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


def run_online(
    trace: Sequence[Task],
    policy: OnlinePolicy,
    tables: Sequence[RateTable] | RateTable,
    governors: Optional[Sequence[Governor]] = None,
    tracer=None,
) -> OnlineResult:
    """Simulate an online trace under ``policy``. Returns measurements.

    Parameters
    ----------
    trace:
        Tasks with arrival times and kinds; completion order is decided
        by the policy and the mechanics above. The run continues past
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

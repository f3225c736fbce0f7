"""Simulated cores with per-core DVFS.

A :class:`SimCore` executes one :class:`TaskExecution` at a time at its
current frequency. Progress is integrated piecewise: every state change
(rate switch, preemption, co-run count change, completion) first calls
:meth:`SimCore.advance`, which converts the elapsed wall time since the
last update into completed cycles (through the optional
:class:`~repro.simulator.contention.ContentionModel`) and books the
consumed energy with the core's :class:`~repro.simulator.power.PowerMeter`.

Energy is booked as ``busy power × wall time`` — the physically correct
reading a wall meter gives — so contention-stretched executions cost
*more* energy per useful cycle, exactly the effect behind the paper's
Fig. 1 "Exp > Sim" gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.models.rates import RateTable
from repro.models.task import Task
from repro.models.tolerances import CYCLE_EPS, CYCLE_OVERRUN_TOL
from repro.simulator.contention import ContentionModel, NO_CONTENTION
from repro.simulator.power import PowerMeter


@dataclass
class TaskExecution:
    """Mutable execution state of one task instance on (at most) one core."""

    task: Task
    remaining_cycles: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    energy_joules: float = 0.0
    busy_seconds: float = 0.0
    preemptions: int = 0

    @property
    def done(self) -> bool:
        # Relative to the task's size: progress is integrated piecewise
        # (one subtraction per rate switch / governor sample), so the
        # residual at the scheduled completion instant scales with the
        # cycle count, not with any fixed epsilon.
        return self.remaining_cycles <= CYCLE_EPS * max(1.0, self.task.cycles)

    @property
    def total_cycles(self) -> float:
        return self.task.cycles


class SimCore:
    """One core: current rate, current execution, progress integration."""

    def __init__(
        self,
        index: int,
        table: RateTable,
        contention: ContentionModel = NO_CONTENTION,
        idle_power: float = 0.0,
        keep_trace: bool = False,
    ) -> None:
        self.index = index
        self.table = table
        self.contention = contention
        self.meter = PowerMeter(idle_power=idle_power, keep_trace=keep_trace)
        self.rate = table.min_rate
        self.current: Optional[TaskExecution] = None
        self._last_update = 0.0
        self._co_runners = 0

    # -- state queries ------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self.current is not None

    def effective_time_per_cycle(self) -> float:
        """Seconds per cycle right now, contention included."""
        nominal = self.table.time(self.rate)
        if self.contention.is_ideal:
            return nominal
        return self.contention.effective_time_per_cycle(
            nominal, self.table.time_per_cycle[0], self._co_runners
        )

    def completion_in(self) -> float:
        """Seconds from the last update until the current task finishes.

        ``inf`` when idle. Valid until the next state change (rates,
        co-runners and the running task are piecewise constant).
        """
        if self.current is None:
            return math.inf
        return self.current.remaining_cycles * self.effective_time_per_cycle()

    @property
    def last_update(self) -> float:
        return self._last_update

    def next_completion_time(self, now: float) -> float:
        """Absolute time the current task finishes if nothing else changes.

        Accounts for any switch-overhead window the core has already
        fast-forwarded past (``last_update`` may exceed ``now``).
        """
        if self.current is None:
            return math.inf
        return max(now, self._last_update) + self.completion_in()

    # -- progress integration --------------------------------------------------------
    def advance(self, now: float) -> None:
        """Integrate progress and energy from the last update to ``now``.

        ``now`` earlier than the last update is a no-op: it happens
        legitimately when an unrelated event lands inside a
        switch-overhead window that :meth:`start` fast-forwarded over.
        """
        dt = max(0.0, now - self._last_update)
        if dt > 0.0:
            if self.current is not None:
                tpc = self.effective_time_per_cycle()
                cycles_done = dt / tpc
                # guard: never execute more cycles than remain (caller should
                # schedule the completion event at the exact finish time)
                if cycles_done > self.current.remaining_cycles + CYCLE_OVERRUN_TOL:
                    raise RuntimeError(
                        f"core {self.index} overran task "
                        f"{self.current.task.task_id}: {cycles_done} > "
                        f"{self.current.remaining_cycles} cycles"
                    )
                if cycles_done > self.current.remaining_cycles:
                    # the completion event time rounds at the ulp of the
                    # absolute clock; clip the overshoot so the booked
                    # busy time and energy match the work actually left
                    # (for a tiny task, watts × overshoot can exceed its
                    # whole physical energy bound)
                    cycles_done = self.current.remaining_cycles
                    dt = cycles_done * tpc
                self.current.remaining_cycles -= cycles_done
                self.current.busy_seconds += dt
                watts = self.table.power(self.rate)
                self.current.energy_joules += watts * dt
                self.meter.record_busy(self._last_update, now, watts)
            else:
                self.meter.record_idle(self._last_update, now)
        self._last_update = max(self._last_update, now)

    # -- state changes (caller must advance() to `now` first or pass now) -------------
    def set_rate(self, rate: float, now: float) -> None:
        """Switch frequency at ``now`` (progress up to ``now`` accrued first)."""
        self.advance(now)
        self.table.index_of(rate)  # validate
        self.rate = rate

    def set_co_runners(self, count: int, now: float) -> None:
        """Update how many *other* cores are busy (contention input)."""
        self.advance(now)
        if count < 0:
            raise ValueError("co_runners must be >= 0")
        self._co_runners = count

    def start(self, execution: TaskExecution, rate: float, now: float) -> None:
        """Begin (or resume) executing ``execution`` at ``rate``."""
        self.advance(now)
        if self.current is not None:
            raise RuntimeError(f"core {self.index} is already busy")
        if execution.done:
            raise ValueError("cannot start a finished execution")
        self.table.index_of(rate)
        self.rate = rate
        self.current = execution
        if execution.started_at is None:
            execution.started_at = now
        if self.contention.switch_overhead_s > 0:
            # model the dispatch/DVFS latency as lost wall time at busy power
            overhead_end = now + self.contention.switch_overhead_s
            watts = self.table.power(rate)
            self.meter.record_busy(now, overhead_end, watts)
            execution.energy_joules += watts * self.contention.switch_overhead_s
            execution.busy_seconds += self.contention.switch_overhead_s
            self._last_update = overhead_end

    def preempt(self, now: float) -> TaskExecution:
        """Stop the running task at ``now`` and hand its state back."""
        self.advance(now)
        if self.current is None:
            raise RuntimeError(f"core {self.index} has nothing to preempt")
        execution = self.current
        execution.preemptions += 1
        self.current = None
        return execution

    def complete(self, now: float) -> TaskExecution:
        """Finish the running task at ``now`` (must have zero cycles left)."""
        self.advance(now)
        if self.current is None:
            raise RuntimeError(f"core {self.index} has nothing to complete")
        execution = self.current
        if not execution.done:
            raise RuntimeError(
                f"task {execution.task.task_id} completed with "
                f"{execution.remaining_cycles} cycles remaining"
            )
        execution.remaining_cycles = 0.0
        execution.finished_at = now
        self.current = None
        return execution

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"running {self.current.task.task_id}" if self.current else "idle"
        return f"SimCore({self.index}, {self.rate:g} GHz, {state})"

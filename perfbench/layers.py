"""Per-layer host-time split, recorded from outside the program.

:class:`LayerClock` keeps a stack of open spans. Each wrapped call
pushes a span, and on return books its *self* time (duration minus the
wrapped calls it made) to its layer, adds its full duration to the
parent span's child time, and counts the call. Spans are aggregated,
not stored: Fig. 3 makes millions of wrapped calls.

:func:`installed` patches the public entry points of each layer for the
duration of a ``with`` block and restores them afterwards. Call sites
the benchmark owns itself (``run_online``, the batch planners,
``run_batch``, the trace generator, the policy) are wrapped where the
benchmark calls them instead.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: The ``OnlinePolicy`` protocol calls the runner makes.
POLICY_METHODS = (
    "select_core",
    "enqueue_noninteractive",
    "dequeue_noninteractive",
    "rate_for_noninteractive",
    "rate_for_interactive",
    "on_complete",
)


class LayerClock:
    """Span stack plus per-layer self seconds and call counts."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        # one [layer, seconds spent in wrapped children] per open span
        self._stack: list[list[Any]] = []

    def wrap(self, layer: str, fn: Callable[..., Any],
             count: str | None = None) -> Callable[..., Any]:
        """``fn`` timed as a span of ``layer``; each call is counted
        under ``count`` (default: the layer name)."""
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter
        count = count or layer

        def span(*args: Any, **kwargs: Any) -> Any:
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                calls[count] += 1
                if stack:
                    stack[-1][1] += elapsed

        return span

    def take(self) -> dict[str, dict[str, Any]]:
        """Return and reset everything booked since the last ``take``."""
        snap = {"self_s": dict(self.self_s), "calls": dict(self.calls)}
        self.self_s.clear()
        self.calls.clear()
        return snap


class TracedPolicy:
    """An ``OnlinePolicy`` whose protocol calls are ``policy`` spans."""

    def __init__(self, inner: Any, clock: LayerClock) -> None:
        self.n_cores = inner.n_cores
        for name in POLICY_METHODS:
            method = getattr(inner, name, None)
            if method is not None:
                setattr(self, name, clock.wrap("policy", method))


@contextmanager
def installed(clock: LayerClock, online: bool) -> Iterator[None]:
    """Patch the layer entry points; ``online`` adds the simulator ones.

    On the batch workload the ``SimCore``/``PowerMeter`` calls stay
    unwrapped, so ``batch.sim_s`` covers the batch runner with the
    platform calls it makes.
    """
    from repro.core.dominating import DominatingRanges
    from repro.core.dynamic import DynamicCostIndex
    from repro.governors.ondemand import OnDemandGovernor
    from repro.simulator.engine import Simulation
    from repro.simulator.platform import SimCore
    from repro.simulator.power import PowerMeter

    saved: list[tuple[type, str, Any]] = []

    def patch(cls: type, name: str, make: Callable[[Any], Any]) -> None:
        original = cls.__dict__[name]
        saved.append((cls, name, original))
        setattr(cls, name, make(original))

    patch(DominatingRanges, "from_cost_model",
          lambda cm: classmethod(clock.wrap("dominating", cm.__func__)))
    if online:
        patch(SimCore, "advance", lambda f: clock.wrap("platform", f))
        patch(PowerMeter, "record_busy", lambda f: clock.wrap("power", f, "power.busy"))
        patch(PowerMeter, "record_idle", lambda f: clock.wrap("power", f, "power.idle"))
        patch(Simulation, "at", lambda f: clock.wrap("engine", f))
        patch(OnDemandGovernor, "on_sample", lambda f: clock.wrap("governor", f))
        # timing only: LMC's own counters give the insert, delete and probe
        # counts, without the mutations a probe makes and undoes
        for name in ("insert", "delete", "marginal_insert_cost"):
            patch(DynamicCostIndex, name, lambda f: clock.wrap("dynamic", f))
    try:
        yield
    finally:
        for cls, name, original in reversed(saved):
            setattr(cls, name, original)

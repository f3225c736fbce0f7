"""Discrete-event simulation core.

A :class:`Simulation` owns a clock and a priority queue of timestamped
callbacks. Events at equal timestamps fire in schedule order (FIFO), so
runs are fully deterministic: the heap holds ``(time, seq, handle)``
tuples, so it orders by time and then by schedule sequence number, and
compares them in C. Callbacks may schedule further events and
may cancel previously scheduled ones via the returned handle.

A run may also carry one pre-sorted *stream* of events (:meth:`Simulation.feed`),
such as an online trace's arrivals. The stream never enters the heap: the
firing loop merges its head with the heap's, and a stream event fires
before any queued event with an equal timestamp — the order it would get
had every stream event been scheduled with :meth:`Simulation.at` before
the run started.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional, Sequence, TypeVar

from repro.models.tolerances import STRICT_ABS_TOL

T = TypeVar("T")


class EventHandle:
    """Cancellation token for a scheduled event."""

    __slots__ = ("time", "callback", "cancelled", "label")

    def __init__(self, time: float, callback: Callable[[], None], label: str) -> None:
        self.time = time
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        self.cancelled = True
        self.callback = None  # free references early

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:g}, {self.label!r}, {state})"


class Simulation:
    """Clock + event queue. Time is in seconds, starts at 0.

    ``tracer`` (see :mod:`repro.obs.tracer`) is an opt-in firehose: it
    records one ``sim.event`` per non-cancelled callback fired, stamped
    with simulated time and the event's label. Runners that emit their
    own structured events (``sim.dispatch`` / ``sim.complete`` / …)
    normally leave it ``None`` — the default costs one ``is not None``
    test per event.
    """

    def __init__(self, tracer=None) -> None:
        self.now = 0.0
        # (time, seq, handle): seq is unique, so handles are never compared
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._events_fired = 0
        self._tracer = tracer
        # the fed stream: sorted times, their payloads, the callback and
        # the index of the next unfired entry
        self._stream_times: Sequence[float] = ()
        self._stream_items: Sequence[Any] = ()
        self._stream_callback: Callable[[Any], None] = _no_stream
        self._stream_label = ""
        self._stream_pos = 0

    # -- scheduling -------------------------------------------------------------
    def at(self, time: float, callback: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if math.isnan(time):
            raise ValueError("event time is NaN")
        if time < self.now - STRICT_ABS_TOL:
            raise ValueError(f"cannot schedule in the past: t={time} < now={self.now}")
        time = max(time, self.now)
        seq = next(self._seq)
        handle = EventHandle(time, callback, label)
        heapq.heappush(self._queue, (time, seq, handle))
        return handle

    def after(self, delay: float, callback: Callable[[], None], label: str = "") -> EventHandle:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.at(self.now + delay, callback, label)

    def feed(self, times: Sequence[float], items: Sequence[T],
             callback: Callable[[T], None], label: str = "") -> None:
        """Fire ``callback(items[i])`` at ``times[i]`` for every ``i``, in order.

        ``times`` must be non-decreasing and not in the past. The stream
        is merged with the event queue as the run goes: at an equal
        timestamp a stream event fires before every queued event. Only
        one stream may be pending at a time.
        """
        if len(times) != len(items):
            raise ValueError("times and items must align")
        if self._stream_pos < len(self._stream_times):
            raise RuntimeError("a fed stream is still pending")
        if any(math.isnan(t) for t in times):
            raise ValueError("event time is NaN")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("stream times must be non-decreasing")
        if times and times[0] < self.now - STRICT_ABS_TOL:
            raise ValueError(f"cannot schedule in the past: t={times[0]} < now={self.now}")
        self._stream_times = [max(t, self.now) for t in times]
        self._stream_items = items
        self._stream_callback = callback
        self._stream_label = label
        self._stream_pos = 0

    # -- execution --------------------------------------------------------------
    def run(self, until: float = math.inf, max_events: int = 50_000_000) -> None:
        """Fire events in time order until the queue drains or ``until``.

        Events scheduled exactly at ``until`` still fire; the clock
        never advances past the last fired event (or ``until`` if
        finite and events remain beyond it).
        """
        self._fire(until, max_events, single=False)

    def step(self) -> bool:
        """Fire exactly one (non-cancelled) event. Returns False if drained."""
        return self._fire(math.inf, math.inf, single=True)

    def _fire(self, until: float, max_events: float, single: bool) -> bool:
        """The one firing loop: merge the stream with the heap, fire the
        earlier head (the stream's on a tie) and repeat. Returns whether
        an event fired before the run stopped."""
        queue = self._queue
        fired = False
        while True:
            times, pos = self._stream_times, self._stream_pos
            if pos < len(times) and (not queue or times[pos] <= queue[0][0]):
                time = times[pos]
                if time > until:
                    break
                self._stream_pos = pos + 1
                callback: Optional[Callable[[], None]] = None
                label = self._stream_label
            elif queue:
                time, _, head = queue[0]
                if time > until:
                    break
                heapq.heappop(queue)
                if head.cancelled:
                    continue
                callback = head.callback
                assert callback is not None
                label = head.label
            else:
                return fired
            self.now = time
            self._events_fired += 1
            if self._events_fired > max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events — runaway loop?")
            if self._tracer is not None:
                self._tracer.emit("sim.event", {"time": time, "label": label}, time=time)
            if callback is None:
                self._stream_callback(self._stream_items[pos])
            else:
                callback()
            fired = True
            if single:
                return True
        # the next event lies beyond a finite ``until``
        if not math.isinf(until):
            self.now = until
        return fired

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled queued events, unfired stream
        events included."""
        queued = sum(1 for _, _, h in self._queue if not h.cancelled)
        return queued + len(self._stream_times) - self._stream_pos

    @property
    def events_fired(self) -> int:
        """Events fired so far, stream events included."""
        return self._events_fired


def _no_stream(item: Any) -> None:  # pragma: no cover - never fires
    raise AssertionError("no stream was fed")

"""Tests for the discrete-event simulation core."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulator.engine import Simulation


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulation()
        fired = []
        sim.at(3.0, lambda: fired.append("c"))
        sim.at(1.0, lambda: fired.append("a"))
        sim.at(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_equal_times_fifo(self):
        sim = Simulation()
        fired = []
        for i in range(5):
            sim.at(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_after_is_relative(self):
        sim = Simulation()
        seen = []
        sim.at(5.0, lambda: sim.after(2.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [7.0]

    def test_rejects_past_and_nan(self):
        sim = Simulation()
        sim.at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(4.0, lambda: None)
        with pytest.raises(ValueError):
            sim.at(math.nan, lambda: None)
        with pytest.raises(ValueError):
            sim.after(-1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.feed([4.0], [None], lambda _: None)
        with pytest.raises(ValueError):
            sim.feed([6.0, math.nan], [None, None], lambda _: None)
        with pytest.raises(ValueError):
            sim.feed([7.0, 6.0], [None, None], lambda _: None)

    def test_cancellation(self):
        sim = Simulation()
        fired = []
        h = sim.at(1.0, lambda: fired.append("x"))
        sim.at(2.0, lambda: fired.append("y"))
        h.cancel()
        sim.run()
        assert fired == ["y"]

    def test_cancel_from_within_event(self):
        sim = Simulation()
        fired = []
        h2 = sim.at(2.0, lambda: fired.append("late"))
        sim.at(1.0, lambda: h2.cancel())
        sim.run()
        assert fired == []

    def test_pending_counts_live_events(self):
        sim = Simulation()
        h = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        assert sim.pending == 2
        h.cancel()
        assert sim.pending == 1


class TestRunControl:
    def test_run_until_stops_clock(self):
        sim = Simulation()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0
        sim.run()
        assert fired == [1, 5]

    def test_event_exactly_at_until_fires(self):
        sim = Simulation()
        fired = []
        sim.at(3.0, lambda: fired.append(3))
        sim.run(until=3.0)
        assert fired == [3]

    def test_step_fires_one(self):
        sim = Simulation()
        fired = []
        sim.at(1.0, lambda: fired.append(1))
        sim.at(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_runaway_guard(self):
        sim = Simulation()

        def rearm():
            sim.after(0.001, rearm)

        sim.after(0.001, rearm)
        with pytest.raises(RuntimeError, match="runaway"):
            sim.run(max_events=100)

    def test_events_fired_counter(self):
        sim = Simulation()
        for t in (1.0, 2.0, 3.0):
            sim.at(t, lambda: None)
        sim.run()
        assert sim.events_fired == 3


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=0, max_size=50))
    def test_fire_order_is_sorted(self, times):
        sim = Simulation()
        fired = []
        for t in times:
            sim.at(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == sorted(times)
        assert sim.events_fired == len(times)

        # the same times split between a fed stream and the heap: the
        # merged firing order is still sorted, and on a tie every stream
        # event fires before every queued one
        sim = Simulation()
        fired = []
        streamed = sorted(times[::2])
        for t in times[1::2]:
            sim.at(t, lambda t=t: fired.append((t, 1)))
        sim.feed(streamed, streamed, lambda t: fired.append((t, 0)))
        sim.run()
        assert fired == sorted(fired)
        assert sorted(t for t, _ in fired) == sorted(times)
        assert sim.events_fired == len(times)


class TestRandomizedSchedule:
    """Random ``at``/``feed``/``cancel`` runs checked against bookkeeping
    the test keeps itself."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fire_order_cancels_and_pending(self, seed):
        rng = random.Random(seed)
        sim = Simulation()
        fired = []  # (time, source, order), source 0 = stream, 1 = heap
        live = {}  # order -> handle of a scheduled, uncancelled, unfired event
        cancelled = set()
        scheduled = []

        def schedule(time):
            k = len(scheduled)
            scheduled.append(k)
            live[k] = sim.at(time, lambda k=k: on_event(k))

        def on_event(k):
            fired.append((sim.now, 1, k))
            del live[k]
            react()

        def react():
            # small integer delays make equal timestamps common
            for _ in range(rng.randrange(3)):
                schedule(sim.now + rng.randrange(3))
            if live and rng.random() < 0.3:
                k = rng.choice(sorted(live))
                live.pop(k).cancel()
                cancelled.add(k)

        def on_arrival(k):
            fired.append((sim.now, 0, k))
            react()

        stream = sorted(rng.randrange(20) for _ in range(30))
        for _ in range(20):
            schedule(float(rng.randrange(20)))
        sim.feed([float(t) for t in stream], range(-len(stream), 0), on_arrival)
        streamed = len(stream)
        assert sim.pending == len(live) + streamed
        while sim.step():
            streamed = len(stream) - sum(1 for _, src, _ in fired if src == 0)
            assert sim.pending == len(live) + streamed

        assert not live and sim.pending == 0
        # time order; at one instant the stream first, then the heap in
        # schedule order
        assert fired == sorted(fired)
        heap_fired = [k for _, src, k in fired if src == 1]
        assert not cancelled & set(heap_fired)
        assert len(heap_fired) == len(set(heap_fired))
        assert len(heap_fired) + len(cancelled) == len(scheduled)
        assert [k for _, src, k in fired if src == 0] == list(range(-len(stream), 0))
        assert sim.events_fired == len(fired)
        assert cancelled  # the run exercised cancellation

"""Policy-level oracle for online OLB's cached queue sums.

The simulator-level ``online_ref`` check shares the policy class with the
fast path, so it cannot see a stale cache inside the policy. These tests
drive :class:`OLBOnlineScheduler` directly and compare every ready-time
estimate, bit for bit, with the uncached formula over a FIFO the test
keeps itself.
"""

import random

import pytest

from repro.models.rates import I7_950, TABLE_II
from repro.models.task import Task, TaskKind
from repro.schedulers import OLBOnlineScheduler
from repro.simulator.online_runner import CoreView

#: Few distinct sizes, so queues on different cores often hold equal
#: cycles; fractions whose float sums depend on the order of addition.
CYCLE_CHOICES = (0.1, 0.2, 0.3, 1.0, 2.5, 1e-3, 7.25)


def uncached_ready_in(table, view, kind, queue):
    """OLB's ready-to-execute time, recomputed from scratch."""
    t_max = table.time(table.max_rate)
    interactive_ahead = view.interactive_backlog_cycles
    if view.running_kind is TaskKind.INTERACTIVE:
        interactive_ahead += view.running_remaining_cycles
    if kind is TaskKind.INTERACTIVE:
        return interactive_ahead * t_max
    committed = interactive_ahead + view.preempted_remaining_cycles
    if view.running_kind is TaskKind.NONINTERACTIVE:
        committed += view.running_remaining_cycles
    committed += sum(t.cycles for t in queue)
    return committed * t_max


def random_view(rng, j, idle):
    """A core snapshot; ``idle`` gives every core the same empty state,
    so equal queues give equal ready times."""
    if idle:
        return CoreView(j, TABLE_II.max_rate, None, 0.0, 0.0, 0, 0)
    kind = rng.choice((None, TaskKind.INTERACTIVE, TaskKind.NONINTERACTIVE))
    backlog = rng.choice((0, 0.0, rng.choice(CYCLE_CHOICES)))
    return CoreView(
        j,
        TABLE_II.max_rate,
        kind,
        rng.choice(CYCLE_CHOICES) if kind is not None else 0.0,
        rng.choice((0.0, rng.random())),
        1 if backlog else 0,
        backlog,
    )


def drive(seed, n_cores, tables):
    """Random enqueue/dequeue/select_core steps; returns coverage counts."""
    rng = random.Random(seed)
    policy = OLBOnlineScheduler(tables, n_cores)
    per_core = tables if isinstance(tables, list) else [tables] * n_cores
    queues = [[] for _ in range(n_cores)]
    seen = {"empty": 0, "equal_queues": 0, "tie": 0, "selects": 0}
    next_id = 0
    for _ in range(400):
        op = rng.random()
        if op < 0.25:
            # one core, or the same size on every core (equal queues)
            cycles = rng.choice(CYCLE_CHOICES)
            targets = range(n_cores) if op < 0.1 else [rng.randrange(n_cores)]
            for j in targets:
                task = Task(cycles, task_id=next_id, kind=TaskKind.NONINTERACTIVE)
                next_id += 1
                policy.enqueue_noninteractive(j, task)
                queues[j].append(task)
        elif op < 0.6:
            # one core, or every core, empty queues included
            targets = range(n_cores) if op < 0.35 else [rng.randrange(n_cores)]
            for j in targets:
                expected = queues[j].pop(0) if queues[j] else None
                assert policy.dequeue_noninteractive(j) is expected
        else:
            kind = rng.choice((TaskKind.INTERACTIVE, TaskKind.NONINTERACTIVE))
            idle = rng.random() < 0.5
            views = [random_view(rng, j, idle) for j in range(n_cores)]
            task = Task(1.0, task_id=next_id, kind=kind)
            next_id += 1
            want = [uncached_ready_in(per_core[j], views[j], kind, queues[j])
                    for j in range(n_cores)]
            # _ready_in is called twice per core: once filling the cache
            # (if stale), once reading it
            for _ in range(2):
                got = [policy._ready_in(j, views[j], kind) for j in range(n_cores)]
                assert [g.hex() for g in map(float, got)] == [w.hex() for w in map(float, want)]
            chosen = policy.select_core(task, views)
            assert chosen == min(range(n_cores), key=lambda j: (want[j], j))
            seen["selects"] += 1
            seen["empty"] += sum(1 for q in queues if not q)
            if kind is TaskKind.NONINTERACTIVE:
                sums = [sum(t.cycles for t in q) for q in queues if q]
                seen["equal_queues"] += len(sums) > len(set(sums))
                seen["tie"] += want.count(want[chosen]) > 1
    return seen


class TestQueueSumCache:
    @pytest.mark.parametrize("seed", range(6))
    def test_ready_times_match_uncached_sum(self, seed):
        seen = drive(seed, n_cores=3, tables=TABLE_II)
        # the sequences must reach the cases the cache could get wrong
        assert seen["empty"] > 0
        assert seen["equal_queues"] > 0  # equal non-empty sums on two cores
        assert seen["tie"] > 0  # equal ready times: the lowest index wins

    def test_heterogeneous_tables(self):
        seen = drive(11, n_cores=2, tables=[TABLE_II, I7_950])
        assert seen["selects"] > 0

    def test_single_core(self):
        drive(5, n_cores=1, tables=TABLE_II)

    def test_dequeue_of_empty_queue_keeps_estimate(self):
        policy = OLBOnlineScheduler(TABLE_II, 2)
        view = CoreView(0, TABLE_II.max_rate, None, 0.0, 0.0, 0, 0)
        assert policy._ready_in(0, view, TaskKind.NONINTERACTIVE) == 0.0
        assert policy.dequeue_noninteractive(0) is None
        policy.enqueue_noninteractive(0, Task(3.0, task_id=1))
        assert policy._ready_in(0, view, TaskKind.NONINTERACTIVE) == 3.0 * TABLE_II.time(3.0)
        assert policy.dequeue_noninteractive(0).task_id == 1
        assert policy._ready_in(0, view, TaskKind.NONINTERACTIVE) == 0.0

"""Run the pinned bench suite and assemble a :class:`BenchReport`.

Thin deterministic driver: resolve scenario names, run each once under
the requested profile (``full`` or ``quick``), and collect the results.
With ``jobs > 1`` the scenarios fan out across worker processes through
:mod:`repro.parallel` — wall times are still measured per scenario
*inside* its worker, and the deterministic halves (ops, checksums,
params) are bit-identical to a serial run, so the regression gate works
unchanged. All policy — thresholds, baselines, exit codes — lives in
:mod:`repro.perf.report`; the scenarios and their pinned inputs in
:mod:`repro.scenarios`.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Optional, Sequence, Tuple, TypeVar

from repro.perf.report import BenchReport, ScenarioResult
from repro.scenarios import SCENARIOS, lookup

T = TypeVar("T")

#: Default best-of repeats per profile. Quick uses *more* repeats than
#: full: its workloads are tiny, so per-run jitter is proportionally
#: larger and best-of-5 is what keeps a 25% gate honest in CI.
DEFAULT_REPEATS = {"full": 3, "quick": 5}


def _timed(fn: Callable[[], T], repeats: int) -> tuple[float, T]:
    """Best-of-``repeats`` wall time for ``fn`` (plus its last result).

    One untimed warmup run first, so lazy imports and cache fills are
    paid before the clock starts — the kernels are measured in steady
    state, which is what the regression gate should compare. The cyclic
    garbage collector is paused around the timed region (after one
    explicit collection): a mid-run GC pass is the single biggest source
    of best-of-N jitter at quick-profile workload sizes, and the 25%
    gate should spend its slack on machine noise, not allocator luck.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    fn()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        best = float("inf")
        result: T
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best, result


def bench_scenario(name: str, quick: bool, repeats: int) -> ScenarioResult:
    """Run scenario ``name`` at its ``quick`` or ``full`` inputs, timing
    its measured region best-of-``repeats``; the inputs are the params."""
    scenario = lookup(name)
    inputs = scenario.inputs["quick" if quick else "full"]
    wall: dict[str, float] = {}

    def timed(fn: Callable[[], T]) -> T:
        wall["run"], result = _timed(fn, repeats)
        return result

    outcome = scenario.run(inputs, timed=timed)
    return ScenarioResult(
        name=name,
        params=dict(inputs),
        wall_time_s=wall,
        ops=outcome.ops,
        checksum=outcome.checksum,
    )


def _bench_worker(payload: Tuple[str, bool, int], seed: int) -> ScenarioResult:
    """Run one scenario in a worker process.

    The derived ``seed`` is unused: bench scenarios pin their own seeds
    (that is what makes their ops/checksums machine-independent), so the
    executor's seed plumbing is inert here by design.
    """
    return bench_scenario(*payload)


def run_bench(
    scenarios: Optional[Sequence[str]] = None,
    quick: bool = False,
    repeats: Optional[int] = None,
    jobs: int = 1,
    log: Optional[Callable[[str], None]] = None,
    registry: Optional[Any] = None,
) -> BenchReport:
    """Execute the suite; returns the fresh (uncompared) report.

    Raises ``KeyError`` naming the first unknown scenario. ``log``
    receives one progress line per scenario when provided. ``jobs > 1``
    runs one scenario per shard via :func:`repro.parallel.run_sharded`;
    pass a :class:`~repro.obs.metrics.MetricsRegistry` as ``registry``
    to receive the pool's ``parallel.*`` telemetry.
    """
    profile = "quick" if quick else "full"
    if repeats is None:
        repeats = DEFAULT_REPEATS[profile]
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    names = list(scenarios) if scenarios else list(SCENARIOS)
    for name in names:
        lookup(name)

    results: dict[str, ScenarioResult] = {}
    if jobs > 1 and len(names) > 1:
        from repro.parallel import ParallelConfig, pool_metrics, run_sharded

        run = run_sharded(
            _bench_worker,
            [(name, quick, repeats) for name in names],
            config=ParallelConfig(jobs=jobs, chunk_size=1),
            log=log,
        )
        if registry is not None:
            pool_metrics(run.stats, registry)
        for name, result in zip(names, run.results):
            results[name] = result
            if log is not None:
                log(f"bench [{profile}] {name}: {_times(result)}")
    else:
        for name in names:
            if log is not None:
                log(f"bench [{profile}] {name}: {SCENARIOS[name].description} ...")
            result = bench_scenario(name, quick, repeats)
            results[name] = result
            if log is not None:
                log(f"bench [{profile}] {name}: {_times(result)}")
    return BenchReport(profile=profile, repeats=repeats, scenarios=results)


def _times(result: ScenarioResult) -> str:
    return "  ".join(
        f"{k}={v * 1e3:.1f}ms" for k, v in sorted(result.wall_time_s.items())
    )

"""Deterministic performance harness behind ``repro bench``.

Measures the hot paths (the WBG heap loop, the dynamic index under
churn, the LMC policy in the online simulator) on the pinned seeded
scenarios of :mod:`repro.scenarios`, writes ``BENCH_schedulers.json``
at the repo root, and gates changes against the committed baseline:
exact match required for ops counters / checksums, a relative threshold
(default 25%) for wall times. See docs/PERFORMANCE.md.
"""

from repro.perf.report import (
    DEFAULT_THRESHOLD,
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_REGRESSION,
    SCHEMA_VERSION,
    SUITE_NAME,
    TIME_NOISE_FLOOR_S,
    BenchReport,
    Comparison,
    Finding,
    ScenarioResult,
    compare_reports,
    load_report_file,
    render_comparison,
    render_report,
    save_report_file,
)
from repro.perf.runner import DEFAULT_REPEATS, run_bench
from repro.perf.sweep import (
    SWEEP_PROFILE,
    SWEEPS,
    SweepRun,
    SweepSpec,
    record_sweep,
    run_sweep,
    sweep_checksum,
)

__all__ = [
    "SWEEPS",
    "SWEEP_PROFILE",
    "SweepRun",
    "SweepSpec",
    "record_sweep",
    "run_sweep",
    "sweep_checksum",
    "BenchReport",
    "Comparison",
    "DEFAULT_REPEATS",
    "DEFAULT_THRESHOLD",
    "EXIT_CLEAN",
    "EXIT_ERROR",
    "EXIT_REGRESSION",
    "Finding",
    "SCHEMA_VERSION",
    "SUITE_NAME",
    "TIME_NOISE_FLOOR_S",
    "ScenarioResult",
    "compare_reports",
    "load_report_file",
    "render_comparison",
    "render_report",
    "run_bench",
    "save_report_file",
]

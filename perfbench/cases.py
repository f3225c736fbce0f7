"""The benchmark's three workloads, built from a seed.

Every input is a pure function of ``(workload, seed, scale)``: the same
arguments give the same trace or pricing grid in any process. ``scale``
shrinks task counts (and the pricing grid) for smoke runs; the timed
benchmark always runs at ``scale=1``.

Nothing here imports :mod:`repro` at module level, so a child process
can start its set-up clock before the first ``repro`` import.
"""

from __future__ import annotations

import random
from dataclasses import replace

#: Workload names, in the order ``BENCHMARK.json`` lists them.
WORKLOADS = ("fig3_online", "deep_queue_online", "batch_pricing_grid")
ONLINE = ("fig3_online", "deep_queue_online")

#: Seed recorded in ``expected.json``; the Fig. 3 trace's own default.
DEFAULT_SEED = 2014

#: Pricing of the paper's online (Fig. 3) and batch (Fig. 2) experiments.
RE_ONLINE, RT_ONLINE = 0.4, 0.1
RE_BATCH, RT_BATCH = 0.1, 0.4
N_CORES_ONLINE = 4

#: Arms per workload family: the paper's scheduler, OLB, and the
#: power-management baseline.
ONLINE_ARMS = ("lmc", "olb", "od")
BATCH_ARMS = ("wbg", "olb", "ps")

#: Deep-queue trace: few interactive tasks, many small judging tasks.
DEEP_INTERACTIVE = 5_000
DEEP_NONINTERACTIVE = 12_000

#: Batch grid: seeded (Re, Rt) pricings, each at every core count.
GRID_PRICINGS = 200
GRID_CORES = (1, 2, 4, 8, 16)
PAPER_CELL = (RE_BATCH, RT_BATCH, 4)
#: Log10 bounds of the drawn Re and Rt (cents per joule / per second).
GRID_LOG10_RANGE = (-2.0, 0.0)

#: Savings the paper reports (percent of total cost).
PAPER_FIG3_LMC_VS_OLB = -17.0
PAPER_FIG2_WBG_VS_OLB = -27.0


def judge_config(workload: str, seed: int, scale: float = 1.0):
    """The :class:`JudgeTraceConfig` of an online workload."""
    from repro.workloads import JudgeTraceConfig

    base = JudgeTraceConfig(seed=seed)
    if workload == "fig3_online":
        cfg = base
    elif workload == "deep_queue_online":
        # Same generator and exam-burst shape; the judging work is spread
        # over 12,000 smaller submissions so its total matches Fig. 3.
        shrink = base.n_noninteractive / DEEP_NONINTERACTIVE
        cfg = replace(
            base,
            n_interactive=DEEP_INTERACTIVE,
            n_noninteractive=DEEP_NONINTERACTIVE,
            problem_medians=tuple(m * shrink for m in base.problem_medians),
        )
    else:
        raise ValueError(f"{workload!r} is not an online workload")
    if scale != 1.0:
        cfg = replace(
            cfg,
            n_interactive=max(1, round(cfg.n_interactive * scale)),
            n_noninteractive=max(1, round(cfg.n_noninteractive * scale)),
            duration_s=cfg.duration_s * scale,
        )
    return cfg


def pricing_grid(seed: int, scale: float = 1.0) -> list[tuple[float, float, int]]:
    """``(Re, Rt, cores)`` cells: the paper cell first, then seeded draws.

    Re and Rt are log-uniform over :data:`GRID_LOG10_RANGE`, so the grid
    spans energy-dominated to waiting-dominated pricings on both sides
    of the paper's 0.1 : 0.4.
    """
    rng = random.Random(seed)
    lo, hi = GRID_LOG10_RANGE
    n = max(1, round(GRID_PRICINGS * scale))
    pricings = [(RE_BATCH, RT_BATCH)]
    while len(pricings) < n:
        pricings.append((10 ** rng.uniform(lo, hi), 10 ** rng.uniform(lo, hi)))
    return [(re, rt, cores) for re, rt in pricings for cores in GRID_CORES]

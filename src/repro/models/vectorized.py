"""NumPy-vectorised cost kernels for large batches.

The pure-Python evaluators in :mod:`repro.models.cost` are the readable
reference; for parameter sweeps over 10⁵-task batches the interpreter
loop dominates. This module vectorises whole-schedule cost evaluation,
the optimal-cost sum ``Σ CB*(k)·L^B_k`` and batched positional costs
``C(k,p)`` with NumPy. No scheduling decision depends on it.

Agreement with the scalar implementations is property-tested; the
speedup is measured in ``benchmarks/bench_ablation_vectorized.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.dominating import DominatingRanges
from repro.models.cost import CoreSchedule, CostModel


def core_cost_vectorized(model: CostModel, schedule: CoreSchedule) -> float:
    """Vectorised Equation 8 for one core's sequence.

    ``O(n)`` NumPy ops instead of a Python loop: execution times via a
    rate→T lookup, turnarounds via ``cumsum``.
    """
    n = len(schedule)
    if n == 0:
        return 0.0
    table = model.table
    rate_index = {p: i for i, p in enumerate(table.rates)}
    idx = np.fromiter(
        (rate_index[pl.rate] for pl in schedule), dtype=np.intp, count=n
    )
    cycles = np.fromiter((pl.task.cycles for pl in schedule), dtype=np.float64, count=n)
    times = np.asarray(table.time_per_cycle)[idx] * cycles
    energies = np.asarray(table.energy_per_cycle)[idx] * cycles
    turnarounds = np.cumsum(times)
    return float(model.re * energies.sum() + model.rt * turnarounds.sum())


def optimal_cost_vectorized(
    model: CostModel,
    cycles: Sequence[float] | np.ndarray,
    ranges: Optional[DominatingRanges] = None,
) -> float:
    """Vectorised ``Σ CB*(k)·L^B_k`` — the single-core optimal cost.

    Sorts descending (backward positions), builds the per-position
    ``CB*`` vector from the dominating ranges without looping over
    positions (each range contributes an arithmetic-progression slice),
    and reduces with one dot product.
    """
    L = np.sort(np.asarray(cycles, dtype=np.float64))[::-1]
    n = L.size
    if n == 0:
        return 0.0
    if np.any(L <= 0):
        raise ValueError("cycle counts must be positive")
    if ranges is None:
        ranges = DominatingRanges.from_cost_model(model)

    cb = np.empty(n, dtype=np.float64)
    k = np.arange(1, n + 1, dtype=np.float64)
    for r in ranges:
        lo = r.lo
        hi = n + 1 if r.hi is None else min(r.hi, n + 1)
        if lo > n or lo >= hi:
            continue
        sl = slice(lo - 1, hi - 1)
        cb[sl] = (
            model.re * model.table.energy(r.rate)
            + k[sl] * model.rt * model.table.time(r.rate)
        )
    return float(cb @ L)


def positional_cost_table(
    model: CostModel, max_position: int, ranges: Optional[DominatingRanges] = None
) -> np.ndarray:
    """``CB*(1..max_position)`` as one array (precompute for sweeps)."""
    if max_position < 1:
        raise ValueError("max_position must be >= 1")
    if ranges is None:
        ranges = DominatingRanges.from_cost_model(model)
    out = np.empty(max_position, dtype=np.float64)
    _fill_positional(ranges, out)
    return out


def _fill_positional(ranges: DominatingRanges, cost_out: np.ndarray) -> None:
    """Fill ``cost_out[k-1] = CB*(k)``.

    The expression mirrors ``CostModel.backward_position_cost`` term by
    term — ``(Re·E) + ((k·Rt)·T)`` in that association — so the array
    entries are bit-identical to the scalar evaluator's returns.
    """
    model = ranges.model
    n = cost_out.shape[0]
    k = np.arange(1, n + 1, dtype=np.float64)
    for r in ranges:
        lo = r.lo
        hi = n + 1 if r.hi is None else min(r.hi, n + 1)
        if lo > n or lo >= hi:
            continue
        sl = slice(lo - 1, hi - 1)
        cost_out[sl] = (
            model.re * model.table.energy(r.rate)
            + k[sl] * model.rt * model.table.time(r.rate)
        )


def backward_cost_matrix(model: CostModel, max_position: int) -> np.ndarray:
    """Batched ``CB(k, p)`` — shape ``(max_position, |P|)``.

    Row ``k-1`` holds the backward positional cost of every rate at
    position ``k``; ``min`` along axis 1 is ``CB*`` and ``argmin`` (with
    the paper's tie-to-higher-rate rule: reverse argmin) reproduces the
    brute-force rate scan, which is how the golden tests cross-check
    Algorithm 1 without a Python loop.
    """
    if max_position < 1:
        raise ValueError("max_position must be >= 1")
    table = model.table
    k = np.arange(1, max_position + 1, dtype=np.float64)[:, None]
    e = np.asarray(table.energy_per_cycle)
    t = np.asarray(table.time_per_cycle)
    return model.re * e + k * model.rt * t

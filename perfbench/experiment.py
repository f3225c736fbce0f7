"""One cold repetition of a workload, run in its own process.

``run.py`` starts this script once per repetition, the way a user starts
``python -m repro fig3``, so import and set-up costs are paid every
time. It prints one JSON object: host times, peak memory, the outputs
the checks compare, and (with ``--trace 1``) the per-layer split.

    PYTHONPATH=src python3 perfbench/experiment.py --workload fig3_online --seed 2014 --trace 0
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before repro is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from typing import Any  # noqa: E402

import cases  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402


def _error() -> str:
    return traceback.format_exc(limit=3).strip().splitlines()[-1]


def reference_s() -> float:
    """Seconds this process takes for a fixed stdlib loop.

    The loop uses no ``repro`` code (heap, dict and float work, as the
    simulator does), so no change to the program moves it; only the
    speed of the machine at that moment does. See ``README.md``.
    """
    start = time.perf_counter()
    heap: list[tuple[int, int]] = []
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(180_000):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        table[i % 977] = table.get(i % 977, 0.0) + i * 0.5
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    return time.perf_counter() - start


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_online(workload: str, seed: int, scale: float, clock: "layers.LayerClock | None",
                  setup_only: bool) -> dict[str, Any]:
    from repro.governors import OnDemandGovernor
    from repro.models.rates import TABLE_II
    from repro.schedulers import (
        LMCOnlineScheduler,
        OLBOnlineScheduler,
        OnDemandRoundRobinScheduler,
    )
    from repro.simulator import run_online
    from repro.workloads import generate_judge_trace

    generate, simulate = generate_judge_trace, run_online
    if clock is not None:
        generate = clock.wrap("workloads", generate_judge_trace)
        simulate = clock.wrap("runner", run_online)
    n = cases.N_CORES_ONLINE
    trace = generate(cases.judge_config(workload, seed, scale))
    policies = {
        "lmc": LMCOnlineScheduler(TABLE_II, n, cases.RE_ONLINE, cases.RT_ONLINE),
        "olb": OLBOnlineScheduler(TABLE_II, n),
        "od": OnDemandRoundRobinScheduler(n),
    }
    governors = {"od": [OnDemandGovernor(TABLE_II) for _ in range(n)]}
    setup_s = time.perf_counter() - _T0
    if setup_only:
        return {"setup_s": setup_s}
    spans = {"setup": clock.take()} if clock is not None else {}

    results: dict[str, Any] = {}
    errors: dict[str, str] = {}
    arm_s: dict[str, float] = {}
    refs = [reference_s()]  # one before each arm and one after the last
    for arm in cases.ONLINE_ARMS:
        policy = policies[arm] if clock is None else layers.TracedPolicy(policies[arm], clock)
        start = time.perf_counter()
        try:
            results[arm] = simulate(trace, policy, TABLE_II, governors=governors.get(arm))
        except Exception:  # an arm that raises is a failed arm, not a crashed run
            errors[arm] = _error()
        arm_s[arm] = time.perf_counter() - start
        if clock is not None:
            spans[arm] = clock.take()
        refs.append(reference_s())
    # each arm is measured against the reference samples on either side of it
    arm_ref_s = {arm: (refs[k] + refs[k + 1]) / 2 for k, arm in enumerate(cases.ONLINE_ARMS)}
    return {"setup_s": setup_s, "run_s": sum(arm_s.values()), "arm_s": arm_s,
            "arm_ref_s": arm_ref_s, "ref_s": sum(refs) / len(refs), "setup_ref_s": refs[0],
            "peak_rss_mb": _peak_rss_mb(), "trace": trace, "results": results, "errors": errors, "spans": spans,
            "policies": policies}


def _checked_online(workload: str, scale: float, timed: dict[str, Any],
                    expected: dict[str, Any] | None, audit: bool) -> dict[str, Any]:
    from repro.analysis.metrics import improvement_summary

    trace, results = timed["trace"], timed["results"]
    problems = {arm: [f"raised {msg}"] for arm, msg in timed["errors"].items()}
    outputs: dict[str, Any] = {}
    audit_s = 0.0
    for arm, result in results.items():
        outputs[arm] = {
            "digest": checks.online_digest(trace, result),
            "energy_j": result.energy_joules,
            "cost": result.cost(cases.RE_ONLINE, cases.RT_ONLINE).total_cost,
        }
        start = time.perf_counter()
        found = checks.online_invariants(trace, result, cases.N_CORES_ONLINE) if audit else []
        audit_s += time.perf_counter() - start
        if expected is not None:
            found += checks.compare_recorded(outputs[arm], expected[arm])
        if found:
            problems[arm] = found
    depth = 0
    if "lmc" in results:
        depth = checks.queue_depth_max(results["lmc"])
        if scale == 1.0:
            edge = checks.deepest_range_edge(cases.RE_ONLINE, cases.RT_ONLINE)
            guard = checks.queue_guard(workload, depth, edge)
            if guard:
                problems.setdefault("lmc", []).extend(guard)
    gap = None
    if "lmc" in results and "olb" in results:
        costs = {arm: results[arm].cost(cases.RE_ONLINE, cases.RT_ONLINE)
                 for arm in ("lmc", "olb")}
        saving = improvement_summary(costs, "lmc", "olb")["total_pct"]
        gap = abs(saving - cases.PAPER_FIG3_LMC_VS_OLB)
    return {"outputs": outputs, "problems": problems, "paper_gap_pp": gap,
            "queue_depth_max": depth, "attempted": len(cases.ONLINE_ARMS),
            "failed": len(problems), "audit_s": audit_s}


def _timed_batch(seed: int, scale: float, clock: "layers.LayerClock | None",
                 setup_only: bool) -> dict[str, Any]:
    from repro.models.rates import TABLE_II
    from repro.schedulers import olb_plan, power_saving_plan, wbg_plan
    from repro.simulator import run_batch
    from repro.workloads import spec_tasks

    tasks = spec_tasks()
    cells = cases.pricing_grid(seed, scale)
    planners = {
        "wbg": lambda n, re, rt: wbg_plan(tasks, TABLE_II, n, re, rt),
        "olb": lambda n, re, rt: olb_plan(tasks, TABLE_II, n),
        "ps": lambda n, re, rt: power_saving_plan(tasks, TABLE_II, n),
    }
    simulate = run_batch
    if clock is not None:
        planners = {arm: clock.wrap(f"{arm}.plan", plan) for arm, plan in planners.items()}
        simulate = clock.wrap("batch.sim", run_batch)
    setup_s = time.perf_counter() - _T0
    if setup_only:
        return {"setup_s": setup_s}

    runs: dict[tuple[int, str], tuple[Any, Any]] = {}
    errors: dict[tuple[int, str], str] = {}
    arm_s = dict.fromkeys(cases.BATCH_ARMS, 0.0)
    refs = [reference_s()]  # before, half-way and after
    for i, (re, rt, n) in enumerate(cells):
        if i == len(cells) // 2:
            refs.append(reference_s())
        for arm in cases.BATCH_ARMS:
            start = time.perf_counter()
            try:
                plan = planners[arm](n, re, rt)
                runs[i, arm] = (plan, simulate(plan, TABLE_II))
            except Exception:  # a cell that raises is a failed cell, not a crashed run
                errors[i, arm] = _error()
            arm_s[arm] += time.perf_counter() - start
    refs.append(reference_s())
    spans = {"run": clock.take()} if clock is not None else {}
    # every arm runs across the whole grid, so all samples bracket it
    ref_s = sum(refs) / len(refs)
    return {"setup_s": setup_s, "run_s": sum(arm_s.values()), "arm_s": arm_s,
            "arm_ref_s": dict.fromkeys(cases.BATCH_ARMS, ref_s), "ref_s": ref_s,
            "setup_ref_s": refs[0],
            "peak_rss_mb": _peak_rss_mb(), "tasks": tasks, "cells": cells, "runs": runs, "errors": errors, "spans": spans}


def _checked_batch(timed: dict[str, Any], expected: dict[str, Any] | None,
                   audit: bool) -> dict[str, Any]:
    from repro.analysis.metrics import improvement_summary

    tasks, cells, runs = timed["tasks"], timed["cells"], timed["runs"]
    failed_cells = {key: [f"raised {msg}"] for key, msg in timed["errors"].items()}
    digests = {arm: hashlib.sha256() for arm in cases.BATCH_ARMS}
    totals = {arm: {"energy_j": 0.0, "cost": 0.0} for arm in cases.BATCH_ARMS}
    audit_s = 0.0
    for (i, arm), (plan, result) in sorted(runs.items()):
        re, rt, _ = cells[i]
        checks.plan_digest_update(digests[arm], i, tasks, plan)
        totals[arm]["energy_j"] += result.energy_joules
        totals[arm]["cost"] += result.cost(re, rt).total_cost
        if audit:
            start = time.perf_counter()
            found = checks.batch_invariants(plan, tasks, re, rt, paper_order=arm == "wbg")
            audit_s += time.perf_counter() - start
            if found:
                failed_cells[i, arm] = found
    outputs = {arm: {"digest": digests[arm].hexdigest()[:16], **totals[arm]}
               for arm in cases.BATCH_ARMS}
    problems = {f"{arm}@cell{i}": found for (i, arm), found in failed_cells.items()}
    if expected is not None:
        for arm in cases.BATCH_ARMS:
            found = checks.compare_recorded(outputs[arm], expected[arm])
            if found:
                problems[arm] = found
                failed_cells.update({(i, arm): found for i in range(len(cells))})
    gap = None
    paper = [i for i, cell in enumerate(cells) if cell == cases.PAPER_CELL]
    if not paper:
        problems["grid"] = [f"paper cell {cases.PAPER_CELL} missing from the grid"]
        failed_cells.update({(i, arm): [] for i in range(len(cells)) for arm in cases.BATCH_ARMS})
    elif (paper[0], "wbg") in runs and (paper[0], "olb") in runs:
        re, rt, _ = cases.PAPER_CELL
        costs = {arm: runs[paper[0], arm][1].cost(re, rt) for arm in ("wbg", "olb")}
        saving = improvement_summary(costs, "wbg", "olb")["total_pct"]
        gap = abs(saving - cases.PAPER_FIG2_WBG_VS_OLB)
    return {"outputs": outputs, "problems": problems, "paper_gap_pp": gap,
            "attempted": len(cells) * len(cases.BATCH_ARMS), "failed": len(failed_cells),
            "audit_s": audit_s}


def run_once(workload: str, seed: int, traced: bool, scale: float = 1.0,
             audit: bool = True, check_recorded: bool = True,
             setup_only: bool = False) -> dict[str, Any]:
    """Time one repetition, then check it; returns the JSON-ready summary.

    ``audit`` runs the :mod:`repro.verify.invariants` audits (about a
    second per online arm). At the recorded seed and full scale the
    outputs are compared with ``expected.json`` unless
    ``check_recorded`` is off (``record.py``). With ``setup_only`` the
    process stops after set-up and reports only ``setup_s`` and
    ``setup_ref_s``. ``setup_ref_s`` is always the reference loop timed
    right after set-up.
    """
    online = workload in cases.ONLINE
    clock = layers.LayerClock() if traced else None
    with layers.installed(clock, online) if clock is not None else nullcontext():
        if online:
            timed = _timed_online(workload, seed, scale, clock, setup_only)
        else:
            timed = _timed_batch(seed, scale, clock, setup_only)

    import repro

    if setup_only:
        return {"repro_file": repro.__file__, "setup_s": timed["setup_s"],
                "setup_ref_s": reference_s()}
    from repro.core.dominating import dominating_cache_stats

    cache = dominating_cache_stats()
    recorded = check_recorded and seed == cases.DEFAULT_SEED and scale == 1.0
    expected = checks.load_expected()[workload] if recorded else None
    if online:
        checked = _checked_online(workload, scale, timed, expected, audit)
    else:
        checked = _checked_batch(timed, expected, audit)

    summary = {
        "repro_file": repro.__file__,
        "setup_s": timed["setup_s"],
        "run_s": timed["run_s"],
        "arm_s": timed["arm_s"],
        "arm_ref_s": timed["arm_ref_s"],
        "ref_s": timed["ref_s"],
        "setup_ref_s": timed["setup_ref_s"],
        "peak_rss_mb": timed["peak_rss_mb"],
        **checked,
    }
    if clock is not None:
        spans = timed["spans"]
        if online:
            arms = {arm: spans[arm] for arm in cases.ONLINE_ARMS}
            fired = {arm: r.events for arm, r in timed["results"].items()}
            summary["layers"] = metrics.online_layers(
                spans["setup"], arms, timed["arm_s"], fired,
                timed["policies"]["lmc"].counters(), checked["queue_depth_max"], cache)
        else:
            summary["layers"] = metrics.batch_layers(spans["run"], cache)
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--audit", type=int, choices=(0, 1), default=1)
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    print(json.dumps(run_once(args.workload, args.seed, bool(args.trace), args.scale,
                              bool(args.audit), setup_only=bool(args.setup_only))))


if __name__ == "__main__":
    main()

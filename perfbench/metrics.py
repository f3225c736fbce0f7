"""Metric names, units, and the per-layer metrics built from layer spans.

``BENCHMARK.json`` lists the same names; the benchmark's tests hold the
two in step. Every run reports every name: a layer the workload never
enters reads 0, as its wrappers saw no call (so on
``batch_pricing_grid`` each ``lmc.``/``olb.``/``od.`` simulator metric
is 0, and on the online workloads each planner metric is).
"""

from __future__ import annotations

from typing import Any

#: Untraced run. ``run_vs_ref`` is the host time of all three arms in
#: multiples of the reference loop timed beside each arm (unit ``x``).
#: Per-arm times are printed beside the result but not gated: each arm
#: is a few seconds long, and their spread across runs was too wide.
END_TO_END = {
    "setup_s": "s",
    "run_vs_ref": "x",
    "peak_rss_mb": "MB",
}

_SIM_ARM = {
    "runner.self_s": "s",
    "platform.advance_s": "s",
    "platform.advance_calls": "count",
    "power.record_s": "s",
    "power.busy_records": "count",
    "power.idle_records": "count",
    "engine.schedule_s": "s",
    "engine.events_scheduled": "count",
    "engine.events_fired": "count",
    "engine.fired_ratio": "ratio",
    "policy.self_s": "s",
    "policy.calls": "count",
}

#: Traced run (self time = span minus wrapped children).
PER_LAYER = {
    **{f"{arm}.{name}": unit for arm in ("lmc", "olb", "od") for name, unit in _SIM_ARM.items()},
    "lmc.dynamic.self_s": "s",
    "lmc.dynamic.share": "ratio",
    "lmc.dynamic.inserts": "count",
    "lmc.dynamic.deletes": "count",
    "lmc.dynamic.probes": "count",
    "lmc.dynamic.probe_memo_hit_ratio": "ratio",
    "lmc.queue_depth_max": "count",
    "od.governor.self_s": "s",
    "od.governor.samples": "count",
    "wbg.plan_s": "s",
    "olb.plan_s": "s",
    "ps.plan_s": "s",
    "batch.sim_s": "s",
    "dominating.builds": "count",
    "dominating.build_s": "s",
    "dominating.cache_hit_ratio": "ratio",
    "workloads.trace_gen_s": "s",
    "host.ref_s": "s",
    "trace.untraced_run_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def online_layers(setup: dict[str, Any], arms: dict[str, dict[str, Any]],
                  arm_s: dict[str, float], events_fired: dict[str, int],
                  lmc_counters: dict[str, int], queue_depth_max: int,
                  cache: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of a traced online run.

    ``setup`` and ``arms`` are :meth:`LayerClock.take` snapshots of the
    set-up and of each arm's simulation; ``arm_s`` the traced arm times.
    ``lmc_counters`` are LMC's own queue counters (``counters()``), and
    ``queue_depth_max`` its deepest queue as the output check rebuilt it.
    """
    out = dict.fromkeys(PER_LAYER, 0.0)
    for arm, snap in arms.items():
        s, c = snap["self_s"], snap["calls"]
        scheduled = c.get("engine", 0)
        out.update({
            f"{arm}.runner.self_s": s.get("runner", 0.0),
            f"{arm}.platform.advance_s": s.get("platform", 0.0),
            f"{arm}.platform.advance_calls": c.get("platform", 0),
            f"{arm}.power.record_s": s.get("power", 0.0),
            f"{arm}.power.busy_records": c.get("power.busy", 0),
            f"{arm}.power.idle_records": c.get("power.idle", 0),
            f"{arm}.engine.schedule_s": s.get("engine", 0.0),
            f"{arm}.engine.events_scheduled": scheduled,
            f"{arm}.engine.events_fired": events_fired.get(arm, 0),
            f"{arm}.engine.fired_ratio": _ratio(events_fired.get(arm, 0), scheduled),
            f"{arm}.policy.self_s": s.get("policy", 0.0),
            f"{arm}.policy.calls": c.get("policy", 0),
        })
    lmc_self_s = arms.get("lmc", {"self_s": {}})["self_s"].get("dynamic", 0.0)
    out.update({
        "lmc.dynamic.self_s": lmc_self_s,
        "lmc.dynamic.share": _ratio(lmc_self_s, arm_s.get("lmc", 0.0)),
        "lmc.dynamic.inserts": lmc_counters.get("inserts", 0),
        "lmc.dynamic.deletes": lmc_counters.get("deletes", 0),
        "lmc.dynamic.probes": lmc_counters.get("probes", 0),
        "lmc.dynamic.probe_memo_hit_ratio": _ratio(lmc_counters.get("probe_memo_hits", 0),
                                                   lmc_counters.get("probes", 0)),
        "lmc.queue_depth_max": queue_depth_max,
    })
    od = arms.get("od", {"self_s": {}, "calls": {}})
    out["od.governor.self_s"] = od["self_s"].get("governor", 0.0)
    out["od.governor.samples"] = od["calls"].get("governor", 0)
    out["workloads.trace_gen_s"] = setup["self_s"].get("workloads", 0.0)
    out.update(_dominating([setup, *arms.values()], cache))
    return out


def batch_layers(snap: dict[str, Any], cache: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of a traced batch run (one snapshot)."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    s = snap["self_s"]
    out.update({
        "wbg.plan_s": s.get("wbg.plan", 0.0),
        "olb.plan_s": s.get("olb.plan", 0.0),
        "ps.plan_s": s.get("ps.plan", 0.0),
        "batch.sim_s": s.get("batch.sim", 0.0),
    })
    out.update(_dominating([snap], cache))
    return out


def _dominating(snaps: list[dict[str, Any]], cache: dict[str, int]) -> dict[str, float]:
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    return {
        "dominating.builds": sum(x["calls"].get("dominating", 0) for x in snaps),
        "dominating.build_s": sum(x["self_s"].get("dominating", 0.0) for x in snaps),
        "dominating.cache_hit_ratio": _ratio(cache.get("hits", 0), lookups),
    }

"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cases
import checks
import layers
import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _small_lmc_run():
    from repro.models.rates import TABLE_II
    from repro.schedulers import LMCOnlineScheduler
    from repro.simulator import run_online
    from repro.workloads import generate_judge_trace

    trace = generate_judge_trace(cases.judge_config("fig3_online", 5, scale=0.01))
    policy = LMCOnlineScheduler(TABLE_II, 4, cases.RE_ONLINE, cases.RT_ONLINE)
    return trace, run_online(trace, policy, TABLE_II)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    emitted = {**metrics.END_TO_END, **metrics.PER_LAYER}
    assert declared == emitted
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)
    for name, unit in emitted.items():
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), (name, unit)


def test_swapped_cores_fail_the_output_check():
    trace, result = _small_lmc_run()
    recorded = {"digest": checks.online_digest(trace, result),
                "energy_j": result.energy_joules, "cost": result.cost(0.4, 0.1).total_cost}
    assert checks.compare_recorded(dict(recorded), recorded) == []

    a = result.records[0]
    b = next(r for r in result.records if r.core != a.core)
    ia, ib = result.records.index(a), result.records.index(b)
    result.records[ia] = dataclasses.replace(a, core=b.core)
    result.records[ib] = dataclasses.replace(b, core=a.core)
    swapped = dict(recorded, digest=checks.online_digest(trace, result))
    assert any("digest" in p for p in checks.compare_recorded(swapped, recorded))


def test_energy_may_drift_only_within_the_named_tolerance():
    from repro.models.tolerances import AGG_REL_TOL

    recorded = {"digest": "d", "energy_j": 1000.0, "cost": 500.0}
    within = dict(recorded, energy_j=1000.0 * (1 + AGG_REL_TOL / 2))
    beyond = dict(recorded, energy_j=1000.0 * (1 + AGG_REL_TOL * 2))
    assert checks.compare_recorded(within, recorded) == []
    assert checks.compare_recorded(beyond, recorded) == [
        f"energy_j {beyond['energy_j']!r} != recorded 1000.0"]


def test_queue_guard_separates_the_online_workloads():
    assert checks.queue_guard("deep_queue_online", 1100, 146) == []
    assert checks.queue_guard("deep_queue_online", 146, 146)
    assert checks.queue_guard("fig3_online", 90, 146) == []
    assert checks.queue_guard("fig3_online", 146, 146)


@pytest.mark.parametrize("workload", cases.ONLINE)
def test_queue_guards_hold_off_the_default_seed(workload):
    from repro.models.rates import TABLE_II
    from repro.schedulers import LMCOnlineScheduler
    from repro.simulator import run_online
    from repro.workloads import generate_judge_trace

    trace = generate_judge_trace(cases.judge_config(workload, cases.DEFAULT_SEED + 1))
    policy = LMCOnlineScheduler(TABLE_II, 4, cases.RE_ONLINE, cases.RT_ONLINE)
    depth = checks.queue_depth_max(run_online(trace, policy, TABLE_II))
    edge = checks.deepest_range_edge(cases.RE_ONLINE, cases.RT_ONLINE)
    assert checks.queue_guard(workload, depth, edge) == []


@pytest.mark.parametrize("seed", [cases.DEFAULT_SEED, 1])
def test_pricing_grid_holds_the_paper_cell(seed):
    cells = cases.pricing_grid(seed)
    assert cases.PAPER_CELL in cells
    assert len(cells) == cases.GRID_PRICINGS * len(cases.GRID_CORES)
    assert cells == cases.pricing_grid(seed)


def test_self_time_excludes_wrapped_children():
    clock = layers.LayerClock()
    inner = clock.wrap("inner", lambda: time.sleep(0.02))
    nested = clock.wrap("outer", lambda: None, "outer.nested")

    def body():
        time.sleep(0.02)
        inner()
        nested()

    start = time.perf_counter()
    clock.wrap("outer", body)()
    total = time.perf_counter() - start
    snap = clock.take()
    assert snap["calls"] == {"inner": 1, "outer": 1, "outer.nested": 1}
    # self times partition the outermost span: nothing is counted twice
    assert sum(snap["self_s"].values()) == pytest.approx(total, abs=1e-3)
    assert snap["self_s"]["inner"] >= 0.02
    assert snap["self_s"]["outer"] >= 0.02
    assert clock.take()["calls"] == {}


def test_installed_restores_every_patched_entry_point():
    from repro.core.dominating import DominatingRanges
    from repro.simulator.platform import SimCore

    before = (SimCore.__dict__["advance"], DominatingRanges.__dict__["from_cost_model"])
    with layers.installed(layers.LayerClock(), online=True):
        assert SimCore.__dict__["advance"] is not before[0]
    assert (SimCore.__dict__["advance"], DominatingRanges.__dict__["from_cost_model"]) == before


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_reduced_size_smoke_run(workload, trace):
    proc = _run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                      "--trace", trace, "--scale", "0.02")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == names
    if trace == "1" and workload == "batch_pricing_grid":
        assert all(m["value"] == 0 for n, m in result["metrics"].items()
                   if n.split(".")[0] in ("lmc", "od") or ".runner." in n)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("--workload", "fig3_online", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

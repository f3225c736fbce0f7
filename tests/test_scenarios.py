"""Tests for the scenario catalog (src/repro/scenarios.py).

One registry feeds ``repro trace``, ``repro explain`` and ``repro
bench``; the paper's two arm sets feed ``repro fig2``/``fig3`` and the
sweep cells. These tests pin that every scenario is deterministic with
and without a tracer, that the CLI surfaces name the same scenarios,
and that the online arm set runs exactly the arms it is given.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs import RecordingTracer
from repro.scenarios import SCENARIOS, online_costs, run_traced
from repro.workloads import JudgeTraceConfig, generate_judge_trace

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_quick_checksum_is_the_same_with_and_without_a_tracer(name):
    scenario = SCENARIOS[name]
    untraced = scenario.run(scenario.inputs["quick"])
    tracer = RecordingTracer()
    traced = scenario.run(scenario.inputs["quick"], tracer)
    assert tracer.events
    assert traced.checksum == untraced.checksum
    assert traced.ops == untraced.ops
    assert traced.summary == untraced.summary


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_size_run_emits_events(name):
    tracer = RecordingTracer()
    outcome = run_traced(name, tracer)
    assert tracer.events
    assert outcome.summary["total_cost"] > 0


def _choices(command: str, dest: str) -> set[str]:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions if a.dest == dest)
    return set(action.choices)


def test_bench_list_names_equal_trace_choices(capsys):
    assert main(["bench", "--list"]) == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    assert listed == _choices("trace", "scenario") == set(SCENARIOS)
    assert _choices("explain", "scenario") == set(SCENARIOS)


def test_none_overrides_keep_the_trace_inputs():
    default = run_traced("wbg", None)
    same = run_traced("wbg", None, re=None, rt=None, n_cores=None, seed=None)
    assert (same.summary, same.checksum) == (default.summary, default.checksum)
    assert default.summary["n_cores"] == SCENARIOS["wbg"].inputs["trace"]["n_cores"]
    assert run_traced("wbg", None, n_cores=3).summary["n_cores"] == 3


def test_online_costs_run_only_the_named_arms():
    trace = generate_judge_trace(JudgeTraceConfig(
        n_interactive=60, n_noninteractive=8, duration_s=20.0, seed=5))
    costs = online_costs(trace, 2, ("LMC", "OD"))
    assert list(costs) == ["LMC", "OD"]
    with pytest.raises(ValueError, match="unknown online arm"):
        online_costs(trace, 2, ("LMC", "YDS"))


def test_import_repro_does_not_load_the_catalog():
    code = "import sys, repro; print('repro.scenarios' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC)}, check=True).stdout
    assert out.strip() == "False"

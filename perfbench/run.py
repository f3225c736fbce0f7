"""End-to-end benchmark of the paper's online and batch runs.

    python3 perfbench/run.py --workload fig3_online --seed 2014 --seconds 40 --trace 0

Starts ``experiment.py`` in a fresh process for each repetition, as
many times as fit in ``--seconds`` (at least once), checks every
repetition's outputs, and prints medians. After each repetition it
also starts a few processes that only set up and exit, so that
``setup_s`` is a median over many cold set-ups. The first repetition also
runs the invariant audits; later ones must reproduce its decision
digests exactly. With ``--trace 1`` each repetition is a pair, one
untraced and one traced process: the pair's digests must agree, the
traced one gives the per-layer split, and the difference of their
``run_s`` is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every check passed; it is non-zero, with no JSON line, when
the program under ``src/`` cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import cases
import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Each run must end within 180 s; leave room for the last summary.
RUN_DEADLINE_S = 170.0
#: Set-up-only processes started after each repetition.
SETUP_SAMPLES_PER_REPETITION = 3
#: Seconds the reference loop takes on the machine ``setup_s`` is scaled
#: to (a shared 2-CPU x86-64 VM took 0.16-0.28 s; see README.md).
REF_NOMINAL_S = 0.2


class RunFailed(RuntimeError):
    """The program could not be run; the benchmark prints no result."""


def repetition(workload: str, seed: int, traced: bool, scale: float, audit: bool,
               deadline: float, setup_only: bool = False) -> dict[str, Any]:
    """One cold ``experiment.py`` process; returns its JSON summary."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(HERE / "experiment.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--scale", repr(scale),
           "--audit", str(int(audit)), "--setup-only", str(int(setup_only))]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("no time left for a repetition")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise RunFailed(f"repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunFailed(f"experiment.py exited {proc.returncode}:\n{proc.stderr.strip()}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    where = Path(summary["repro_file"]).resolve()
    if ROOT / "src" not in where.parents:
        raise RunFailed(f"imported repro from {where}, not from {ROOT / 'src'}")
    return summary


def _digests(summary: dict[str, Any]) -> dict[str, str]:
    return {arm: out["digest"] for arm, out in summary["outputs"].items()}


def measure(workload: str, seed: int, seconds: float, traced: bool,
            scale: float = 1.0) -> tuple[dict[str, Any], dict[str, tuple[float, str]], list[str]]:
    """Repeat while another repetition fits in ``seconds``.

    The set-up samples that follow the last repetition may overrun
    ``seconds`` by a few seconds.

    Returns the result object, the figures printed beside it (raw
    seconds, the gap to the paper, the error rate), and the problems the
    checks found.
    """
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    plain: list[dict[str, Any]] = []
    pairs: list[tuple[dict[str, Any], dict[str, Any]]] = []
    setups: list[dict[str, Any]] = []
    repetition_s: list[float] = []
    while True:
        began = time.monotonic()
        untraced = repetition(workload, seed, False, scale, not plain, deadline)
        plain.append(untraced)
        setups.append(untraced)
        if traced:
            pairs.append((untraced, repetition(workload, seed, True, scale, False, deadline)))
        # the invariant audit runs once, so it is left out of what one
        # more repetition is expected to cost
        repetition_s.append(time.monotonic() - began - untraced["audit_s"])
        if not traced:
            setups += [repetition(workload, seed, False, scale, False, deadline,
                                  setup_only=True)
                       for _ in range(SETUP_SAMPLES_PER_REPETITION)]
        if time.monotonic() - start + statistics.mean(repetition_s) > seconds:
            break

    problems: list[str] = []
    attempted = failed = 0
    for summary in plain + [t for _, t in pairs]:
        attempted += summary["attempted"]
        failed += summary["failed"]
        problems += [f"{who}: {msg}" for who, found in summary["problems"].items()
                     for msg in found]
    # Same seed, same inputs: every repetition must decide identically,
    # traced or not.
    reference = _digests(plain[0])
    for summary in plain[1:] + [t for _, t in pairs]:
        for arm, digest in _digests(summary).items():
            if digest != reference.get(arm):
                failed += 1
                problems.append(f"{arm}: digest {digest} differs from first repetition "
                                f"{reference.get(arm)}")

    values: dict[str, float] = {}
    if traced:
        for name in metrics.PER_LAYER:
            if name.split(".")[0] not in ("host", "trace"):
                values[name] = statistics.median(t["layers"][name] for _, t in pairs)
        values["host.ref_s"] = statistics.median(u["ref_s"] for u, _ in pairs)
        values["trace.untraced_run_s"] = statistics.median(u["run_s"] for u, _ in pairs)
        values["trace.run_s"] = statistics.median(t["run_s"] for _, t in pairs)
        values["trace.overhead_s"] = statistics.median(t["run_s"] - u["run_s"] for u, t in pairs)
        units = metrics.PER_LAYER
    else:
        # each set-up is scaled by the reference loop timed right after it
        values["setup_s"] = statistics.median(
            s["setup_s"] * REF_NOMINAL_S / s["setup_ref_s"] for s in setups)
        vs_ref = [{arm: s["arm_s"][arm] / s["arm_ref_s"][arm] for arm in s["arm_s"]}
                  for s in plain]
        values["run_vs_ref"] = statistics.median(sum(v.values()) for v in vs_ref)
        values["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in plain)
        units = metrics.END_TO_END
    printed = {"raw_setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
               "run_s": (statistics.median(s["run_s"] for s in plain), "s")}
    for arm in plain[0]["arm_s"]:
        printed[f"{arm}_s"] = (statistics.median(s["arm_s"][arm] for s in plain), "s")
        printed[f"{arm}_vs_ref"] = (statistics.median(
            s["arm_s"][arm] / s["arm_ref_s"][arm] for s in plain), "x")
    printed["ref_s"] = (statistics.median(s["ref_s"] for s in plain), "s")
    printed["error_rate"] = (failed / attempted, "ratio")
    gaps = [s["paper_gap_pp"] for s in plain if s["paper_gap_pp"] is not None]
    if gaps:
        printed["paper_gap_pp"] = (statistics.median(gaps), "pp")
    if "queue_depth_max" in plain[0]:
        printed["lmc_queue_depth_max"] = (plain[0]["queue_depth_max"], "count")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, printed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, default=cases.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (smoke runs; skips recorded-value checks)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    try:
        result, printed, problems = measure(args.workload, args.seed, args.seconds,
                                   bool(args.trace), args.scale)
    except RunFailed as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    for problem in problems[:50]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"failed {result['failed']} of {result['attempted']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for name, (value, unit) in printed.items():
        print(f"  ({name:38s} {value:>16.6g} {unit})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

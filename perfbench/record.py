"""Record the default-seed outputs every later run is checked against.

Run only when a change is *meant* to alter scheduling decisions, and
say so in the change:

    PYTHONPATH=src python3 perfbench/record.py
"""

import json

import cases
import checks
import experiment


def main() -> None:
    recorded = {}
    for workload in cases.WORKLOADS:
        summary = experiment.run_once(workload, cases.DEFAULT_SEED, traced=False,
                                      check_recorded=False)
        if summary["failed"]:
            raise SystemExit(f"{workload}: checks failed, not recording: {summary['problems']}")
        recorded[workload] = summary["outputs"]
        print(workload, json.dumps(summary["outputs"]))
    checks.EXPECTED_PATH.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, with one pass each and
one set-up probe, and checks that each mode reports exactly the metrics
BENCHMARK.json names, with the declared units and finite values, that
every traced name is found, and that population_scan does no solver
work. Output checks that need full-size runs (the Monte-Carlo MSE
ordering) may fail at these sizes and are reported, not asserted.
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        run.WORKLOADS), "BENCHMARK.json and the workload table disagree"
    problems = []
    for name in run.WORKLOADS:
        for trace in (0, 1):
            result, details = run.measure(name, seed=1, seconds=0,
                                          trace=trace, small=True,
                                          setup_runs=1)
            metrics = result["metrics"]
            got = {k: m["unit"] for k, m in metrics.items()}
            if got != declared[trace]:
                problems.append(f"{name} trace={trace}: metrics/units "
                                f"{sorted(set(got.items()) ^ set(declared[trace].items()))}")
            bad = [k for k, m in metrics.items()
                   if not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{name} trace={trace}: non-finite {bad}")
            if result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: nothing attempted")
            if details.get("trace_missing_names"):
                problems.append(f"{name}: names not found to wrap "
                                f"{details['trace_missing_names']}")
            if (trace and name == "population_scan"
                    and metrics["solver.searches"]["value"] != 0):
                problems.append("population_scan ran root searches")
            print(f"{name} trace={trace}: {len(metrics)} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} "
                  f"failed {details['failures']}")
    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py [--seconds 2]

Run from the repository root.  For every workload run.py offers (the
ones in BENCHMARK.json and solve_large) it checks that

  * a normal run is correct, names the workload, and its result object
    carries exactly the end-to-end metrics (trace 0) or the per-layer
    metrics (trace 1) of BENCHMARK.json, each with its unit, and that every
    metric is also printed as a readable line;
  * a run in which the benchmark corrupts some of the solutions it receives
    reports them: failed > 0, correct false, error_rate > 0.

Exits non-zero on the first workload that breaks a check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402


def run(workload, seconds, trace, corrupt=False):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "1",
               "--seconds", str(seconds), "--trace", str(trace)]
    if corrupt:
        command.append("--corrupt")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def readable(lines, name):
    """The value and unit of a `metric <name> <value> <unit>` line."""
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric" and parts[1] == name:
            return float(parts[2]), parts[3]
    return None


def check_names(lines, result, specs, workload):
    expected = {m["name"]: m["unit"] for m in specs}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    assert got == expected, f"metrics differ from BENCHMARK.json: {got}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert any(f'"workload": "{workload}"' in line for line in lines)
    for name, unit in expected.items():
        line = readable(lines, name)
        # Per-layer metrics a workload does not exercise are listed as such.
        if line is None:
            assert any(name in l for l in lines if l.startswith("not exercised")), name
        else:
            assert line[1] == unit, (name, line)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        lines, result = run(workload, args.seconds, 0)
        check_names(lines, result, bench["end_to_end"], workload)
        lines, result = run(workload, args.seconds, 1)
        check_names(lines, result, bench["per_layer"], workload)
        lines, result = run(workload, args.seconds, 0, corrupt=True)
        error_rate = readable(lines, "error_rate")
        assert result["failed"] > 0 and result["correct"] is False, result
        assert error_rate is not None and error_rate[0] > 0, error_rate
        print(f"ok  {workload}: names and units match; corrupted run "
              f"counted {result['failed']}/{result['attempted']} failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, on its smoke shapes (seconds).

    python3 perfbench/selftest.py [--binary .bench_build/perfbench]

Builds the benchmark through run.py's build step unless --binary is given, then
asserts that
  * every workload prints every metric BENCHMARK.json declares, with its
    unit, on its own line and in the final JSON object (--trace 0 and 1);
  * a deliberately corrupted spanner (--corrupt) is counted as a failed
    build, so failed_frac > 0 and the result reads incorrect, and the
    stretch check reports it on its own;
  * warm builds report zero thread pools and zero workspaces constructed.
Exits non-zero on the first failed assertion.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark's own build step)


def invoke(binary, workload, trace, *extra):
    command = [binary, "--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace), "--smoke", *extra]
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=120,
                         check=True).stdout
    lines = out.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics(lines, result, declared, where):
    got = result["metrics"]
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in got]
    extra = [n for n in got if n not in names]
    assert not missing and not extra, f"{where}: missing {missing}, undeclared {extra}"
    for m in declared:
        assert got[m["name"]]["unit"] == m["unit"], f"{where}: {m['name']} unit"
        value = got[m["name"]]["value"]
        assert isinstance(value, (int, float)), f"{where}: {m['name']} is not a number"
        assert any(line.split(" ")[:1] == [m["name"]] and line.split(" ")[2] == m["unit"]
                   for line in lines), f"{where}: no printed line for {m['name']}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", help="a built perfbench binary")
    args = parser.parse_args()
    binary = args.binary or run.build(os.path.join(ROOT, ".bench_build"))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    assert sorted(workloads) == sorted(run.WORKLOADS), "run.py and BENCHMARK.json disagree"

    for workload in workloads:
        lines, result = invoke(binary, workload, 0)
        assert result["correct"] and result["failed"] == 0, f"{workload}: {result}"
        assert result["attempted"] >= 1
        check_metrics(lines, result, spec["end_to_end"], f"{workload} --trace 0")
        assert any(line.startswith("failed_frac 0 ratio") for line in lines), workload

        lines, result = invoke(binary, workload, 1)
        assert result["correct"], f"{workload} traced: {result}"
        check_metrics(lines, result, spec["per_layer"], f"{workload} --trace 1")
        for name in ("api.session.pools_constructed", "api.session.workspaces_constructed"):
            assert result["metrics"][name]["value"] == 0, f"{workload}: warm {name}"
        print(f"ok  {workload}")

    for workload in ("graph-accept", "grid-stream"):
        lines, result = invoke(binary, workload, 0, "--corrupt")
        assert not result["correct"] and result["failed"] >= 1, f"{workload}: {result}"
        # The stretch check must catch the damage on its own, not only the
        # digest comparison with the cold build.
        assert any(line.startswith("FAILED: ") and " stretch " in line
                   and "exceeds target" in line for line in lines), f"{workload}: {lines}"
        frac = next(line for line in lines if line.startswith("failed_frac "))
        assert float(frac.split(" ")[1]) > 0, frac
        print(f"ok  {workload} --corrupt counted: {frac}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

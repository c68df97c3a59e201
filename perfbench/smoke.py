#!/usr/bin/env python3
"""The benchmark's own smoke test: a tiny instance of every workload.

Run from the root of a checkout:

    python3 perfbench/smoke.py

For each workload it runs the untraced and the traced run for one second
(`--seconds 1`, at the benchmark's full system size) and asserts that every metric BENCHMARK.json names is printed with
its unit and a finite value, that the self-checks passed (correct, no
failed op), and a few invariants of the layers (space amplification near
α+1 = 4, two bytes read per lost byte on a strand rebuild, encode work
only where there are PUTs). It then repeats the traced runs with the same
seed and asserts that the counts encode.blocks, repair.steps and
store.write_amp repeat exactly. Exits 0 when everything holds.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["ingest", "serve", "node_loss"]
SEED = 7
COUNTS = ["encode.blocks", "repair.steps", "store.write_amp"]


def run(workload, trace, seed=SEED):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().split("\n")[-1])


def check(condition, message, failures):
    if not condition:
        failures.append(message)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []
    traced = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload}/trace={trace}"
            result = run(workload, trace)
            metrics = result["metrics"]
            check(result["correct"] is True, f"{tag}: not correct", failures)
            check(result["failed"] == 0, f"{tag}: {result['failed']} failed",
                  failures)
            check(result["attempted"] >= 1, f"{tag}: nothing attempted",
                  failures)
            check(set(metrics) == set(expected[trace]),
                  f"{tag}: metric names differ: "
                  f"{sorted(set(metrics) ^ set(expected[trace]))}", failures)
            for name, unit in expected[trace].items():
                m = metrics.get(name, {})
                check(m.get("unit") == unit, f"{tag}: {name} unit", failures)
                value = m.get("value")
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      f"{tag}: {name} value {value!r}", failures)
            if trace == 0:
                amp = metrics["space_amp"]["value"]
                check(3.9 < amp < 4.3, f"{tag}: space_amp {amp}", failures)
            else:
                traced[workload] = metrics
            print(f"ok {tag}", flush=True)

    check(traced["ingest"]["encode.blocks"]["value"] > 0,
          "ingest encodes", failures)
    check(traced["node_loss"]["encode.blocks"]["value"] == 0,
          "node_loss encodes nothing", failures)
    check(traced["ingest"]["repair.steps"]["value"] == 0,
          "ingest repairs nothing", failures)
    check(traced["node_loss"]["repair.steps"]["value"] > 0,
          "node_loss repairs", failures)
    ratio = traced["node_loss"]["cluster.repair_read_per_lost_byte"]["value"]
    check(1.9 < ratio < 2.1, f"strand rebuild reads {ratio} B per lost B",
          failures)

    for workload in WORKLOADS:
        again = run(workload, 1)["metrics"]
        for name in COUNTS:
            first = traced[workload][name]["value"]
            second = again[name]["value"]
            check(first == second,
                  f"{workload}: {name} {first} != {second} for one seed",
                  failures)
        print(f"ok {workload}: counts repeat", flush=True)

    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

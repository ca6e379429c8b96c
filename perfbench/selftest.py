#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout. Every workload runs once per mode with
--tiny (a few epochs per cell). The test asserts that

  * each run exits 0 with correct = true, which includes the driver's own
    gates: the traced run's access, epoch and region-event counts equal each
    cell's RunResult, and traced rows equal untraced rows byte for byte;
  * the last line is exactly {"correct", "attempted", "failed", "metrics"};
  * every metric BENCHMARK.json names for the mode is printed, both in the
    result line and as a "metric NAME = VALUE UNIT" line, with its unit;
  * the row-digest gate holds: every tiny run at the default seed matches
    the digest digests.json pins for it (checked by run.py, so a mismatch
    fails the run), and the gate rejects a wrong digest.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # no __pycache__ in the checkout
sys.path.insert(0, HERE)
import run as bench  # noqa: E402  (perfbench/run.py)

RUN = [sys.executable, os.path.join(HERE, "run.py")]
SEED = bench.DEFAULT_SEED


def run(workload, trace):
    command = RUN + ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                     "--trace", str(trace), "--tiny"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, json.loads(lines[-1]) if lines else None


def main():
    with open("BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    failures = []

    def expect(condition, what):
        if not condition:
            failures.append(what)
            print(f"FAIL {what}", flush=True)

    for workload in [entry["name"] for entry in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(code == 0 and result is not None, f"{tag}: exit {code}")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{tag}: correct={result['correct']} failed={result['failed']}")
            expect(result["attempted"] >= 1, f"{tag}: attempted={result['attempted']}")
            for metric in spec[section]:
                name, unit = metric["name"], metric["unit"]
                got = result["metrics"].get(name)
                expect(got is not None and got["unit"] == unit, f"{tag}: metric {name} [{unit}]")
                expect(got is not None and math.isfinite(got["value"]), f"{tag}: {name} finite")
                expect(any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                           for line in lines), f"{tag}: printed line for {name}")
            expect(len(result["metrics"]) == len(spec[section]), f"{tag}: extra metrics")
            if trace == 1:
                expect(result["metrics"]["workloads.accesses"]["value"] > 0,
                       f"{tag}: replayed accesses")
            print(f"ok {tag}", flush=True)

    # The digest gate itself: the tiny runs above passed it with the pinned
    # digests; a wrong one, at the default seed only, is rejected.
    with open(os.path.join(HERE, "digests.json")) as digests_file:
        pinned = json.load(digests_file)
    for workload in [entry["name"] for entry in spec["workloads"]]:
        expect(f"{workload}:tiny" in pinned, f"digests.json pins {workload}:tiny")
    wrong = {"paper-grid:tiny": "0" * 64}
    expect(bench.digest_errors("paper-grid", SEED, True, "1" * 64, wrong) != [],
           "wrong digest is rejected")
    expect(bench.digest_errors("paper-grid", SEED, True, "0" * 64, wrong) == [],
           "right digest is accepted")
    expect(bench.digest_errors("paper-grid", SEED + 1, True, "1" * 64, wrong) == [],
           "other seeds are not pinned")
    print("ok digest gate", flush=True)

    if failures:
        print(f"selftest: {len(failures)} failure(s)")
        return 1
    print("selftest: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

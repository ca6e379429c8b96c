#!/usr/bin/env python3
"""Same-host A/B of two checkouts on one benchmark workload.

    python3 perfbench/ab.py --base DIR --head DIR --workload NAME [--trace 0|1]

Ten pairs, on seeds 1 to 10, each run both checkouts' perfbench/run.py on
the same seed for the head's BENCHMARK.json run_seconds, one after the
other, alternating which side goes first so drift on a shared host lands
on both sides equally. Each side builds in its own DIR/.bench_build. Every
run's host fingerprint (CPU model, nproc, compiler, build type and flags,
runner workers) must match across the two sides; the script refuses to
compare runs from different hosts or builds. For each metric it prints both sides' quartiles, the head/base
ratio of the medians, and how many pairs the head won (by the metric's
"better" direction in the head's BENCHMARK.json).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
FIRST_SEED = 1


def run(checkout, workload, seed, seconds, trace):
    build_root = os.path.join(os.path.abspath(checkout), ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=build_root)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], cwd=checkout, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=1800)
    lines = done.stdout.strip().splitlines()
    host = next((json.loads(line[5:]) for line in lines if line.startswith("host ")), None)
    if done.returncode != 0 or host is None:
        sys.exit(f"ab: {checkout} failed on seed {seed} (exit {done.returncode})")
    return host, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="checkout of the parent")
    parser.add_argument("--head", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(args.head, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    seconds = spec["run_seconds"]
    better = {metric["name"]: metric["better"]
              for metric in spec["end_to_end"] + spec["per_layer"]}

    values = {"base": {}, "head": {}}
    fingerprint = None
    for pair in range(PAIRS):
        seed = FIRST_SEED + pair
        sides = [("base", args.base), ("head", args.head)]
        for side, checkout in sides if pair % 2 == 0 else reversed(sides):
            host, result = run(checkout, args.workload, seed, seconds, args.trace)
            if fingerprint is None:
                fingerprint = host
            elif host != fingerprint:
                sys.exit(f"ab: refusing to compare: {side} ran on {host}, expected {fingerprint}")
            for name, metric in result["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])
            print(f"pair {pair} seed {seed} {side} done", file=sys.stderr, flush=True)

    print(f"host {json.dumps(fingerprint, sort_keys=True)}")
    print(f"{'metric':38s} {'base q1/med/q3':>30s} {'head q1/med/q3':>30s} "
          f"{'head/base':>9s} {'head wins':>9s}")
    for name, base in values["base"].items():
        head = values["head"][name]
        sign = 1 if better.get(name) == "higher" else -1
        wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
        bq, hq = statistics.quantiles(base, n=4), statistics.quantiles(head, n=4)
        ratio = hq[1] / bq[1] if bq[1] else float("nan")
        print(f"{name:38s} {'/'.join(f'{v:.4g}' for v in bq):>30s} "
              f"{'/'.join(f'{v:.4g}' for v in hq):>30s} {ratio:9.4f} {wins:>4d}/{len(base)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

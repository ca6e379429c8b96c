#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The driver (perfbench/driver/) is built
with CMake from the checkout's own sources into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines before
it give the host fingerprint and every metric by name with its unit. With
--trace 1 the per-layer metrics are printed instead of the end-to-end ones
and the span dump is written as Chrome trace-event JSON under the build
directory.

Exit status: 0 when every correctness gate held, 1 when one failed (the
result line is still printed), 2 when the benchmark could not be built or
run (nothing is printed on standard output).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# The seed the rows are pinned at (digests.json); the driver's kDefaultSeed.
DEFAULT_SEED = 42
# The host-speed probe's reference time; the driver's kProbeReferenceS.
REFERENCE_PROBE_S = 6.2e-3


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def host_jobs():
    return len(os.sched_getaffinity(0))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def configured_source(out_dir):
    """The source directory the build tree in out_dir was configured for."""
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def drop_foreign_build(out_dir):
    """Removes a build tree configured for another checkout's sources (a
    shared $CARGO_TARGET_DIR): reusing it would build that checkout's code,
    or keep its objects."""
    source = configured_source(out_dir)
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        log(f"perfbench: {out_dir} was configured for {source}; rebuilding for {HERE}")
        shutil.rmtree(out_dir)


def build(out_dir, env):
    """Configures (once) and builds the driver; returns its path or None."""
    steps = []
    if configured_source(out_dir) is None:
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", str(host_jobs())])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  env=env, timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"perfbench: build step {step[:2]} failed: {error}")
            return None
        if done.returncode != 0:
            log(done.stdout.decode(errors="replace")[-4000:])
            log(f"perfbench: build step {' '.join(step[:2])} exited {done.returncode}")
            return None
    return os.path.join(out_dir, "perfbench_driver")


def digest_errors(workload, seed, tiny, digest, pinned):
    """The row-digest gate: at the default seed, the SHA-256 of the rows must
    equal the digest pinned for the workload (and size) in `pinned`."""
    expected = pinned.get(workload + (":tiny" if tiny else ""))
    if seed != DEFAULT_SEED or expected is None or expected == digest:
        return []
    return [f"row digest {digest} != expected {expected}"]


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode, if present."""
    try:
        with open("BENCHMARK.json") as spec:
            benchmark = json.load(spec)
    except (OSError, ValueError):
        return None
    section = benchmark["per_layer" if trace else "end_to_end"]
    return [(metric["name"], metric["unit"]) for metric in section]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few-epoch version of every cell (the self-test size)")
    args = parser.parse_args()

    out_dir = build_dir()
    drop_foreign_build(out_dir)
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp_dir))
    driver = build(out_dir, env)
    if driver is None:
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    work_dir = os.path.join(out_dir, "work", f"{tag}-{os.getpid()}")
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    rows_path = os.path.join(results_dir, f"{tag}.jsonl")
    spans_path = os.path.join(results_dir, f"{tag}.spans.json")
    for stale in (rows_path, spans_path):
        if os.path.exists(stale):
            os.remove(stale)
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--rows-out", rows_path]
    if args.trace:
        command += ["--spans-out", spans_path]
    if args.tiny:
        command.append("--tiny")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              timeout=DRIVER_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        log(f"perfbench: driver did not finish: {error}")
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    try:
        report = json.loads(lines[-1])
        with open(rows_path, "rb") as rows:
            digest = hashlib.sha256(rows.read()).hexdigest()
    except (IndexError, ValueError, OSError):
        log(f"perfbench: driver exited {done.returncode} without a result")
        return 2

    errors = list(report["errors"])
    correct = bool(report["correct"])
    failed = int(report["failed"])
    attempted = int(report["attempted"])

    with open(os.path.join(HERE, "digests.json")) as digests_file:
        digest_gate = digest_errors(args.workload, args.seed, args.tiny, digest,
                                    json.load(digests_file))
    metrics = report["metrics"]
    if digest_gate:
        errors += digest_gate
        correct = False
        failed = attempted
        if "ok_cell_pct" in metrics:
            metrics["ok_cell_pct"]["value"] = 0.0
    promised = expected_metrics(args.trace == 1)
    if promised is not None:
        printed = [(name, value["unit"]) for name, value in metrics.items()]
        if sorted(printed) != sorted(promised):
            errors.append(f"printed metrics {printed} differ from BENCHMARK.json {promised}")
            correct = False

    fingerprint = {
        "cpu": cpu_model(),
        "nproc": host_jobs(),
        "compiler": report["build"]["compiler"],
        "build_type": report["build"]["build_type"],
        "flags": report["build"]["flags"].strip(),
        "workers": report["workers"],
    }
    print("host " + json.dumps(fingerprint, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} cells {report['cells']} "
          f"passes {report['passes']} inputs {report['inputs_s']:.3f} s rows-sha256 {digest}")
    if report["probe_s"] > 0:
        print(f"probe {report['probe_s'] * 1e3:.3f} ms median, reference "
              f"{REFERENCE_PROBE_S * 1e3:.1f} ms: the time metrics are CPU seconds "
              f"x {REFERENCE_PROBE_S / report['probe_s']:.4f}")
    for name, value in metrics.items():
        print(f"metric {name} = {value['value']:.6g} {value['unit']}")
    for name, status in report["checks"].items():
        if status != "SKIP":
            print(f"check {status} {name}")
    if args.trace:
        print(f"spans {spans_path}")
    for error in errors:
        print(f"error {error}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as record:
        json.dump(dict(result, host=fingerprint, rows_sha256=digest, probe_s=report["probe_s"],
                   errors=errors), record,
                  indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

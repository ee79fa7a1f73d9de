#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result as JSON.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
C++ benchmark program formsbench (perfbench/CMakeLists.txt) into
.bench_build/; later runs rebuild incrementally. formsbench runs the
workload, checks every output and prints a full record (all metrics,
the check outcome and the run's contention record: wall time, process
CPU time and the growth of /proc/stat steal ticks). This script appends
that record to .bench_results/<workload>.jsonl for perfbench/compare.py,
prints every metric of it on a `record:` line, and prints as its last
line the metrics BENCHMARK.json names: the end_to_end set for --trace 0,
the per_layer set for --trace 1.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(ROOT, ".bench_results")
BINARY = os.path.join(BUILD, "formsbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "formsbench", "-j", jobs]]
    for cmd in steps:
        try:
            subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail("build failed: %s" % e)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    t0 = time.monotonic()
    build()
    os.makedirs(RESULTS, exist_ok=True)
    stem = "%s_seed%d_trace%d" % (args.workload, args.seed, args.trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(RESULTS, stem + ".spans.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, universal_newlines=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("formsbench exited with %d" % proc.returncode)
    record = json.loads(lines[-1])
    record["bench_wall_s"] = time.monotonic() - t0

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None \
                or not math.isfinite(got["value"]):
            fail("metric %s missing or malformed: %r" % (m["name"], got))
        metrics[m["name"]] = got

    with open(os.path.join(RESULTS, args.workload + ".jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print("record: " + "; ".join(
        "%s %.6g %s" % (k, v["value"], v["unit"])
        for k, v in sorted(record["metrics"].items()) if v["value"] is not None))
    info = record["info"]
    for phase in ("run", "timed"):
        if phase + ".wall_s" in info:
            print("contention (%s): wall %.3f s, cpu %.3f s, steal %.2f s" % (
                phase, info[phase + ".wall_s"], info[phase + ".cpu_s"],
                info[phase + ".steal_s"]))
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

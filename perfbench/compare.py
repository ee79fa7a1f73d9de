#!/usr/bin/env python3
"""Compare two perfbench result sets, workload by workload.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are each a .jsonl file of records written by
perfbench/run.py, or a directory of them (such as .bench_results/ or
perfbench/baseline/). Records are grouped by workload and by traced or
untraced run.

- Deterministic metrics (model.*, the arch.* counts, compile.stages,
  sim.bubble_frac, sim.makespan_us) are pure functions of the
  configuration and seed: they must be identical for every seed both
  sets ran. Any difference is reported as MISMATCH.
- Wall metrics are reported as median [first quartile, third quartile]
  of each set, with the change of the median. An end-to-end metric
  whose median got worse by more than its BENCHMARK.json bound is
  reported as WORSE.

Exits 1 when any deterministic metric differs, any end-to-end metric is
WORSE, or either set holds a run that failed its checks.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def is_deterministic(name):
    if name == "arch.probe_ns_per_adc_sample" or name.endswith("self_ms"):
        return False
    return (name.startswith("model.") or name.startswith("arch.") or
            name in ("compile.stages", "sim.bubble_frac", "sim.makespan_us"))


def load(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path)
                       if f.endswith(".jsonl") and ".spans." not in f)
    groups = {}
    for fn in files:
        with open(fn) as f:
            for line in f:
                if line.strip():
                    r = json.loads(line)
                    groups.setdefault((r["workload"], r["trace"]), []).append(r)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(sys.argv[1]), load(sys.argv[2])
    bad = False
    for key in sorted(set(base) & set(change)):
        a_runs, b_runs = base[key], change[key]
        print("== %s (%s): %d vs %d runs" % (key[0], "traced" if key[1] else "untraced",
                                             len(a_runs), len(b_runs)))
        for runs, label in ((a_runs, "base"), (b_runs, "change")):
            failed = [r["seed"] for r in runs if not r["correct"] or r["failed"]]
            if failed:
                print("   %s: runs with failed checks, seeds %s" % (label, failed))
                bad = True
        names = sorted(set(a_runs[0]["metrics"]) & set(b_runs[0]["metrics"]))
        for name in names:
            unit = a_runs[0]["metrics"][name]["unit"]
            if is_deterministic(name):
                a = {r["seed"]: r["metrics"][name]["value"] for r in a_runs}
                b = {r["seed"]: r["metrics"][name]["value"] for r in b_runs}
                common = sorted(set(a) & set(b))
                diff = [s for s in common if a[s] != b[s]]
                if diff:
                    verdict = "MISMATCH seeds %s" % diff
                elif common:
                    verdict = "identical on %d seeds" % len(common)
                else:
                    verdict = "no seed in both sets"
                bad |= bool(diff)
                print("   %-30s %-6s exact: %s" % (name, unit, verdict))
                continue
            qa = quartiles([r["metrics"][name]["value"] for r in a_runs])
            qb = quartiles([r["metrics"][name]["value"] for r in b_runs])
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
            verdict = ""
            if name in e2e:
                worse = -delta if better[name] == "higher" else delta
                verdict = "WORSE" if worse > e2e[name]["bound"] else "ok"
                bad |= verdict == "WORSE"
            print("   %-30s %-6s %.4g [%.4g, %.4g] -> %.4g [%.4g, %.4g]  %+.1f%% %s"
                  % (name, unit, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                     100 * delta, verdict))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

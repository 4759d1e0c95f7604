#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

1. Sensitivity: a busy-wait injected inside every timed step, making up 35%
   of the step's time, must make sim_s_per_host_s worse than the baseline by
   more than its bound in BENCHMARK.json; an unmodified rerun must not.
2. Exactness: two sets of runs on the same seed must report identical
   simulated outcomes (--trace 0) and identical work counters (--trace 1).

    python3 perfbench/selftest.py

Run it from the root of the repository; it exits non-zero when a check fails.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Indoor at its default seed: the shortest worlds, so the most repeats.
WORKLOAD = "indoor"
SEED = 7
SECONDS = 10
REPEATS = 3
INJECTED_SHARE = 0.35

OUTCOMES = ("miss_ratio", "redundancy", "messages_per_node_hour",
            "storage_cv", "energy_j_per_node_hour")
# Per-layer metrics that are host times rather than exact counts.
HOST_TIMED = ("_ms", ".ns_per_op", ".record_phase_s", ".drain_phase_s",
              "tracing_overhead_pct")


def run(trace, slowdown=0.0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           WORKLOAD, "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    if slowdown:
        cmd += ["--inject-slowdown", str(slowdown)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.exit("selftest: %s exited with %d" % (" ".join(cmd), out.returncode))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("selftest: %s reported incorrect output" % " ".join(cmd))
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(base, other, better):
    """Share of `base` by which `other` is worse."""
    return (base - other) / base if better == "higher" else (other - base) / base


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    rate = spec["sim_s_per_host_s"]
    ok = True

    # Baseline, injected and rerun sets interleave, so a change in host load
    # during the test lands on all three alike.
    sets = {"baseline": [], "injected": [], "rerun": []}
    for _ in range(REPEATS):
        for name, slowdown in (("baseline", 0.0), ("injected", INJECTED_SHARE),
                               ("rerun", 0.0)):
            sets[name].append(run(0, slowdown))
    med = {name: statistics.median(r["sim_s_per_host_s"] for r in runs)
           for name, runs in sets.items()}
    for name, must_trip in (("injected", True), ("rerun", False)):
        w = worse_by(med["baseline"], med[name], rate["better"])
        tripped = w > rate["bound"]
        print("sensitivity: %-8s sim_s_per_host_s %.1f vs baseline %.1f: "
              "worse by %.3f (bound %.2f) -> %s"
              % (name, med[name], med["baseline"], w, rate["bound"],
                 "tripped" if tripped else "within bound"))
        ok &= tripped == must_trip

    for name in OUTCOMES:
        values = {r[name] for runs in sets.values() for r in runs}
        if len(values) != 1:
            print("exactness: %s differs across runs: %s" % (name, sorted(values)))
            ok = False
    first = run(1)
    second = run(1)
    for name, value in first.items():
        if name.endswith(HOST_TIMED):
            continue
        if second[name] != value:
            print("exactness: %s differs across sets: %r vs %r"
                  % (name, value, second[name]))
            ok = False
    print("selftest:", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

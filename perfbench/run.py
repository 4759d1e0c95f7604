#!/usr/bin/env python3
"""Benchmark of record for the EnviroMic simulator.

Builds the simulator library from ../src together with the benchmark program
(perfbench/worlds.cpp) into .bench_build/perfbench, runs one workload and
prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. The line before it is the host
fingerprint (nproc, CPU model, compiler, build type, git rev, source hash).

    python3 perfbench/run.py --workload indoor --seed 7 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Run it from the root of the repository. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
# Whole invocation must end within this many seconds (build excluded).
RUN_DEADLINE_S = 170

# Default world seed per workload; the held-out seeds are listed in
# README.md and BENCHMARK.json and are never used while tuning.
DEFAULT_SEEDS = {"indoor": 7, "outdoor": 31, "chaos_drain": 7}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found at %s" % os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench_worlds")


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler():
    found = {}
    files = os.path.join(BUILD, "CMakeFiles")
    for d in sorted(os.listdir(files)) if os.path.isdir(files) else []:
        path = os.path.join(files, d, "CMakeCXXCompiler.cmake")
        if os.path.isfile(path):
            with open(path) as f:
                for line in f:
                    for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                        if line.startswith("set(%s " % key):
                            found[key] = line.split('"')[1]
    return "%s %s" % (found.get("CMAKE_CXX_COMPILER_ID", "unknown"),
                      found.get("CMAKE_CXX_COMPILER_VERSION", "unknown"))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev():
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_hash():
    """sha256 over src/ and perfbench/, so a result names its code even
    outside a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-slowdown", type=float, default=0.0,
                    help="busy-wait for this share of every timed step, "
                         "0 <= share < 1 (sensitivity self-test only)")
    args = ap.parse_args()
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if seed < 0 or args.seconds <= 0 or not 0 <= args.inject_slowdown < 1:
        fail("need --seed >= 0, --seconds > 0 and 0 <= --inject-slowdown < 1")

    binary = build()
    started = time.monotonic()
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.inject_slowdown > 0:
        cmd += ["--inject-slowdown", repr(args.inject_slowdown)]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail("workload run exceeded %d s" % RUN_DEADLINE_S)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail("perfbench_worlds exited with code %d" % out.returncode)
    result = json.loads(lines[-1])

    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": compiler(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_rev": git_rev(),
        "source_sha256": source_hash(),
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "wall_s": round(time.monotonic() - started, 3),
    }
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host": host}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

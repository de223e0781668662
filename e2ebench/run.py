#!/usr/bin/env python3
"""End-to-end benchmark of the FMTCP simulator.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

Configures and builds the program from this checkout's own src/ into
.bench_build/e2ebench (never the untracked build/ tree), then runs the
benchmark program (main.cc), whose last line of standard output is the
result JSON. Build output goes to standard error. Set-up time runs from
the start of this script to the moment the program has generated its
inputs. See e2ebench/README.md.
"""

import argparse
import os
import subprocess
import sys
import time

START_NS = time.monotonic_ns()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("fmtcp_table1", "fmtcp_surge", "mptcp_grid")

# Program sources the benchmark builds and includes.
PROGRAM_SOURCES = (
    "src/CMakeLists.txt",
    "src/harness/runner.h",
    "src/harness/sweep.h",
    "src/harness/table1.h",
    "src/core/connection.h",
    "src/core/allocator.h",
    "src/mptcp/connection.h",
    "src/net/topology.h",
    "src/net/trace.h",
    "src/sim/simulator.h",
    "src/fountain/codec.h",
    "src/obs/observer.h",
    "src/common/buffer_pool.h",
)

# A run measures for --seconds; this covers its reference round, the
# traced run's probes and a slow host, within the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    missing = [p for p in PROGRAM_SOURCES
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail("missing program sources: " + ", ".join(missing) +
             " (the benchmark builds the program from this checkout's src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the self-test of the benchmark's checks")
    args = parser.parse_args()

    if args.self_test:
        build(["e2e_selftest"])
        return subprocess.run([os.path.join(BUILD, "e2e_selftest")]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    build(["fmtcp_e2e"])
    cmd = [os.path.join(BUILD, "fmtcp_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--start-ns", str(START_NS)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())

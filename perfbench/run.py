#!/usr/bin/env python3
"""Build and run the mlio benchmark.

    python3 perfbench/run.py --workload ingest|query|live --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the checkout's src/)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
calls only rebuild what changed.  The binary's report goes to stdout and its
last line is the JSON result; build output goes to stderr.  A traced run
also writes a Chrome trace-event file to .bench_out/.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configure once, then build the benchmark target; serialised by a lock
    so concurrent runs in one checkout never build over each other."""
    tmp = os.path.join(out, "tmp")  # keeps the compiler's scratch files in the checkout
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, env=env, check=True)
        subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", BUILD_JOBS],
                       stdout=sys.stderr, env=env, check=True)
    return os.path.join(out, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["ingest", "query", "live"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds in [1, 60]")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no mlio sources next to perfbench/ (expected src/CMakeLists.txt)")

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())

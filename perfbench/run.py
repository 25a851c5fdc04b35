#!/usr/bin/env python3
"""Build and run the XSQ++ benchmark.

    python3 perfbench/run.py --workload stream-xsqf --seed 1 --seconds 10 --trace 0

Run from the root of an XSQ++ source tree. The first run configures and
builds perfbench together with the repository's own libraries and the
xsqd / xsq_router daemons (Release) under $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset; later runs only
rebuild what changed. Its output is passed through, so the
last line of standard output is the JSON result. Daemon logs, reports
and span files land in <build dir>/runs.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("stream-xsqf", "serve-inproc", "serve-mixed", "cluster-rf2")
# A first run builds and then measures; both together stay under 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_sha(root):
    """Hash of the program's sources, so a report names what it measured
    even where no git metadata is available."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "perfbench/src",
                "perfbench/CMakeLists.txt"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit_id(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def build(root, build_dir):
    started = time.monotonic()
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(os.cpu_count() or 1), "--target", "perfbench", "xsqd",
                  "xsq_router"])
    for step in steps:
        left = BUILD_TIMEOUT_S - (time.monotonic() - started)
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if result.returncode != 0:
            fail("build failed: " + " ".join(step))


def run_perfbench(command):
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)

    def forward(signum, _frame):
        # perfbench kills and reaps its daemons on SIGINT/SIGTERM.
        child.send_signal(signum)

    signal.signal(signal.SIGINT, forward)
    signal.signal(signal.SIGTERM, forward)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.terminate()
        try:
            child.wait(timeout=5)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    return child.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", "examples/xsqd.cpp",
                   "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of an XSQ++ source tree (%s is missing)"
                 % needed)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    build(root, build_dir)
    work_dir = os.path.join(build_dir, "runs")
    os.makedirs(work_dir, exist_ok=True)

    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%d" % args.seconds,
        "--trace=%d" % args.trace,
        "--xsqd=" + os.path.join(build_dir, "xsq", "examples", "xsqd"),
        "--router=" + os.path.join(build_dir, "xsq", "examples", "xsq_router"),
        "--work-dir=" + work_dir,
        "--commit=" + commit_id(root),
        "--source-sha=" + source_sha(root),
    ]
    sys.exit(run_perfbench(command))


if __name__ == "__main__":
    main()

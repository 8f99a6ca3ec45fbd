#!/usr/bin/env python3
"""Builds the MSCM benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload serve_point --seed 1 --seconds 10 --trace 0

Workloads: serve_point, serve_batch, serve_feedback, derive (see README.md).
The build goes to .bench_build/perfbench under the checkout root; its output
goes to standard error. The benchmark's last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code is
0 only when every output check passed.

Extra flags after the four above are passed to the benchmark binary
(for example --describe, which the seed test uses).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("serve_point", "serve_batch", "serve_feedback", "derive")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark and mscm_served."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4",
                  "--target", "perfbench", "mscm_served"])
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        return 2
    binary = os.path.join(BUILD_DIR, "perfbench")
    served = os.path.join(BUILD_DIR, "mscm", "net", "mscm_served")
    command = [binary,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--served", served,
               "--trace-dir", TRACE_DIR] + extra
    # stdout is inherited, so the binary's result line stays the last line.
    sys.stdout.flush()
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table3_stream --seed 1 --seconds 10 --trace 0

Workloads: table3_stream, tiny_jobs (see BENCHMARK.json).
The first run configures and builds perfbench/ (which compiles the library
from src/) into the directory named by CARGO_TARGET_DIR, default
.bench_build; later runs only rebuild what changed.  Build output goes to
stderr.  The benchmark binary prints a "# facts" line (host fingerprint
and workload properties) and, as the last line of stdout, one JSON result
object.  The exit status is the binary's: 0 when every output matched its
reference.
"""

import argparse
import os
import subprocess
import sys


def build(build_dir):
    """Configure and build the perfbench target; False on failure."""
    configure = ["cmake", "-S", "perfbench", "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return False
    jobs = str(len(os.sched_getaffinity(0)))
    return subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr).returncode == 0


def commit():
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        print("run.py: start from the repository root", file=sys.stderr)
        return 2
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    spans = os.path.join(build_dir, "spans-%s.csv" % args.workload)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--spans", spans]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

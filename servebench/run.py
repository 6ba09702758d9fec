#!/usr/bin/env python3
"""The Cortex serving benchmark: one command per workload run.

    python3 servebench/run.py --workload hot-routed --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds cortexd, cortex_router and the
harness from source (into $CARGO_TARGET_DIR, default .bench_build), then runs
the harness, whose last stdout line is the JSON result.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics.  --selftest builds and
runs the tests of the benchmark's own arithmetic instead.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hot-routed", "large-scan", "write-churn"]
TARGETS = ["cortexd", "cortex_router", "servebench", "servebench_math_test"]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "servebench")


def build():
    """Configures and builds; output goes to stderr so stdout stays clean."""
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write("servebench: %s is not a Cortex checkout "
                             "(missing %s)\n" % (ROOT, needed))
            return False
    out = build_dir()
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out],
             ["cmake", "--build", out, "-j", jobs, "--target"] + TARGETS]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("servebench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload is required")
    if not build():
        return 2
    if args.selftest:
        return subprocess.run(
            [os.path.join(build_dir(), "servebench_math_test")]).returncode
    run_dir = os.path.join(ROOT, ".servebench-run", args.workload)
    cmd = [os.path.join(build_dir(), "servebench"),
           "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--bin-dir=" + os.path.join(build_dir(), "cortex", "tools"),
           "--run-dir=" + os.path.relpath(run_dir, ROOT)]
    # Relative socket paths stay under the 108-byte sun_path limit however
    # deep the checkout is.
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

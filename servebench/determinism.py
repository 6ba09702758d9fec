#!/usr/bin/env python3
"""Determinism check: run each workload's stream twice for one seed.

    python3 servebench/determinism.py [--seed 5] [--seconds 10] [workload ...]

Fails (exit 1) if the timed window's lookups, hits, correct hits, final
resident entries or eviction count differ between the two runs, if any hit
went unrefereed by the workload oracle, or if a run reports correct=false
(which includes the in-run check that every set-up's warm-up reached the
same state).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None, None
    state = next((l for l in lines if l.startswith("state ")), None)
    return state, json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=WORKLOADS)
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--seconds", type=float, default=10)
    args = p.parse_args()
    failed = False
    for w in args.workloads:
        runs = [run_once(w, args.seed, args.seconds) for _ in range(2)]
        states = [s for s, _ in runs]
        ok = all(s is not None for s in states) and states[0] == states[1]
        ok = ok and all(r["correct"] for _, r in runs)
        ok = ok and " unrefereed=0 " in states[0]
        print("%-12s %s  %s" % (w, "same" if ok else "DIFFERENT", states[0]))
        if not ok:
            print("%-12s      %s" % ("", states[1]))
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

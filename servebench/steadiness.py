#!/usr/bin/env python3
"""Steadiness report: each workload run repeatedly, order alternating.

    python3 servebench/steadiness.py [--runs 10] [--sets 1] [--first-seed 1]
                                     [--trace 0] [workload ...]

Round r runs every workload once with seed first_seed + r, rotating which
workload goes first.  For each workload and metric it prints the median,
the quartiles (statistics.quantiles(values, n=4)) and IQR/median, and
marks a spread that exceeds a third of the bound in BENCHMARK.json ("!")
or the bound itself ("!!").  With --sets 2 the whole schedule runs twice
and the report adds how far the second set's median moved from the first.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}, 10
    spec = json.load(open(path))
    return ({m["name"]: m for m in spec.get("end_to_end", [])},
            spec.get("run_seconds", 10))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write("run failed: %s seed %d\n" % (workload, seed))
        return None
    return json.loads(lines[-1])


def run_set(workloads, runs, first_seed, seconds, trace):
    values = {w: {} for w in workloads}
    for r in range(runs):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            res = run_once(w, first_seed + r, seconds, trace)
            if res is None:
                continue
            if not res["correct"]:
                sys.stderr.write("correct=false: %s seed %d\n"
                                 % (w, first_seed + r))
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
    return values


def summary(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (
        vals[0], None, vals[0])
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    metric_bounds, seconds = bounds()
    sets = [run_set(args.workloads, args.runs, args.first_seed + 1000 * i,
                    seconds, args.trace) for i in range(args.sets)]
    for w in args.workloads:
        print("== %s (%d runs per set)" % (w, args.runs))
        for name in sorted(sets[0][w]):
            med, q1, q3, spread = summary(sets[0][w][name])
            bound = metric_bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "!!" if spread > bound else "!" if spread > bound / 3 else ""
            line = "  %-28s median=%-12.6g q1=%-12.6g q3=%-12.6g iqr/med=%.3f" % (
                name, med, q1, q3, spread)
            if bound is not None:
                line += " bound=%.2f" % bound
            for other in sets[1:]:
                if name in other[w]:
                    med2 = statistics.median(other[w][name])
                    shift = (med2 - med) / med if med else 0.0
                    line += " second-set shift=%+.3f" % shift
            print(line + (" " + flag if flag else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())

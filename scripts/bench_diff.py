#!/usr/bin/env python3
"""Compare a fresh bench --json output against its committed baseline.

Usage: bench_diff.py BASELINE.json CANDIDATE.json [--rel-tol R] [--abs-tol A]

Structure is compared exactly: both files must have the same keys, the
same array lengths, and equal strings.  Numbers pass when

    |a - b| <= abs_tol + rel_tol * max(|a|, |b|)

with the band chosen per key:

  * a key the BASELINE lists in its top-level "deterministic_keys" array
    gets the TIGHT band (rel 0.02), whatever its name.  A bench declares
    the values it replays exactly (virtual-clock hit rates and latencies,
    work counts such as rows copied per publish), so a name that looks
    like a wall-clock metric cannot hide a deterministic value in the
    wide band.  The declaration only ever tightens;
  * otherwise, wall-clock / machine-dependent key names (throughput,
    *_rps, qps, ns_per*, gb_per*, speedup, seconds, latency, hit_rate,
    entries, bytes) get the WIDE band (default rel 0.75) — these guard
    against collapse, not noise;
  * everything else (recall, counts, config echo-back like
    tasks/threads/dim) gets the TIGHT band, because those values are
    deterministic replays and should not move unless the algorithm
    changed.

The declaration itself is compared like any other value, so a candidate
that stops declaring a key fails the diff instead of silently widening.

Strings under VOLATILE_STRING_KEYS (e.g. active_variant — the SIMD level
differs per machine) only warn on mismatch.

stdlib only; exit 0 = within band, 1 = regression/shape mismatch.
"""

import argparse
import json
import re
import sys

WIDE_KEY_RE = re.compile(
    r"(throughput|_rps|qps|ns_per|gb_per|per_sec|speedup|seconds|latency"
    r"|hit_rate|entries|bytes)",
    re.IGNORECASE,
)
VOLATILE_STRING_KEYS = {"active_variant"}

TIGHT_REL = 0.02
TIGHT_ABS = 1e-9


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def deterministic_keys(doc):
    """The baseline's declared tight-band keys (empty when undeclared).

    Raises ValueError on a malformed declaration."""
    if not isinstance(doc, dict) or "deterministic_keys" not in doc:
        return frozenset()
    keys = doc["deterministic_keys"]
    if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
        raise ValueError("deterministic_keys must be a list of key names")
    return frozenset(keys)


def diff(base, cand, path, key, errors, warnings, wide_rel, wide_abs,
         deterministic=frozenset()):
    if is_number(base) and is_number(cand):
        wide = bool(key and WIDE_KEY_RE.search(key)) and \
            key not in deterministic
        rel, tol_abs = (wide_rel, wide_abs) if wide else (TIGHT_REL, TIGHT_ABS)
        band = tol_abs + rel * max(abs(base), abs(cand))
        if abs(base - cand) > band:
            errors.append(
                f"{path}: {cand!r} outside {'wide' if wide else 'tight'} band"
                f" of baseline {base!r} (|delta| {abs(base - cand):.6g} >"
                f" {band:.6g})"
            )
        return
    if type(base) is not type(cand):
        errors.append(
            f"{path}: type changed {type(base).__name__} ->"
            f" {type(cand).__name__}"
        )
        return
    if isinstance(base, dict):
        for missing in sorted(base.keys() - cand.keys()):
            errors.append(f"{path}.{missing}: missing from candidate")
        for added in sorted(cand.keys() - base.keys()):
            errors.append(f"{path}.{added}: not in baseline")
        for k in sorted(base.keys() & cand.keys()):
            diff(base[k], cand[k], f"{path}.{k}", k, errors, warnings,
                 wide_rel, wide_abs, deterministic)
    elif isinstance(base, list):
        if len(base) != len(cand):
            errors.append(
                f"{path}: length changed {len(base)} -> {len(cand)}"
            )
            return
        for i, (b, c) in enumerate(zip(base, cand)):
            diff(b, c, f"{path}[{i}]", key, errors, warnings, wide_rel,
                 wide_abs, deterministic)
    elif base != cand:
        if key in VOLATILE_STRING_KEYS:
            warnings.append(f"{path}: {base!r} -> {cand!r} (volatile, ok)")
        else:
            errors.append(f"{path}: {base!r} != {cand!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--rel-tol", type=float, default=0.75,
                    help="relative tolerance for wall-clock keys")
    ap.add_argument("--abs-tol", type=float, default=1e-6,
                    help="absolute tolerance for wall-clock keys")
    args = ap.parse_args()

    try:
        with open(args.baseline) as f:
            base = json.load(f)
        with open(args.candidate) as f:
            cand = json.load(f)
        deterministic = deterministic_keys(base)
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 1

    errors, warnings = [], []
    diff(base, cand, "$", None, errors, warnings, args.rel_tol, args.abs_tol,
         deterministic)

    name = base.get("benchmark", args.baseline) if isinstance(base, dict) \
        else args.baseline
    for w in warnings:
        print(f"bench_diff [{name}]: note: {w}")
    if errors:
        for e in errors:
            print(f"bench_diff [{name}]: FAIL: {e}", file=sys.stderr)
        print(f"bench_diff [{name}]: {len(errors)} value(s) outside the"
              " tolerance band vs the committed baseline. If the change is"
              " intentional, regenerate with --json and commit the new"
              " baseline.", file=sys.stderr)
        return 1
    print(f"bench_diff [{name}]: OK ({args.candidate} within band of"
          f" {args.baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

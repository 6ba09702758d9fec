#!/usr/bin/env python3
"""Self-test for scripts/bench_diff.py: wide vs tight band selection
(name regex and per-baseline deterministic_keys declarations), shape
mismatches (missing/added keys, list lengths, type changes),
volatile-string handling, and end-to-end exit codes.

Run directly (python3 scripts/test_bench_diff.py) or via ctest.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_diff  # noqa: E402

WIDE_REL = 0.75
WIDE_ABS = 1e-6


def run_diff(base, cand):
    errors, warnings = [], []
    bench_diff.diff(base, cand, "$", None, errors, warnings,
                    WIDE_REL, WIDE_ABS, bench_diff.deterministic_keys(base))
    return errors, warnings


class BandSelectionTest(unittest.TestCase):
    def test_wide_key_regex_classification(self):
        for key in ("throughput", "lookup_rps", "qps", "ns_per_call",
                    "gb_per_sec", "speedup", "p99_seconds", "latency",
                    "hit_rate", "entries", "bytes_sent"):
            self.assertTrue(bench_diff.WIDE_KEY_RE.search(key), key)
        for key in ("recall_at_10", "tasks", "threads", "dim", "errors"):
            self.assertFalse(bench_diff.WIDE_KEY_RE.search(key), key)

    def test_tight_band_rejects_small_drift(self):
        # recall is deterministic: 2% rel tolerance.
        errors, _ = run_diff({"recall_at_10": 0.90}, {"recall_at_10": 0.91})
        self.assertEqual(errors, [])
        errors, _ = run_diff({"recall_at_10": 0.90}, {"recall_at_10": 0.80})
        self.assertEqual(len(errors), 1)
        self.assertIn("tight band", errors[0])

    def test_wide_band_tolerates_machine_noise_not_collapse(self):
        # throughput is wall-clock: 75% rel tolerance guards collapse only.
        errors, _ = run_diff({"throughput": 100.0}, {"throughput": 60.0})
        self.assertEqual(errors, [])
        errors, _ = run_diff({"throughput": 100.0}, {"throughput": 10.0})
        self.assertEqual(len(errors), 1)
        self.assertIn("wide band", errors[0])

    def test_nested_key_controls_band(self):
        base = {"lookup": {"p99_seconds": 1.0, "recall": 1.0}}
        cand = {"lookup": {"p99_seconds": 1.5, "recall": 0.9}}
        errors, _ = run_diff(base, cand)
        # p99_seconds (wide) passes at +50%; recall (tight) fails at -10%.
        self.assertEqual(len(errors), 1)
        self.assertIn("recall", errors[0])


class DeclaredBandTest(unittest.TestCase):
    def test_declared_key_gets_tight_band_despite_wide_name(self):
        # A 2x virtual-clock hit-rate collapse must not pass.
        base = {"deterministic_keys": ["hit_rate"],
                "results": [{"hit_rate": 0.70, "throughput_rps": 100.0}]}
        cand = {"deterministic_keys": ["hit_rate"],
                "results": [{"hit_rate": 0.35, "throughput_rps": 60.0}]}
        errors, _ = run_diff(base, cand)
        self.assertEqual(len(errors), 1)
        self.assertIn("hit_rate", errors[0])
        self.assertIn("tight band", errors[0])

    def test_undeclared_wide_name_keeps_wide_band(self):
        errors, _ = run_diff({"hit_rate": 0.70}, {"hit_rate": 0.35})
        self.assertEqual(errors, [])

    def test_declaration_only_tightens(self):
        # Declaring a key whose name is already tight changes nothing.
        base = {"deterministic_keys": ["recall"], "recall": 0.90}
        errors, _ = run_diff(base, {"deterministic_keys": ["recall"],
                                    "recall": 0.80})
        self.assertEqual(len(errors), 1)
        self.assertIn("tight band", errors[0])

    def test_dropping_the_declaration_fails(self):
        base = {"deterministic_keys": ["hit_rate"], "hit_rate": 0.7}
        errors, _ = run_diff(base, {"hit_rate": 0.7})
        self.assertEqual(len(errors), 1)
        self.assertIn("deterministic_keys", errors[0])

    def test_malformed_declaration_rejected(self):
        for bad in ("hit_rate", [1, 2], {"hit_rate": True}):
            with self.assertRaises(ValueError):
                bench_diff.deterministic_keys({"deterministic_keys": bad})

    def test_committed_baselines_declare_their_replays(self):
        root = Path(__file__).resolve().parent.parent
        expected = {
            "BENCH_concurrency.json": {"throughput_rps", "hit_rate",
                                       "p99_latency_s"},
            "BENCH_ann.json": {"self_hit_rate"},
            "BENCH_vector_ops.json": {"bytes_per_vector"},
            "BENCH_writer.json": {"resident_rows",
                                  "rows_copied_per_publish",
                                  "publishes_per_restore",
                                  "evictions_per_insert"},
        }
        for name, keys in expected.items():
            doc = json.loads((root / name).read_text())
            self.assertEqual(bench_diff.deterministic_keys(doc), keys, name)


class ShapeMismatchTest(unittest.TestCase):
    def test_missing_and_added_keys(self):
        errors, _ = run_diff({"a": 1, "b": 2}, {"b": 2, "c": 3})
        self.assertEqual(len(errors), 2)
        self.assertTrue(any("missing from candidate" in e for e in errors))
        self.assertTrue(any("not in baseline" in e for e in errors))

    def test_list_length_change(self):
        errors, _ = run_diff({"xs": [1, 2, 3]}, {"xs": [1, 2]})
        self.assertEqual(len(errors), 1)
        self.assertIn("length changed 3 -> 2", errors[0])

    def test_type_change(self):
        errors, _ = run_diff({"a": 1}, {"a": "1"})
        self.assertEqual(len(errors), 1)
        self.assertIn("type changed", errors[0])

    def test_list_elements_inherit_enclosing_key(self):
        errors, _ = run_diff({"entries": [100]}, {"entries": [60]})
        self.assertEqual(errors, [])  # wide key -> 40% drop is in band

    def test_volatile_string_warns_instead_of_failing(self):
        errors, warnings = run_diff({"active_variant": "avx2"},
                                    {"active_variant": "scalar"})
        self.assertEqual(errors, [])
        self.assertEqual(len(warnings), 1)

    def test_other_string_mismatch_fails(self):
        errors, _ = run_diff({"benchmark": "ann"}, {"benchmark": "ivf"})
        self.assertEqual(len(errors), 1)


class EndToEndTest(unittest.TestCase):
    def run_main(self, base, cand):
        with tempfile.TemporaryDirectory() as tmp:
            bp = Path(tmp) / "base.json"
            cp = Path(tmp) / "cand.json"
            bp.write_text(json.dumps(base))
            cp.write_text(json.dumps(cand))
            with mock.patch.object(sys, "argv",
                                   ["bench_diff.py", str(bp), str(cp)]):
                return bench_diff.main()

    def test_within_band_exits_zero(self):
        base = {"benchmark": "ann", "recall": 0.95, "qps": 1000.0}
        cand = {"benchmark": "ann", "recall": 0.95, "qps": 700.0}
        self.assertEqual(self.run_main(base, cand), 0)

    def test_regression_exits_one(self):
        base = {"benchmark": "ann", "recall": 0.95, "qps": 1000.0}
        cand = {"benchmark": "ann", "recall": 0.70, "qps": 1000.0}
        self.assertEqual(self.run_main(base, cand), 1)

    def test_declared_key_regression_exits_one(self):
        base = {"benchmark": "c", "deterministic_keys": ["hit_rate"],
                "hit_rate": 0.70}
        cand = {"benchmark": "c", "deterministic_keys": ["hit_rate"],
                "hit_rate": 0.60}
        self.assertEqual(self.run_main(base, cand), 1)

    def test_malformed_declaration_exits_one(self):
        base = {"benchmark": "c", "deterministic_keys": "hit_rate"}
        self.assertEqual(self.run_main(base, base), 1)

    def test_missing_file_exits_one(self):
        with mock.patch.object(sys, "argv",
                               ["bench_diff.py", "/nonexistent.json",
                                "/also-nonexistent.json"]):
            self.assertEqual(bench_diff.main(), 1)


if __name__ == "__main__":
    unittest.main()

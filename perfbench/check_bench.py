"""Tests of the benchmark's own arithmetic and checks.

    python3 perfbench/check_bench.py

They start no charblocks process: child runs are replaced by fakes.
"""

from __future__ import annotations

import tempfile
import unittest
from array import array
from pathlib import Path
from unittest import mock

import compare
import hostref
import run
import spans
from workloads import SETUP_ARGV, SETUP_KEY, sha256


def _spans(rows):
    """rows: (parent, start, end) in start order -> the recorder's arrays."""
    return (array("i", [r[0] for r in rows]), array("q", [r[1] for r in rows]),
            array("q", [r[2] for r in rows]))


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_sequential_children(self):
        # root [0,100]: children a [10,40] and b [50,90]; a has child [15,25]
        parent, start, end = _spans([(-1, 0, 100), (0, 10, 40), (1, 15, 25), (0, 50, 90)])
        self.assertEqual(list(spans.self_times(parent, start, end)), [30, 20, 10, 40])

    def test_overlapping_children_count_once(self):
        # children [10,50] and [30,70] cover [10,70] of the root: 60, not 80
        parent, start, end = _spans([(-1, 0, 100), (0, 10, 50), (0, 30, 70)])
        self.assertEqual(spans.self_times(parent, start, end)[0], 40)

    def test_child_clipped_to_parent(self):
        parent, start, end = _spans([(-1, 0, 100), (0, 90, 130)])
        self.assertEqual(list(spans.self_times(parent, start, end)), [90, 40])

    def test_recorder_nesting_and_round_trip(self):
        rec = spans.Recorder()
        inner = rec.wrap("inner", lambda x: x + 1)
        outer = rec.wrap("outer", lambda x: inner(x) * 2,
                         tag_of=lambda args: rec.tag_id((args[0], 7)))
        self.assertEqual(outer(1), 4)
        self.assertEqual(inner(5), 6)
        self.assertEqual([rec.names[i] for i in rec.name], ["outer", "inner", "inner"])
        self.assertEqual(list(rec.parent), [-1, 0, -1])
        self.assertEqual(list(rec.tag), [0, -1, -1])
        with tempfile.TemporaryDirectory() as d:
            prefix = Path(d) / "spans"
            rec.save(prefix, {"memo_before": 0, "memo_after": 0})
            header, name, parent, tag, start, end = spans.load(prefix)
        self.assertEqual(list(parent), list(rec.parent))
        self.assertEqual(list(end), list(rec.end))
        summary = spans.summarize(header, name, parent, tag, start, end)
        self.assertEqual(summary["calls"], {"outer": 1, "inner": 2})
        self.assertEqual(list(summary["tag_s"]), [(1, 7)])
        outer_self = summary["self_s"]["outer"] * 1e9
        self.assertEqual(round(outer_self), end[0] - start[0] - (end[1] - start[1]))


class GoldenCheckTest(unittest.TestCase):
    OUT = {SETUP_ARGV: b"core: 1\nweight: 0\n"}

    def run_with_outputs(self, workload, outputs):
        """run_workload with every child replaced by a fake whose stdout is
        taken from `outputs` in order (setup probes give the setup output)."""
        calls = iter(outputs)
        golden = {SETUP_KEY: {"sha256": sha256(self.OUT[SETUP_ARGV]), "exit_code": 0},
                  workload: {"sha256": sha256(b"rows\n"), "exit_code": 0}}

        def fake_spawn(cmd):
            argv = tuple(cmd[3:])
            out = self.OUT[SETUP_ARGV] if argv == SETUP_ARGV else next(calls)
            return {"stdout": out, "exit_code": 0, "spawned": 0.0, "wall_s": 1.0,
                    "cpu_s": 1.0, "peak_rss_mb": 20.0}

        with mock.patch.object(run, "spawn", fake_spawn), \
                mock.patch.object(run, "load_golden", return_value=golden), \
                mock.patch("builtins.print"):
            return run.run_workload(workload, seed=1, seconds=0, trace=False)

    def test_golden_output_passes(self):
        rec = self.run_with_outputs("table-n15", [b"rows\n"])
        self.assertTrue(rec["correct"])
        self.assertEqual((rec["attempted"], rec["failed"]), (run.SETUP_PROBES + 1, 0))

    def test_one_altered_byte_is_a_failure(self):
        rec = self.run_with_outputs("table-n15", [b"rowz\n"])
        self.assertFalse(rec["correct"])
        self.assertFalse(rec["result"]["correct"])
        self.assertEqual((rec["attempted"], rec["failed"]), (run.SETUP_PROBES + 1, 1))

    def test_timings_are_fastest_sample_over_fastest_reference(self):
        ref = hostref.REF_NOMINAL_S
        self.assertAlmostEqual(run.normalized([2.0, 1.5, 3.0], [0.02, 0.01, 0.03]),
                               1.5 / 0.01 * ref)
        # a host twice as slow doubles both, which cancels
        self.assertAlmostEqual(run.normalized([3.0, 6.0], [0.02, 0.04]),
                               run.normalized([1.5, 3.0], [0.01, 0.02]))


def _result_set(values, failed=0, attempted=10, seconds=20):
    return {"seconds": seconds, "env": {"nproc": 2, "cpu_model": "cpu"},
            "runs": {"w": [{"seed": s, "metrics": {"wall_s": v}, "failed": failed if s == 0
                            else 0, "attempted": attempted}
                           for s, v in enumerate(values)]}}


class CompareTest(unittest.TestCase):
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]

    def test_improved(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1), "improved")

    def test_unchanged(self):
        change = list(reversed(self.parent))
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1), "unchanged")

    def test_regressed(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1), "regressed")

    def test_small_slowdown_within_bound_is_unchanged(self):
        change = [v * 1.05 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1), "unchanged")

    def test_wide_spread_is_unresolved(self):
        noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 0.9, 1.1, 1.0]
        self.assertEqual(compare.verdict(self.parent, noisy, "lower", 0.1), "unresolved")

    def test_wide_spread_all_better_is_resolved(self):
        change = [0.5, 0.9, 0.6, 0.85, 0.55, 0.7, 0.8, 0.65, 0.75, 0.6]
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1), "improved")

    def test_wide_spread_all_worse_is_unresolved(self):
        # worse on every run, but the median gap (0.175) is under the bound
        change = [1.03, 1.6, 1.04, 1.5, 1.05, 1.45, 1.1, 1.2, 1.15, 1.4]
        self.assertGreater(compare.spread(change), 0.25)
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.25), "unresolved")

    def test_higher_is_better(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(compare.verdict(self.parent, change, "higher", 0.1), "improved")

    def test_nine_of_ten_wins_needed(self):
        # 8 of 10 pairs win by a wide margin, 2 lose: not an improvement
        change = [v * 0.8 for v in self.parent[:8]] + [1.03, 1.03]
        self.assertNotEqual(compare.verdict(self.parent, change, "lower", 0.1), "improved")

    def test_error_rate_counts_with_base(self):
        metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]
        rows = compare.compare(_result_set(self.parent), _result_set(self.parent, failed=1),
                               metrics)
        self.assertEqual(rows[-1][1:], ("error_rate", "ratio", "0/100", "1/100", "regressed"))
        self.assertEqual(rows[0][3], compare.quartiles(self.parent))
        rows = compare.compare(_result_set(self.parent), _result_set(self.parent), metrics)
        self.assertEqual(rows[0][-1], "unchanged")
        self.assertEqual(rows[-1][-1], "unchanged")

    def test_setup_s_is_pooled_over_workloads(self):
        metrics = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}]
        parent = {"seconds": 20, "env": {"nproc": 2, "cpu_model": "cpu"},
                  "runs": {w: [{"seed": s, "metrics": {"setup_s": v}, "failed": 0,
                                "attempted": 1} for s, v in enumerate(self.parent)]
                           for w in ("a", "b")}}
        rows = compare.compare(parent, parent, metrics)
        self.assertEqual([r[:2] for r in rows],
                         [("a", "error_rate"), ("b", "error_rate"), ("all", "setup_s")])
        self.assertEqual(rows[-1][3], compare.quartiles(self.parent * 2))
        summary = compare.summarize(parent["runs"], metrics)
        self.assertEqual(list(summary), ["all"])
        self.assertEqual(summary["all"]["setup_s"]["median"], 1.0)

    def test_sets_of_different_run_length_are_refused(self):
        metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]
        with self.assertRaises(ValueError):
            compare.compare(_result_set(self.parent), _result_set(self.parent, seconds=10),
                            metrics)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Unit checks for bench_delta.py's perf-ledger summary.

Run directly (python3 tools/test_bench_delta.py) — stdlib only, exercised by
the CI bench-smoke job beside test_check_bench_regression.py.
"""

import contextlib
import importlib.util
import io
import json
import tempfile
import unittest
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_delta", Path(__file__).resolve().parent / "bench_delta.py")
delta = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(delta)

METRICS = [("analyze_cpu_s", "lower"), ("score_spearman", "higher")]


def run(workload, seed, side, order, cpu, rho=1.0, failed=0):
    return {"workload": workload, "seed": seed, "side": side, "order": order,
            "result": {"correct": True, "attempted": 5, "failed": failed,
                       "metrics": {
                           "analyze_cpu_s": {"value": cpu, "unit": "s"},
                           "score_spearman": {"value": rho, "unit": "rho"}}}}


def ledger(parent_cpu, change_cpu, workload="analyze_mid"):
    runs, order = [], 0
    for seed, (p, c) in enumerate(zip(parent_cpu, change_cpu), start=1):
        for side, v in (("parent", p), ("change", c)):
            order += 1
            runs.append(run(workload, seed, side, order, v))
    return runs


class SummarizeTest(unittest.TestCase):
    def test_medians_delta_and_wins(self):
        runs = ledger([10.0, 11.0, 12.0, 10.5], [8.0, 8.5, 12.5, 8.2])
        rows = {r["metric"]: r for r in delta.summarize(runs, METRICS)}
        cpu = rows["analyze_cpu_s"]
        self.assertAlmostEqual(cpu["parent"], 10.75)
        self.assertAlmostEqual(cpu["change"], 8.35)
        self.assertAlmostEqual(cpu["delta"], (8.35 - 10.75) / 10.75)
        self.assertEqual((cpu["won"], cpu["pairs"]), (3, 4))
        self.assertLessEqual(cpu["q1"], cpu["parent"])
        self.assertGreaterEqual(cpu["q3"], cpu["parent"])

    def test_higher_is_better_and_ties_do_not_win(self):
        rows = {r["metric"]: r
                for r in delta.summarize(ledger([1.0], [1.0]), METRICS)}
        self.assertEqual(rows["score_spearman"]["won"], 0)
        self.assertEqual(rows["score_spearman"]["delta"], 0.0)

    def test_unpaired_runs_count_in_medians_not_pairs(self):
        runs = ledger([10.0, 12.0], [9.0, 9.0])
        runs.append(run("analyze_mid", 9, "parent", 99, 20.0))
        cpu = next(r for r in delta.summarize(runs, METRICS)
                   if r["metric"] == "analyze_cpu_s")
        self.assertEqual(cpu["pairs"], 2)
        self.assertAlmostEqual(cpu["parent"], 12.0)

    def test_pair_field_separates_runs_of_one_seed(self):
        runs = ledger([10.0], [9.0])
        for r in ledger([12.0], [13.0]):
            r["pair"] = "again"
            runs.append(r)
        cpu = next(r for r in delta.summarize(runs, METRICS)
                   if r["metric"] == "analyze_cpu_s")
        self.assertEqual((cpu["won"], cpu["pairs"]), (1, 2))

    def test_held_out_design_is_its_own_row(self):
        runs = ledger([10.0], [9.0])
        for r in ledger([20.0], [15.0]):
            r["design_seed"] = 11
            runs.append(r)
        rows = {r["workload"]: r for r in delta.summarize(runs, METRICS)
                if r["metric"] == "analyze_cpu_s"}
        self.assertAlmostEqual(rows["analyze_mid"]["parent"], 10.0)
        self.assertAlmostEqual(rows["analyze_mid/d11"]["change"], 15.0)

    def test_failed_ops_summed_per_side(self):
        runs = ledger([10.0, 12.0], [9.0, 9.0])
        runs[1]["result"]["failed"] = 2
        self.assertEqual(delta.failed_ops(runs)[("analyze_mid", "change")],
                         (2, 10))

    def test_run_without_side_is_rejected(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "bad.json"
            path.write_text(json.dumps({"runs": [{"workload": "w"}]}))
            with self.assertRaises(ValueError):
                delta.load_runs(path)


class MainTest(unittest.TestCase):
    def test_second_ledger_prints_change_median_delta(self):
        with tempfile.TemporaryDirectory() as d:
            ours = Path(d) / "ours.json"
            theirs = Path(d) / "theirs.json"
            ours.write_text(json.dumps({"runs": ledger([10.0], [8.0])}))
            theirs.write_text(json.dumps({"runs": ledger([12.0], [10.0])}))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = delta.main([str(ours), str(theirs)])
        self.assertEqual(code, 0)
        text = out.getvalue()
        self.assertIn("-20.0%", text)      # 10.0 -> 8.0 in analyze_cpu_s
        self.assertIn("change medians vs", text)

    def test_usage_error(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            self.assertEqual(delta.main([]), 2)
        self.assertIn("usage", err.getvalue())


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Summarize a perf ledger: parent vs change medians per workload and metric.

A ledger (BENCH_pr<N>.json at the repo root) records every perfbench run
made for a performance claim, on both sides of the change:

    {"runs": [{"workload": "analyze_mid", "seed": 1, "side": "parent",
               "order": 1, "result": <last JSON line of perfbench/run.py>},
              ...]}

Runs with the same workload and pair id on opposite sides form a pair; a
run's pair id is its "pair" field, or its seed when it has none. A run on
a held-out design carries "design_seed" and is reported as its own
workload row, e.g. analyze_mid/d11. For each workload and each end-to-end
metric named in BENCHMARK.json, the report
prints the parent and change medians, the parent's quartiles, the relative
delta of the medians, and how many pairs the change won (strictly better in
the metric's `better` direction). Failed operations are counted per side.

    python3 tools/bench_delta.py BENCH_pr17.json
    python3 tools/bench_delta.py BENCH_pr17.json BENCH_pr16.json

With a second ledger it also prints, per workload and metric, the delta
between the two ledgers' change medians — the trajectory across claims.
Standard library only.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def end_to_end_metrics(path=BENCHMARK):
    """[(name, better)] in BENCHMARK.json order."""
    doc = json.loads(Path(path).read_text())
    return [(m["name"], m["better"]) for m in doc["end_to_end"]]


def load_runs(path):
    doc = json.loads(Path(path).read_text())
    runs = doc["runs"] if isinstance(doc, dict) else doc
    for run in runs:
        for key in ("workload", "seed", "side", "order", "result"):
            if key not in run:
                raise ValueError(f"{path}: run lacks {key!r}: {run}")
    return runs


def workload_of(run):
    design = run.get("design_seed")
    return run["workload"] + (f"/d{design}" if design else "")


def metric_value(run, name):
    entry = run["result"].get("metrics", {}).get(name)
    return None if entry is None else entry["value"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(runs, metrics):
    """Rows of {workload, metric, parent, change, q1, q3, delta, won,
    pairs}."""
    rows = []
    for workload in sorted({workload_of(r) for r in runs}):
        mine = [r for r in runs if workload_of(r) == workload]
        for name, better in metrics:
            side = {"parent": {}, "change": {}}
            for r in mine:
                v = metric_value(r, name)
                if v is not None and r["side"] in side:
                    side[r["side"]][r.get("pair", r["seed"])] = v
            parent, change = side["parent"], side["change"]
            if not parent or not change:
                continue
            p_med = statistics.median(parent.values())
            c_med = statistics.median(change.values())
            q1, q3 = quartiles(sorted(parent.values()))
            paired = set(parent) & set(change)
            won = sum(1 for k in paired
                      if (change[k] < parent[k] if better == "lower"
                          else change[k] > parent[k]))
            delta = (c_med - p_med) / p_med if p_med != 0 else 0.0
            rows.append({"workload": workload, "metric": name,
                         "parent": p_med, "change": c_med, "q1": q1, "q3": q3,
                         "delta": delta, "won": won, "pairs": len(paired)})
    return rows


def failed_ops(runs):
    """{(workload, side): (failed, attempted)} summed over runs."""
    out = {}
    for r in runs:
        key = (workload_of(r), r["side"])
        failed, attempted = out.get(key, (0, 0))
        out[key] = (failed + r["result"].get("failed", 0),
                    attempted + r["result"].get("attempted", 0))
    return out


def change_medians(runs, metrics):
    return {(row["workload"], row["metric"]): row["change"]
            for row in summarize(runs, metrics)}


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: bench_delta.py LEDGER [OTHER_LEDGER]", file=sys.stderr)
        return 2
    metrics = end_to_end_metrics()
    runs = load_runs(argv[0])
    print(f"{'workload':14s} {'metric':16s} {'parent':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'change':>10s} {'delta':>8s} {'won':>6s}")
    for row in summarize(runs, metrics):
        print(f"{row['workload']:14s} {row['metric']:16s} "
              f"{row['parent']:10.4g} {row['q1']:10.4g} {row['q3']:10.4g} "
              f"{row['change']:10.4g} {row['delta']:+8.1%} "
              f"{row['won']:>3d}/{row['pairs']:<2d}")
    for (workload, side), (failed, tried) in sorted(failed_ops(runs).items()):
        print(f"{workload:14s} {side:6s} failed ops {failed} of {tried}")
    if len(argv) == 2:
        ours = change_medians(runs, metrics)
        theirs = change_medians(load_runs(argv[1]), metrics)
        print(f"\nchange medians vs {argv[1]}:")
        for key in sorted(set(ours) & set(theirs)):
            before, after = theirs[key], ours[key]
            delta = (after - before) / before if before != 0 else 0.0
            print(f"{key[0]:14s} {key[1]:16s} {before:10.4g} -> "
                  f"{after:10.4g} {delta:+8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

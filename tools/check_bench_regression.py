#!/usr/bin/env python3
"""CI gate over deterministic benchmark counters and run-provenance documents.

Default mode compares one or more google-benchmark JSON reports (bench_micro /
bench_sweep --perf-json out.json) against the checked-in baseline
bench/BENCH_baseline.json. The gate is on deterministic *counters* (CG
iteration counts, subspace sweep counts), not wall time: the math is
bit-identical across machines and thread counts, so the counts are
reproducible on any CI runner, while nanoseconds are not. Thresholds are
generous (2x by default) so the gate only trips on genuine algorithmic
regressions — a broken preconditioner, a lost warm start, a disabled early
stop — never on noise.

Baseline schema: {"counter": <default counter>, "max_ratio": <default>,
"benchmarks": {name: value, ...}}. An entry value may be a plain number
(gated on the default counter), an object
{"counter": name, "value": N[, "max_ratio": R]} for per-entry overrides, or
a list of such objects to gate several counters of one benchmark row (the
serve bench pins requests_served / registry_hits / batches_formed this way).
A baseline value of 0 is an exact-zero gate: the observed counter must be
exactly 0 (the snapshot-restore rows pin eigen_runs_restore and
train_epochs_restore this way — a warm restore must re-solve and re-train
nothing).

Wall-time fields are carried through but never gated: any report counter
named wall_* (per-phase and end-to-end wall clock the benches attach to
their rows) is echoed in an informational section after the gate table, so
--perf-json diffs keep timing context without making CI timing-sensitive.
With `--walltime-out PATH` the default mode additionally writes a wall-time
trajectory artifact: one JSON row per benchmark with its per-iteration
wall_ms (explicit counter, else derived from real_time + time_unit) and any
wall_* phase counters — an artifact CI uploads on every run so timing trends
are trackable without ever failing a build over them.

Additional modes over the cirstag_cli observability outputs:

  --check-manifest M.json [...]   validate --manifest-json documents: the
                                  manifest/build/run sections must be present
                                  and checksums must be 16-digit lower hex
  --diff-manifests A.json B.json  compare two manifests' per-phase checksums
                                  key by key (e.g. current run vs the stored
                                  bench/MANIFEST_baseline.json, or a 1-thread
                                  vs an N-thread run); build/run provenance
                                  may differ, the checksums may not
  --check-health M.json [...]     validate the "health" section embedded in
                                  --metrics-json documents (or a standalone
                                  health report); exits 1 when any
                                  error-severity event was recorded
  --check-latency-csv F.csv [...] validate bench_serve --latency-csv
                                  timelines: exact header, one row per
                                  request with index == line order, positive
                                  latency, HTTP status, 16-hex trace IDs

Exit status: 0 on success, 1 on a regression / checksum mismatch /
error-severity health event, 2 on malformed input (every schema problem is
reported with the offending file and key, never a bare traceback).

Usage: check_bench_regression.py <report.json> [report2.json ...] [baseline.json]
(the baseline is recognized by its dict-valued "benchmarks"; when none is
given, bench/BENCH_baseline.json is used)
"""

import json
import re
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "bench" / "BENCH_baseline.json"

HEX16 = re.compile(r"^[0-9a-f]{16}$")
CHECKSUM_KEYS = (
    "input_graph", "embedding", "manifold_x", "manifold_y",
    "eigenvalues", "node_scores", "edge_scores",
)
SEVERITIES = ("info", "warning", "error")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# Benchmark-counter gate (default mode)


TIME_UNIT_TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def wall_ms_of_row(row):
    """Per-iteration wall milliseconds of a report row: the explicit wall_ms
    counter when the bench attached one, else derived from google-benchmark's
    real_time + time_unit."""
    if isinstance(row.get("wall_ms"), (int, float)):
        return float(row["wall_ms"])
    real = row.get("real_time")
    unit = row.get("time_unit", "ns")
    if isinstance(real, (int, float)) and unit in TIME_UNIT_TO_MS:
        return float(real) * TIME_UNIT_TO_MS[unit]
    return None


def write_walltime_trajectory(path, observed, report_paths):
    """Non-gating wall-time artifact: one row per benchmark with its wall_ms
    and any wall_* phase counters, for trajectory tracking across CI runs."""
    rows = {}
    for name, row in sorted(observed.items()):
        entry = {}
        ms = wall_ms_of_row(row)
        if ms is not None:
            entry["wall_ms"] = ms
        for key, value in row.items():
            if (isinstance(key, str) and key.startswith("wall_")
                    and key != "wall_ms" and isinstance(value, (int, float))):
                entry[key] = value
        if entry:
            rows[name] = entry
    doc = {"schema_version": 1, "reports": report_paths, "benchmarks": rows}
    try:
        with open(path, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    except OSError as e:
        print(f"error: cannot write wall-time trajectory {path}: {e}",
              file=sys.stderr)
        return False
    print(f"wall-time trajectory ({len(rows)} row(s)) written to {path}")
    return True


def run_bench_gate(argv):
    walltime_out = None
    if "--walltime-out" in argv:
        i = argv.index("--walltime-out")
        if i + 1 >= len(argv):
            print("error: missing path after --walltime-out", file=sys.stderr)
            return 2
        walltime_out = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    baseline = None
    reports = []
    report_paths = []
    for path in argv:
        data = load_json(path)
        if not isinstance(data, dict):
            print(f"error: {path}: top-level JSON must be an object",
                  file=sys.stderr)
            return 2
        if isinstance(data.get("benchmarks"), dict):
            if baseline is not None:
                print("error: more than one baseline file given", file=sys.stderr)
                return 2
            baseline = data
        else:
            reports.append(data)
            report_paths.append(path)
    if baseline is None:
        baseline = load_json(DEFAULT_BASELINE)
    if not reports:
        print("error: no benchmark reports given", file=sys.stderr)
        return 2

    default_counter = baseline.get("counter", "cg_iters")
    try:
        default_ratio = float(baseline.get("max_ratio", 2.0))
    except (TypeError, ValueError):
        print(f"error: baseline 'max_ratio' is not a number: "
              f"{baseline.get('max_ratio')!r}", file=sys.stderr)
        return 2
    expected = baseline.get("benchmarks", {})
    if not expected:
        print("error: baseline has no benchmarks", file=sys.stderr)
        return 2

    # Plain (non-aggregate) rows only; aggregates repeat the same counters.
    # row_source remembers which report file supplied each row so a missing
    # counter can name the file that was expected to carry it.
    observed = {}
    row_source = {}
    for path, report in zip(report_paths, reports):
        rows = report.get("benchmarks")
        if not isinstance(rows, list):
            print(f"error: {path}: no 'benchmarks' array (is this a "
                  f"google-benchmark --benchmark_out JSON?)", file=sys.stderr)
            return 2
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or "name" not in row:
                print(f"error: {path}: benchmarks[{i}] has no 'name' field",
                      file=sys.stderr)
                return 2
            if row.get("run_type", "iteration") != "iteration":
                continue
            observed[row["name"]] = row
            row_source[row["name"]] = path

    failures = []
    gated = 0
    print(f"{'benchmark':<40} {'counter':>16} {'baseline':>10} {'current':>10} {'ratio':>7}")
    for name, spec in sorted(expected.items()):
        for sub in (spec if isinstance(spec, list) else [spec]):
            if isinstance(sub, dict):
                counter = sub.get("counter", default_counter)
                if "value" not in sub:
                    print(f"error: baseline entry '{name}' is an object without "
                          f"a 'value' key", file=sys.stderr)
                    return 2
                raw_value = sub["value"]
                raw_ratio = sub.get("max_ratio", default_ratio)
            else:
                counter = default_counter
                raw_value = sub
                raw_ratio = default_ratio
            try:
                base_value = float(raw_value)
                max_ratio = float(raw_ratio)
            except (TypeError, ValueError):
                print(f"error: baseline entry '{name}': 'value'/'max_ratio' must "
                      f"be numbers (got {raw_value!r}, {raw_ratio!r})",
                      file=sys.stderr)
                return 2
            gated += 1
            row = observed.get(name)
            if row is None or counter not in row:
                print(f"{name:<40} {counter:>16} {base_value:>10.0f} {'MISSING':>10} {'-':>7}")
                if row is None:
                    # Which file should have carried it? Name them all so the
                    # reader knows which bench invocation to look at.
                    scanned = ", ".join(report_paths)
                    failures.append(
                        f"{name}: no row with this name in any submitted "
                        f"report (scanned: {scanned}) — was the bench that "
                        f"produces it run?")
                else:
                    present = ", ".join(sorted(
                        k for k, v in row.items()
                        if isinstance(v, (int, float)) and k != "name")) or "none"
                    failures.append(
                        f"{name}: row found in {row_source[name]} but it has "
                        f"no counter '{counter}' (numeric fields present: "
                        f"{present})")
                continue
            try:
                value = float(row[counter])
            except (TypeError, ValueError):
                print(f"error: report row '{name}': counter '{counter}' is not "
                      f"a number (got {row[counter]!r})", file=sys.stderr)
                return 2
            # A zero baseline is an exact gate: the counter must stay 0
            # (ratio 1.0), any positive observation is an infinite ratio.
            if base_value > 0:
                ratio = value / base_value
            else:
                ratio = 1.0 if value == 0 else float("inf")
            verdict = ""
            if ratio > max_ratio:
                verdict = "  REGRESSION"
                failures.append(
                    f"{name}: {counter} {value:.0f} vs baseline {base_value:.0f} "
                    f"(ratio {ratio:.2f} > {max_ratio:.2f})")
            elif ratio < 1.0 / max_ratio:
                verdict = "  improved — consider updating the baseline"
            print(f"{name:<40} {counter:>16} {base_value:>10.0f} {value:>10.0f} {ratio:>7.2f}{verdict}")

    extra = sorted(
        name for name, row in observed.items()
        if name not in expected and default_counter in row)
    if extra:
        print(f"note: {len(extra)} benchmark(s) not in baseline (ignored): "
              + ", ".join(extra))

    # Wall-time carry-through: machine-dependent, so echoed but never gated.
    wall_rows = [
        (name, {k: v for k, v in row.items()
                if isinstance(k, str) and k.startswith("wall_")
                and isinstance(v, (int, float))})
        for name, row in sorted(observed.items())
    ]
    wall_rows = [(name, walls) for name, walls in wall_rows if walls]
    if wall_rows:
        print("\nwall-time fields (informational, not gated):")
        for name, walls in wall_rows:
            rendered = "  ".join(
                f"{k[len('wall_'):]}={v:.4g}" for k, v in sorted(walls.items()))
            print(f"  {name:<40} {rendered}")

    if walltime_out is not None:
        if not write_walltime_trajectory(walltime_out, observed, report_paths):
            return 2

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s)", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nOK: {gated} gated counter(s) within threshold")
    return 0


# ---------------------------------------------------------------------------
# Run-provenance manifest validation / diffing


def manifest_problems(path, doc):
    """Schema problems of one --manifest-json document, each naming the key."""
    problems = []
    if not isinstance(doc, dict):
        return [f"{path}: top-level JSON must be an object"]
    for section in ("manifest", "build", "run"):
        if not isinstance(doc.get(section), dict):
            problems.append(f"{path}: missing or non-object section '{section}'")
    manifest = doc.get("manifest")
    if isinstance(manifest, dict) and manifest.get("schema_version") != 1:
        problems.append(f"{path}: manifest.schema_version is "
                        f"{manifest.get('schema_version')!r}, expected 1")
    build = doc.get("build")
    if isinstance(build, dict):
        for key in ("git_describe", "build_type", "compiler"):
            if not isinstance(build.get(key), str):
                problems.append(f"{path}: build.{key} missing or not a string")
    run = doc.get("run")
    if isinstance(run, dict) and not isinstance(run.get("command"), str):
        problems.append(f"{path}: run.command missing or not a string")
    checksums = doc.get("checksums")
    if checksums is not None:
        if not isinstance(checksums, dict):
            problems.append(f"{path}: 'checksums' is not an object")
        else:
            for key in CHECKSUM_KEYS:
                value = checksums.get(key)
                if not isinstance(value, str) or not HEX16.match(value):
                    problems.append(
                        f"{path}: checksums.{key} is {value!r}, expected a "
                        f"16-digit lower-hex string")
    return problems


def run_check_manifest(paths):
    if not paths:
        print("error: --check-manifest needs at least one manifest", file=sys.stderr)
        return 2
    problems = []
    for path in paths:
        problems += manifest_problems(path, load_json(path))
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    if not problems:
        print(f"OK: {len(paths)} manifest(s) valid")
    return 2 if problems else 0


def run_diff_manifests(paths):
    if len(paths) != 2:
        print("error: --diff-manifests needs exactly two manifests", file=sys.stderr)
        return 2
    docs = [load_json(p) for p in paths]
    problems = []
    for path, doc in zip(paths, docs):
        problems += manifest_problems(path, doc)
        if isinstance(doc, dict) and doc.get("checksums") is None:
            problems.append(f"{path}: no 'checksums' section to diff (only "
                            f"'analyze', 'sweep' and 'snapshot' runs record them)")
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 2

    mismatches = []
    print(f"{'phase':<16} {paths[0]:>20} {paths[1]:>20}")
    for key in CHECKSUM_KEYS:
        a = docs[0]["checksums"][key]
        b = docs[1]["checksums"][key]
        marker = "" if a == b else "  MISMATCH"
        print(f"{key:<16} {a:>20} {b:>20}{marker}")
        if a != b:
            mismatches.append(key)
    if mismatches:
        print(f"\nFAIL: per-phase checksums differ at: {', '.join(mismatches)}",
              file=sys.stderr)
        return 1
    print("\nOK: all per-phase checksums match")
    return 0


# ---------------------------------------------------------------------------
# Health-report validation


def run_check_health(paths):
    if not paths:
        print("error: --check-health needs at least one document", file=sys.stderr)
        return 2
    problems = []
    error_events = []
    for path in paths:
        doc = load_json(path)
        # Accept a --metrics-json document (health embedded) or a standalone
        # health report.
        health = doc.get("health", doc) if isinstance(doc, dict) else None
        if not isinstance(health, dict) or "events" not in health:
            problems.append(f"{path}: no 'health' section with an 'events' array")
            continue
        events = health["events"]
        if not isinstance(events, list):
            problems.append(f"{path}: health.events is not an array")
            continue
        for key, kind in (("ok", bool), ("dropped", (int, float))):
            if not isinstance(health.get(key), kind):
                problems.append(f"{path}: health.{key} missing or wrong type")
        for i, event in enumerate(events):
            if not isinstance(event, dict):
                problems.append(f"{path}: health.events[{i}] is not an object")
                continue
            for key in ("kind", "severity", "detail"):
                if not isinstance(event.get(key), str):
                    problems.append(
                        f"{path}: health.events[{i}].{key} missing or not a string")
            for key in ("value", "threshold", "index"):
                if not isinstance(event.get(key), (int, float)):
                    problems.append(
                        f"{path}: health.events[{i}].{key} missing or not a number")
            if event.get("severity") not in SEVERITIES:
                problems.append(
                    f"{path}: health.events[{i}].severity is "
                    f"{event.get('severity')!r}, expected one of {SEVERITIES}")
            elif event["severity"] == "error":
                error_events.append(
                    f"{path}: {event.get('kind', '?')}: {event.get('detail', '')}")
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    if problems:
        return 2
    if error_events:
        print(f"FAIL: {len(error_events)} error-severity health event(s):",
              file=sys.stderr)
        for e in error_events:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"OK: {len(paths)} health report(s) valid, no error-severity events")
    return 0


# ---------------------------------------------------------------------------
# bench_serve --latency-csv timeline validation


LATENCY_CSV_HEADER = "index,endpoint,enqueued_offset_us,latency_us,status,trace_id"
TRACE_ID = re.compile(r"^[0-9a-f]{16}$")


def latency_csv_problems(path):
    """Schema problems of one --latency-csv artifact, each naming the line."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        return [f"{path}: cannot read: {e}"]
    if not lines or lines[0] != LATENCY_CSV_HEADER:
        return [f"{path}: header is {lines[0] if lines else '<empty>'!r}, "
                f"expected {LATENCY_CSV_HEADER!r}"]
    if len(lines) < 2:
        return [f"{path}: no request rows"]
    problems = []
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != 6:
            problems.append(f"{path}:{i + 2}: {len(fields)} fields, expected 6")
            continue
        index, endpoint, enqueued, latency, status, trace_id = fields
        if index != str(i):
            problems.append(f"{path}:{i + 2}: index {index!r}, expected {i} "
                            f"(rows must be complete and in order)")
        if not endpoint:
            problems.append(f"{path}:{i + 2}: empty endpoint")
        try:
            if float(enqueued) < 0:
                problems.append(f"{path}:{i + 2}: negative enqueued offset")
            if not float(latency) > 0:
                problems.append(f"{path}:{i + 2}: non-positive latency")
        except ValueError:
            problems.append(f"{path}:{i + 2}: non-numeric timing field")
        if not (status.isdigit() and 100 <= int(status) <= 599):
            problems.append(f"{path}:{i + 2}: bad HTTP status {status!r}")
        if not TRACE_ID.match(trace_id):
            problems.append(f"{path}:{i + 2}: trace ID {trace_id!r} is not "
                            f"16 lower-hex digits")
    return problems


def run_check_latency_csv(paths):
    if not paths:
        print("error: --check-latency-csv needs at least one CSV", file=sys.stderr)
        return 2
    problems = []
    for path in paths:
        problems += latency_csv_problems(path)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    if problems:
        return 2
    print(f"OK: {len(paths)} latency timeline(s) valid")
    return 0


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    if argv[1] == "--check-manifest":
        return run_check_manifest(argv[2:])
    if argv[1] == "--diff-manifests":
        return run_diff_manifests(argv[2:])
    if argv[1] == "--check-health":
        return run_check_health(argv[2:])
    if argv[1] == "--check-latency-csv":
        return run_check_latency_csv(argv[2:])
    return run_bench_gate(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))

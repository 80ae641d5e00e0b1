#!/usr/bin/env python3
"""Build and run the CirSTAG repo benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload analyze_mid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30 [--trace 1]
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --regen-references [--design-seed N]
    python3 perfbench/run.py --workload serve_mix --calibrate --seconds 10

The first call configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR or .bench_build; later calls rebuild
incrementally. The last line of a measuring run's stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.relpath(HERE)
CONFIG = os.path.join(BENCH_DIR, "workloads.json")
REFS = os.path.join(BENCH_DIR, "refs")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root: no library sources under src/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "cirstag_perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (full log in %s)" % log_path, 1)
    return os.path.join(out, "cirstag_perfbench")


def run_binary(binary, args, echo=True):
    """Run the benchmark program; returns (exit code, parsed last JSON line or None)."""
    cmd = [binary, "--benchmark", "BENCHMARK.json", "--config", CONFIG, "--refs", REFS,
           "--out", os.path.join(build_dir(), "out")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S, 1)
    if echo:
        sys.stdout.write(stdout)
        sys.stdout.flush()
    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def workloads():
    with open(CONFIG) as f:
        return list(json.load(f)["workloads"])


def self_check(binary):
    """Smoke every workload at a tiny size: every metric BENCHMARK.json names
    is emitted with its unit, and a reversed reference fails verification."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in workloads():
        for trace in (0, 1):
            before = len(problems)
            code, result = run_binary(binary, ["--workload", w, "--seed", "1", "--seconds", "2",
                                               "--trace", str(trace), "--tiny"], echo=False)
            tag = "%s --trace %d" % (w, trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d, result %r" % (tag, code, result))
            else:
                if not result["correct"] or result["failed"] != 0:
                    problems.append("%s: verification failed on the true reference" % tag)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(got))
                    extra = sorted(set(got) - set(expected[trace]))
                    units = sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])
                    problems.append("%s: missing %s, unexpected %s, wrong units %s"
                                    % (tag, missing, extra, units))
            print("self-check %-28s %s" % (tag, "ok" if len(problems) == before else "FAILED"))
        code, result = run_binary(binary, ["--workload", w, "--seed", "1", "--seconds", "2",
                                           "--trace", "0", "--tiny", "--perturb-reference"], echo=False)
        caught = result is not None and not result["correct"]
        if not caught:
            problems.append("%s: a reversed reference ranking passed verification" % w)
        print("self-check %-28s %s" % (w + " perturbed ref", "ok (rejected)" if caught else "FAILED"))
    for p in problems:
        print("  problem: " + p)
    print("self-check: %s" % ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def run_all(binary, args):
    """Every workload at one trace level, then one table of its metrics."""
    rows, worst = [], 0
    for w in workloads():
        code, result = run_binary(binary, ["--workload", w, "--seed", str(args.seed),
                                           "--seconds", repr(args.seconds),
                                           "--trace", str(args.trace)])
        worst = worst or code
        if result is None:
            rows.append((w, "no result", {}))
            continue
        status = "verified" if result["correct"] else "FAILED"
        status += " (ops %d, failed %d)" % (result["attempted"], result["failed"])
        rows.append((w, status, result["metrics"]))
    print("\nsummary (seed %d, %g s per run):" % (args.seed, args.seconds))
    for w, status, metrics in rows:
        print("%s: %s" % (w, status))
        for name, m in metrics.items():
            print("  %-30s %14.6g %s" % (name, m["value"], m["unit"]))
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print one summary table")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--regen-references", action="store_true",
                    help="rewrite refs/ from the exact path (coarsening off)")
    ap.add_argument("--design-seed", type=int, default=0,
                    help="generator seed overriding the workload's (e.g. its heldout_seed)")
    ap.add_argument("--calibrate", action="store_true",
                    help="serve workloads: measure unloaded latency and capacity")
    args = ap.parse_args()

    binary = build()
    if args.self_check:
        sys.exit(self_check(binary))
    extra = ["--design-seed", str(args.design_seed)] if args.design_seed else []
    if args.regen_references:
        for w in ([args.workload] if args.workload else workloads()):
            code, _ = run_binary(binary, ["--workload", w, "--regen-reference"] + extra)
            if code != 0:
                sys.exit(code)
        return
    if args.all:
        sys.exit(run_all(binary, args))
    if not args.workload:
        fail("--workload is required")
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)] + extra
    if args.calibrate:
        cmd.append("--calibrate")
    code, _ = run_binary(binary, cmd)
    sys.exit(code)


if __name__ == "__main__":
    main()

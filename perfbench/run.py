#!/usr/bin/env python3
"""The llmdm benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark (the library from
src/ plus the perfbench program in perfbench/cpp/) with CMake into
$CARGO_TARGET_DIR (default .bench_build), then runs one workload in its own
process and passes its output through. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, holding the
end-to-end metrics of BENCHMARK.json with --trace 0 and its per-layer
metrics with --trace 1. Exits non-zero, without a result line, when the
build fails or the metrics differ from BENCHMARK.json's, and non-zero when
an output check fails.

Workloads: wire_fresh, serve_reuse, cache_hot, cache_churn (see BENCHMARK.json
and perfbench/cpp/*.cc for what each exercises and why).

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own unit tests instead.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("wire_fresh", "serve_reuse", "cache_hot", "cache_churn")


def build(root, build_dir, target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    def run(cmd):
        return subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr).returncode == 0

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run(configure):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", build_dir, "--target", target,
                "-j", jobs])


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    build_dir = os.path.join(out_dir, "perfbench")
    if args.selftest:
        if not build(root, build_dir, "perfbench_tests"):
            print("perfbench: building the tests failed (they need GTest)",
                  file=sys.stderr)
            return 2
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_tests")]).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    if not build(root, build_dir, "perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    state_dir = os.path.join(out_dir, "perfbench-state")
    os.makedirs(state_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--state-dir", state_dir]
    run = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if not lines:
        return run.returncode or 2
    print("\n".join(lines[:-1]), flush=True)
    mismatch = check_metrics(root, args.trace, lines[-1])
    if mismatch:
        print("perfbench: " + mismatch, file=sys.stderr)
        return 3
    print(lines[-1], flush=True)
    return run.returncode


def check_metrics(root, trace, result_line):
    """Returns why the result line breaks BENCHMARK.json's metric list, or
    None when its metrics are exactly that list's, with its units."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        metrics = json.loads(result_line)["metrics"]
    except (ValueError, KeyError, TypeError):
        return "the last line is not a result object"
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != expected:
        diff = sorted(set(got.items()) ^ set(expected.items()))
        return "metrics differ from BENCHMARK.json: " + repr(diff[:6])
    return None


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Batch HC-s-t path query benchmark: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload batch_shared --seed 1 --seconds 10 --trace 0

It builds the library and the benchmark from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), generates the workload's inputs from the
seed, runs the timed program, checks every output against the benchmark's
own oracle, and prints one JSON object as the last line of standard output:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Any failed check or failed operation ends the run with a non-zero exit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) if (
    ROOT / "BENCHMARK.json").is_file() else None
WORKLOADS = ("batch_shared", "batch_disjoint", "serve_mixed")
# Compute threads of the offline batch runs: more than one, so the parallel
# engine and its merge are measured, and fewer than the four cores, which
# keeps run-to-run noise on a shared machine low. The service part uses one
# engine compute thread, so that with its generator, update and completion
# threads no more than four threads are busy.
OFFLINE_THREADS = 2
# setup_s is the median of this many cold set-ups, each in a fresh process
# timed from its start. One cold set-up runs about 35 % slower on some vCPUs
# of a shared machine than on others (same page faults, more user time), so
# a single one per run lands in one of two modes; the median of seven evens
# that out within a run.
SETUP_PROCESSES = 7
# Everything after the build must end within this budget: the timed section,
# plus input generation, checks and the traced layer split, which take well
# under a minute on the inputs of a 15 s run.
def run_budget_s(seconds):
    return 2 * seconds + 120


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_step(cmd, timeout):
    """Runs one child to completion; its output goes to stderr."""
    proc = subprocess.Popen([str(c) for c in cmd], stdout=sys.stderr,
                            stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out: {cmd[0]}")
        return 124


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build(bdir):
    if not (ROOT / "src").is_dir():
        log(f"no library sources at {ROOT / 'src'}: nothing to benchmark")
        return False
    bdir.mkdir(parents=True, exist_ok=True)
    if run_step(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                timeout=120) != 0:
        return False
    if run_step(["cmake", "--build", bdir, "-j", "4", "--target",
                 "hcbench_gen", "hcbench_run", "hcbench_check_test"],
                timeout=700) != 0:
        return False
    # A fresh build leaves its object files to be written back; flush them
    # now rather than during the timed section.
    os.sync()
    return True


def read_result(path):
    attempted = failed = 0
    metrics = {}
    for line in path.read_text().splitlines():
        parts = line.split()
        if parts[0] == "attempted":
            attempted = int(parts[1])
        elif parts[0] == "failed":
            failed = int(parts[1])
        elif parts[0] == "metric":
            metrics[parts[1]] = float(parts[2])
    return attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--keep", action="store_true",
                    help="keep the run directory (inputs, trace.json)")
    args = ap.parse_args()
    if BENCHMARK is None:
        log("BENCHMARK.json not found next to the benchmark")
        return 2

    bdir = build_dir()
    if not build(bdir):
        log("build failed")
        return 2
    deadline = time.monotonic() + run_budget_s(args.seconds)
    threads = max(1, min(OFFLINE_THREADS, os.cpu_count() or 1))
    rdir = bdir / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rdir, ignore_errors=True)
    rdir.mkdir(parents=True)
    try:
        steps = [
            [bdir / "hcbench_check_test"],
            [bdir / "hcbench_gen", "gen", "--workload", args.workload,
             "--seed", args.seed, "--seconds", args.seconds, "--out", rdir],
            [bdir / "hcbench_run", "snapshot", "--dir", rdir],
        ]
        if not args.trace:
            steps += [[bdir / "hcbench_run", "setup", "--dir", rdir]
                      ] * SETUP_PROCESSES
        steps += [
            [bdir / "hcbench_run", "run", "--dir", rdir, "--seconds",
             args.seconds, "--threads", threads, "--trace", args.trace,
             "--seed", args.seed],
            [bdir / "hcbench_gen", "verify-serve", "--dir", rdir],
        ]
        for step in steps:
            if run_step(step, max(1, deadline - time.monotonic())) != 0:
                log(f"step failed: {' '.join(str(s) for s in step[:2])}")
                print(json.dumps({"correct": False, "attempted": 1,
                                  "failed": 1, "metrics": {}}))
                return 1
        attempted, failed, values = read_result(rdir / "result.txt")
        if not args.trace:
            setups = [float(x) for x in
                      (rdir / "setup.txt").read_text().split()]
            log("cold set-ups (s): " + " ".join(f"{x:.4f}" for x in setups))
            values["setup_s"] = statistics.median(setups)
        if args.keep:
            log(f"run directory kept: {rdir}")
    finally:
        if not args.keep:
            shutil.rmtree(rdir, ignore_errors=True)

    if failed > 0:
        # No operation of these workloads is expected to fail.
        log(f"{failed} of {attempted} operations failed")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    wanted = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            log(f"metric {m['name']} was not measured")
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

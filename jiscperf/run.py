#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 jiscperf/run.py --workload steady --seed 1 --seconds 20 --trace 0
    python3 jiscperf/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 jiscperf/run.py --test

Run from the repository root. The engine libraries and the driver are
built from source with CMake into $CARGO_TARGET_DIR (default .bench_build);
build output goes to stderr. The driver prints every metric by name with
its unit, and its last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--trace 1 also writes a Chrome trace to <build dir>/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["steady", "migrate", "hotkey", "sharded"]
RUN_TIMEOUT_S = 170


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(target):
    out = build_dir()
    cmd = ["cmake", "-S", str(HERE), "-B", str(out),
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return out / target


def run_one(binary, workload, args):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-dir", str(traces)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"jiscperf {workload} exited {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--test", action="store_true",
                   help="build and run the benchmark's own test")
    args = p.parse_args()

    try:
        if args.test:
            return subprocess.run([str(build("jiscperf_test"))]).returncode
        if args.workload is None:
            p.error("--workload is required")
        binary = build("jiscperf")
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"benchmark build failed: {e}", file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        text, results[w] = run_one(binary, w, args)
        print("\n".join(text), flush=True)
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
        return 0
    merged = {"correct": all(r["correct"] for r in results.values()),
              "attempted": sum(r["attempted"] for r in results.values()),
              "failed": sum(r["failed"] for r in results.values()),
              "metrics": {f"{w}.{k}": v for w, r in results.items()
                          for k, v in r["metrics"].items()}}
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())

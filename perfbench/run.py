#!/usr/bin/env python3
"""Build and run the nowsched end-to-end benchmark.

One run of one workload, from the root of a source checkout:

    python3 perfbench/run.py --workload warm_mix --seed 1 --seconds 24 --trace 0

builds perfbench/ (and the library beside it) in Release mode under
$CARGO_TARGET_DIR (default .bench_build), runs the benchmark binary, and
passes its output through: one "metric <name> <value> <unit>" line per
metric, and as the last line one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every result
was correct.

Steadiness report: --repeat N runs the workload N times with seeds
seed..seed+N-1 and prints, for every metric, the median, the quartiles and
the spread (interquartile range / median), as statistics.quantiles gives
them.

Calibration: --calibrate sweeps open-loop rates upward until the backlog
grows; it is how the frozen rates in perfbench/src/workloads.cpp were
chosen (see perfbench/README.md).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def env() -> dict:
    # Compiler and benchmark temporaries stay inside the build tree.
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build() -> Path:
    out = build_dir() / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(out), "-j", jobs]]
    if not (out / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env()).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return out / "nowsched_perfbench"


def revision() -> str:
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(binary: Path, args, seed: int, capture: bool):
    scratch = build_dir() / f"run-{os.getpid()}-{seed}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.relpath(scratch), "--rev", revision()]
    if args.trace == 1:
        cmd += ["--trace-out", str(build_dir() / f"trace-{args.workload}-{seed}.jsonl")]
    if args.calibrate:
        cmd.append("--calibrate")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S, env=env())
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, proc.stdout


def steadiness(binary: Path, args) -> int:
    values = {}
    units = {}
    status = 0
    for i in range(args.repeat):
        code, out = run_once(binary, args, args.seed + i, capture=True)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("info   host_steal_share"):
                print(f"seed {args.seed + i}: {line}")
        status |= code
        print(f"seed {args.seed + i}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:44} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}  {units[name]}")
        print("    runs: " + " ".join(f"{v:.4g}" for v in vals))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["warm_mix", "cold_solve", "rpc_open"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness report over this many seeds")
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.repeat > 0:
        return steadiness(binary, args)
    code, _ = run_once(binary, args, args.seed, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())

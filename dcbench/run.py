#!/usr/bin/env python3
"""Build and run the dcbench end-to-end benchmark.

    python3 dcbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--save DIR]

Run from the root of a checkout. The first run configures and builds
the benchmark (and the dcmbqc library it links) in Release mode under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
rebuild incrementally. The benchmark binary measures, checks its outputs,
and prints one JSON result; this script checks that result against
BENCHMARK.json (every end-to-end metric with --trace 0, every
per-layer metric with --trace 1, a layer a workload does not exercise
reading 0) and prints it as the last line of stdout. With --save DIR
the result is also appended to DIR/<workload>.jsonl, the input of
dcbench/compare.py.

Exits non-zero, without a result, when the build, the run or the
result check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"dcbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build (incrementally after the first run)."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "dcbench",
              "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return None
    return os.path.join(build_dir, "dcbench")


def check_result(result, spec, trace):
    """The metric set a run must report, with units from the spec."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result.get("metrics", {})
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise ValueError(f"metrics not in BENCHMARK.json: {unknown}")
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                raise ValueError(f"end-to-end metric {name} missing")
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            raise ValueError(f"{name}: unit {metrics[name]['unit']} "
                             f"!= {unit}")
    return {
        "correct": bool(result["correct"]) and result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: metrics[name] for name in units},
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(build_root, "dcbench"))
    if binary is None:
        return 1

    # Sockets, cache tiers and traces live under the build root, which
    # .gitignore names; relative paths keep the socket path short.
    work_dir = os.path.relpath(
        os.path.join(build_root, f"run-{os.getpid()}"), ROOT)
    os.makedirs(os.path.join(ROOT, work_dir), exist_ok=True)
    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir]
    if args.trace:
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log(f"benchmark exited with {done.returncode}")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = check_result(json.loads(lines[-1]), spec, args.trace)
    except (ValueError, KeyError, json.JSONDecodeError) as error:
        log(f"bad result: {error}")
        return 1

    line = json.dumps(result)
    if args.save:
        os.makedirs(args.save, exist_ok=True)
        record = dict(result, seed=args.seed, trace=args.trace)
        with open(os.path.join(args.save, f"{args.workload}.jsonl"),
                  "a") as f:
            f.write(json.dumps(record) + "\n")
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build popsbench from source and run one workload.

    python3 popsbench/run.py --workload perm_wide --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to
$CARGO_TARGET_DIR/popsbench (default .bench_build/popsbench); the traced
run writes its spans there as trace_<workload>.csv. Build output and the
benchmark's details go to standard error. The last line of standard
output is the JSON result, printed only when the run exits 0 and the
result names exactly the metrics BENCHMARK.json lists for the mode.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "popsbench", "-j", "2"],
        check=True, stdout=sys.stderr)


def expected_metrics(trace):
    """Metric names and units the result must carry, from BENCHMARK.json
    when it sits at the root of the checkout."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "popsbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"popsbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "popsbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_dir, f"trace_{args.workload}.csv")]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"popsbench: run failed (exit {run.returncode})",
              file=sys.stderr)
        return run.returncode or 1

    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            print(f"popsbench: metrics {sorted(got.items())} do not match "
                  f"BENCHMARK.json {sorted(expected.items())}",
                  file=sys.stderr)
            return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())

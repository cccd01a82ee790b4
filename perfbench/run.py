#!/usr/bin/env python3
"""Build the MACH libraries and the benchmark harness, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --controls

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); scratch output (snapshots, span files) to
$CARGO_TARGET_DIR/perfbench-out. All build output goes to stderr, so the
last line of stdout is the harness's JSON result. --controls runs the
negative controls instead: every correctness check is shown failing on a
deliberately broken input.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The harness ends well inside this; a hung run is killed and reported.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, target)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--controls", action="store_true")
    args = parser.parse_args()

    target_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target_root, "perfbench")
    if args.controls:
        binary = build(build_dir, "perfbench_controls")
        scratch = os.path.join(target_root, "perfbench-out", "controls")
        sys.exit(subprocess.run([binary, scratch], timeout=RUN_TIMEOUT_S).returncode)
    if not args.workload:
        fail("--workload is required")

    binary = build(build_dir, "perfbench_harness")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out_dir", os.path.join(target_root, "perfbench-out")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {done.returncode}")
    result = json.loads(lines[-1])
    names = expected_metrics(args.trace == 1)
    if names is not None and list(result["metrics"]) != names:
        fail("harness metrics do not match BENCHMARK.json: "
             f"{sorted(set(names) ^ set(result['metrics']))}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()

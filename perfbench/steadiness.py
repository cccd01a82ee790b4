#!/usr/bin/env python3
"""Run each workload N times with distinct seeds and report how steady it is.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--seed-base 1]
                                    [--out results.json]

For every end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)), the spread (q3 - q1) / median,
the metric's bound from BENCHMARK.json and whether the spread fits in it.
setup_s is reported but exempt from the fit, as its bound guards the median
only. Exits 1 when a spread does not fit, a run fails, or the failed share
differs between runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit code {done.returncode}")
    noise = next((line for line in lines if line.startswith("# host:")), "")
    return json.loads(lines[-1]), noise


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args()

    steady = True
    raw = {}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.seed_base + i
            result, noise = run_once(workload, seed, args.seconds)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {noise}",
                  flush=True)
        raw[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            steady = False
            print(f"  failed share varies or a run is incorrect: {sorted(shares)}")
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':22} {'unit':5} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>8} {'bound':>6}  fits")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            exempt = metric["name"] == "setup_s"
            fits = spread <= metric["bound"]
            if not fits and not exempt:
                steady = False
            verdict = ("yes" if fits else "NO") + (" (exempt)" if exempt else "")
            print(f"  {metric['name']:22} {metric['unit']:5} {median:12.6g} {q1:12.6g}"
                  f" {q3:12.6g} {spread:8.4f} {metric['bound']:6.3f}  {verdict}")
        print(flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(raw, handle, indent=1)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()

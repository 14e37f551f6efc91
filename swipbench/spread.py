#!/usr/bin/env python3
"""Run the benchmark on one workload with several seeds and print, for each
metric, the median and the interquartile range as a share of the median.

    python3 swipbench/spread.py WORKLOAD [--runs 10] [--first-seed 1]
        [--seconds S] [--trace 0|1] [--log FILE]

Run from the repository root. Each run is the command BENCHMARK.json
names, with --workload, --seed, --seconds and --trace appended, so the
figures are those a reader of BENCHMARK.json would measure.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        start = time.time()
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True)
        wall = time.time() - start
        last = json.loads(out.stdout.strip().splitlines()[-1])
        last["seed"], last["wall_s"] = seed, round(wall, 1)
        results.append(last)
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, **last}) + "\n")
        vals = {k: round(v["value"], 4) for k, v in last["metrics"].items()}
        print(f"seed {seed} wall {wall:.1f}s correct {last['correct']} "
              f"attempted {last['attempted']} failed {last['failed']} {vals}",
              file=sys.stderr)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {len(results)} runs, failed shares {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:24s} median {med:12.5g}  IQR/median {spread:6.3f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 musebench/spread.py --workload <name> [--seeds 1-10] [--seconds 20] [--trace 0] [--log DIR]

Prints, per metric, the median of the runs and the distance between their
first and third quartiles (`statistics.quantiles(values, n=4)`) as a share
of the median, next to the metric's bound from BENCHMARK.json. A bench is
steady when every spread but `setup_s`'s stays below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log", help="directory to keep each run's standard output in")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lo, hi = (int(x) for x in args.seeds.split("-"))

    values = {}
    for seed in range(lo, hi + 1):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if args.log:
            os.makedirs(args.log, exist_ok=True)
            with open(os.path.join(args.log, f"{args.workload}-{seed}.txt"), "w") as f:
                f.write(out.stdout)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(last)
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    print(f"{'metric':<36} {'median':>12} {'spread':>8} {'bound':>6}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(k)
        flag = "" if bound is None or k == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
        print(f"{k:<36} {med:>12.5g} {spread:>8.3f} {bound if bound is not None else '-':>6}{flag}")


if __name__ == "__main__":
    os.environ.setdefault("PYTHONUNBUFFERED", "1")
    main()

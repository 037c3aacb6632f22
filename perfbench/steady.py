#!/usr/bin/env python3
"""Steadiness check for LogStore's benchmark.

Run from the root of the checkout:

    python3 perfbench/steady.py --runs 10 --workloads ingest,query,serve

Runs each workload --runs times through perfbench/run.py, seeds 1, 2,
..., --runs, and prints, per metric, the median, the quartiles
(statistics.quantiles, n=4), min, max and the spread: the distance
between the quartiles as a share of the median. Bounds in
BENCHMARK.json are set from this output; the share of failed operations
is printed too, since it must not move between sets of runs. --trace 1
does the same for the per-layer metrics of traced runs.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="ingest,query,serve")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    for w in args.workloads.split(","):
        results = []
        for seed in range(1, args.runs + 1):
            r = run_once(w, seed, args.seconds, args.trace)
            results.append(r)
            print(f"{w} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", file=sys.stderr)
        print(f"\n== {w}: {args.runs} runs")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"correct: {all(r['correct'] for r in results)}; failed share: {shares}")
        print(f"{'metric':46} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'spread':>7}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:46} {med:12.4f} {q1:12.4f} {q3:12.4f} {min(vals):12.4f} "
                  f"{max(vals):12.4f} {spread:7.3f}")


if __name__ == "__main__":
    main()

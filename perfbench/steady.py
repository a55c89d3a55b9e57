#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workload W ...]

Runs every workload (or the ones named) --runs times, each with another
seed, with tracing off.  For each end-to-end metric it prints the median,
the first and third quartile and the spread (Q3 - Q1) / median, and names
every metric whose spread exceeds its bound in BENCHMARK.json (setup_s
is reported but not held to its bound: its bound limits how far its
median may move, not its spread).  Exits 1 when a spread is out of
bounds, a run fails, or the share of failed requests differs between
runs.
"""

import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    bad = []
    for w in workloads:
        values = {name: [] for name in bounds}
        shares = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                bad.append("%s seed %d: run failed" % (w, seed))
                continue
            r = json.loads(lines[-1])
            if not r["correct"]:
                bad.append("%s seed %d: incorrect output" % (w, seed))
            shares.add(fractions.Fraction(r["failed"], r["attempted"]))
            for name in bounds:
                values[name].append(r["metrics"][name]["value"])
        if len(shares) > 1:
            bad.append("%s: failed share differs between runs" % w)
        print("%s (%d runs)" % (w, args.runs))
        for name, v in values.items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                flag = "  OUT OF BOUND"
                bad.append("%s %s: spread %.4f > bound %.2f" %
                           (w, name, spread, bounds[name]))
            print("  %-18s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %.4f (bound %.2f)%s" %
                  (name, med, q1, q3, spread, bounds[name], flag))
    for b in bad:
        print("steady: " + b)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

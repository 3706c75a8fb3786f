#!/usr/bin/env python3
"""Run every workload repeatedly and print each metric's median and quartiles.

    python3 perfbench/repeat.py [--runs 10] [--seconds S]

Runs every workload of BENCHMARK.json untraced, once per seed 1, 2, ...,
runs.  For every workload and metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and their distance as
a share of the median: the run-to-run spread from which BENCHMARK.json's
bounds are set.
It also prints the share of failed operations per run.  Run from the
repository root; the run length defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        fail_shares = set()
        for seed in range(1, args.runs + 1):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE)
            if done.returncode != 0:
                print("%s seed %d: exit %d" % (workload, seed, done.returncode))
                return 1
            result = json.loads(done.stdout.decode().strip().splitlines()[-1])
            if not result["correct"]:
                print("%s seed %d: outputs NOT correct" % (workload, seed))
            fail_shares.add(result["failed"] / result["attempted"])
            print("   seed %-4d %s" % (seed, " ".join(
                "%s=%.6g" % (k, m["value"]) for k, m in sorted(result["metrics"].items()))),
                  flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("== %s: %d runs, failed share per run %s" %
              (workload, args.runs, sorted("%.6f" % s for s in fail_shares)))
        print("   %-36s %14s %14s %14s %9s %7s" % ("metric", "median", "q1", "q3", "iqr/med",
                                                  "bound"))
        for name in sorted(values):
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print("   %-36s %14.6g %14.6g %14.6g %9.4f %7s" %
                  (name, med, q1, q3, spread, "" if bound is None else bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())

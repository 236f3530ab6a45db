#!/usr/bin/env python3
"""Measure how much the end-to-end metrics move between runs.

    python3 servebench/steadiness.py [--runs 10] [--first-seed 101]
                                     [--out servebench/steadiness.json]

Run from the root of a checkout.  Runs every workload of BENCHMARK.json
--runs times with tracing off, each run with its own seed, at the
benchmark's run_seconds, and writes per (workload, metric) the median,
the first and third quartiles (Python's statistics.quantiles, n=4) and
the spread: (q3 - q1) / median.  The record also keeps each run's raw
values and the host steal share its log reported.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.getcwd()
RUNS = os.path.join(ROOT, ".bench_build", "servebench", "runs")


def one(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("servebench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=300)
    if r.returncode != 0:
        sys.exit("servebench: %s seed %d failed" % (workload, seed))
    result = json.loads(r.stdout.strip().splitlines()[-1])
    with open(os.path.join(RUNS, "%s-seed%d-trace0.log" % (workload, seed))) as f:
        m = re.search(r"host steal ([0-9.]+)", f.read())
    return result, float(m.group(1)) if m else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--out", default=os.path.join("servebench", "steadiness.json"))
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    record = {
        "machine": {"nproc": len(os.sched_getaffinity(0)), "system": platform.platform()},
        "run_seconds": seconds,
        "seeds": list(range(a.first_seed, a.first_seed + a.runs)),
        "workloads": {},
    }
    for w in bench["workloads"]:
        results = []
        for seed in record["seeds"]:
            res, steal = one(w["name"], seed, seconds)
            if not res["correct"]:
                sys.exit("servebench: %s seed %d was not correct" % (w["name"], seed))
            results.append((res, steal))
            print("%s seed %d steal %s" % (w["name"], seed, steal), flush=True)
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r, _ in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            metrics[m["name"]] = {
                "unit": m["unit"], "bound": m["bound"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0, "values": values,
            }
            print("  %-14s median %10.4f spread %.3f (bound %.2f)"
                  % (m["name"], med, metrics[m["name"]]["spread"], m["bound"]), flush=True)
        record["workloads"][w["name"]] = {"host_steal": [s for _, s in results], "metrics": metrics}
    with open(a.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a checkout:

    python3 servebench/test.py

1. The reply checker and failure counting (check_test.exe).
2. Every workload at a tiny graph size, untraced and traced: the result
   line says correct=true with no failures, and carries exactly the
   metrics BENCHMARK.json names, each a finite number (and, untraced,
   above zero).  In the traced run every span's direct children fit
   inside it, so layer spans plus the unattributed remainder account
   for each root span; a second traced run with the same seed repeats
   every metric in EXACT.
3. In a directory holding only BENCHMARK.json and servebench/, the
   benchmark exits non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("servebench", "run.py")]
RUNS = os.path.join(ROOT, ".bench_build", "servebench", "runs")
SEED = 7

# Per-layer counts that repeat exactly for a fixed seed (README.md).
EXACT = ["plan_cache.hit_ratio", "compile.pipelines_per_req", "run.rows_out", "run.eval_alloc_mw",
         "render.alloc_mw", "wire.payload_bytes", "cluster.rounds_per_req"]


def fail(msg):
    print("FAIL " + msg)
    sys.exit(1)


def run(workload, trace):
    cmd = RUN + ["--workload", workload, "--seed", str(SEED), "--seconds", "3",
                 "--trace", str(trace), "--size", "tiny"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=300)
    if r.returncode != 0:
        fail("%s trace=%d exited %d" % (workload, trace, r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def check_spans(workload):
    path = os.path.join(RUNS, "%s-seed%d-trace1.spans.jsonl" % (workload, SEED))
    with open(path) as f:
        spans = [json.loads(l) for l in f]
    covered = {}
    for s in spans:
        if s["parent"]:
            covered[s["parent"]] = covered.get(s["parent"], 0) + s["dur_ns"]
    roots = [s for s in spans if s["parent"] == 0]
    if not roots:
        fail("%s: no root spans" % workload)
    for s in spans:
        if covered.get(s["span"], 0) > s["dur_ns"]:
            fail("%s: children of span %d (%s) outlast it" % (workload, s["span"], s["name"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    run(bench["workloads"][0]["name"], 0)  # builds check_test.exe too
    exe = os.path.join(ROOT, ".bench_build", "servebench", "ws", "_build", "default",
                       "loadgen", "check_test.exe")
    if subprocess.run([exe]).returncode != 0:
        fail("check_test")
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(w["name"], trace)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = res["metrics"]
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                fail("%s trace=%d: %s" % (w["name"], trace, {k: res[k] for k in ("correct", "attempted", "failed")}))
            if set(got) != set(want):
                fail("%s trace=%d: metrics %s" % (w["name"], trace, sorted(set(got) ^ set(want))))
            for name, m in got.items():
                v = m["value"]
                if m["unit"] != want[name] or not math.isfinite(v) or (trace == 0 and v <= 0):
                    fail("%s trace=%d: %s = %r %s" % (w["name"], trace, name, v, m["unit"]))
            print("ok   %s trace=%d: %d metrics" % (w["name"], trace, len(got)))
            if trace == 1:
                check_spans(w["name"])
                again = run(w["name"], 1)["metrics"]
                for name in EXACT:
                    if again[name]["value"] != got[name]["value"]:
                        fail("%s: %s %r then %r" % (w["name"], name, got[name]["value"], again[name]["value"]))
                print("ok   %s: spans account for every root, %d counts repeat" % (w["name"], len(EXACT)))
    bare = os.path.join(ROOT, ".bench_build", "servebench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "servebench"), os.path.join(bare, "servebench"))
    r = subprocess.run(RUN + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                              "--seconds", "1", "--trace", "0"],
                       cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if r.returncode == 0 or r.stdout.strip():
        fail("a bare directory gave exit %d and output %r" % (r.returncode, r.stdout))
    print("ok   bare directory refused")


if __name__ == "__main__":
    main()

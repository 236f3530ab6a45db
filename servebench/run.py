#!/usr/bin/env python3
"""Build paradb and the load generator from source, then run one benchmark.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
                              [--size full|tiny]

Run from the root of a checkout.  The build happens in a private dune
workspace under .bench_build/servebench/ws, which holds copies of the
checkout's lib/, bin/ and dune-project plus the load generator's own
package (servebench/_loadgen, which the checkout's own dune build skips
because the directory name starts with '_').  The last line of standard
output is the load generator's result object; see servebench/README.md.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build", "servebench")
WS = os.path.join(OUT, "ws")
RUN_TIMEOUT_S = 165
BUILD_TIMEOUT_S = 840


def die(msg):
    print("servebench: " + msg, file=sys.stderr)
    sys.exit(2)


def sync_tree(src, dst):
    """Mirror src into dst, rewriting only files whose bytes changed so
    dune's incremental build sees no spurious edits."""
    os.makedirs(dst, exist_ok=True)
    wanted = set()
    for name in os.listdir(src):
        if name.startswith(".") or name == "_build":
            continue
        wanted.add(name)
        s, d = os.path.join(src, name), os.path.join(dst, name)
        if os.path.isdir(s):
            sync_tree(s, d)
            continue
        with open(s, "rb") as f:
            data = f.read()
        try:
            with open(d, "rb") as f:
                same = f.read() == data
        except OSError:
            same = False
        if not same:
            with open(d, "wb") as f:
                f.write(data)
    for name in os.listdir(dst):
        if name not in wanted:
            p = os.path.join(dst, name)
            shutil.rmtree(p) if os.path.isdir(p) else os.remove(p)


def build():
    for src in ("lib", "bin", "dune-project"):
        if not os.path.exists(os.path.join(ROOT, src)):
            die("no %s here: run from the root of a paradb checkout" % src)
    os.makedirs(WS, exist_ok=True)
    for src, dst in (("lib", "lib"), ("bin", "bin"), (os.path.join(HERE, "_loadgen"), "loadgen")):
        sync_tree(os.path.join(ROOT, src), os.path.join(WS, dst))
    shutil.copyfile(os.path.join(ROOT, "dune-project"), os.path.join(WS, "dune-project"))
    env = dict(os.environ, DUNE_CACHE="disabled", XDG_CACHE_HOME=os.path.join(OUT, "cache"))
    t0 = time.time()
    r = subprocess.run(
        ["dune", "build", "--root", WS, "--profile", "release",
         "./bin/paradb.exe", "./loadgen/loadgen.exe", "./loadgen/check_test.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0:
        die("build failed")
    print("servebench: build %.1fs" % (time.time() - t0), file=sys.stderr)
    exe = lambda p: os.path.join(WS, "_build", "default", p)
    return exe("bin/paradb.exe"), exe("loadgen/loadgen.exe")


def wait_group_gone(pgid):
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--size", default="full", choices=["full", "tiny"])
    a = ap.parse_args()
    if not os.path.isdir(os.path.join(HERE, "_loadgen")):
        die("the load generator sources are missing")
    paradb, loadgen = build()
    work = os.path.join(OUT, "work", "%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    logs = os.path.join(OUT, "runs")
    os.makedirs(logs, exist_ok=True)
    cmd = [loadgen, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--size", a.size,
           "--paradb", paradb, "--work", work,
           "--log", os.path.join(logs, "%s-seed%d-trace%d.log" % (a.workload, a.seed, a.trace))]
    # The load generator is its own process-group leader, so a timeout
    # takes down the servers it spawned along with it.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        wait_group_gone(p.pid)
        die("run exceeded %ds" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        die("load generator failed (exit %d)" % p.returncode)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()

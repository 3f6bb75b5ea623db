#!/usr/bin/env python3
"""Build the GridVine benchmark from this checkout and run one workload.

    python3 gvbench/run.py --workload lookup --seed 7 --seconds 30 --trace 0

Run from the root of a checkout. The first call configures and builds
gvbench (Release) into .bench_build/gvbench; later calls rebuild only what
changed. The benchmark's standard output is passed through; its last line
is the JSON result. Exits non-zero, without a result line, when the build
fails or the GridVine sources are missing.

    python3 gvbench/run.py --selftest

checks, per workload, that two runs of one seed give bit-identical
simulated metrics, that another seed gives different ones, and that the
traced pass reproduces the untraced simulated metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "gvbench")
BINARY = os.path.join(BUILD, "gvbench")
WORKLOADS = ["lookup", "mediate", "serve", "scale"]
SIM_METRICS = ["sim_p50_s", "sim_p99_s", "within_1s", "within_5s", "recall",
               "success_frac", "msgs_per_query", "kb_per_query"]
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("gvbench: GridVine sources not found next to gvbench/",
              file=sys.stderr)
        return False
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")) and \
            shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    for step in (cmd, ["cmake", "--build", BUILD, "-j4", "--target",
                       "gvbench"]):
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return os.path.isfile(BINARY)


def run(workload, seed, seconds, trace, capture=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("gvbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124, None
    if not capture:
        return proc.returncode, None
    lines = proc.stdout.decode().strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def selftest():
    ok = True
    for w in WORKLOADS:
        rc1, a = run(w, 11, 1, 0, capture=True)
        rc2, b = run(w, 11, 1, 0, capture=True)
        rc3, c = run(w, 12, 1, 0, capture=True)
        rc4, t = run(w, 11, 1, 1, capture=True)
        if None in (a, b, c, t) or rc1 or rc2 or rc3 or rc4:
            print("%s: a run failed (exit codes %s)" % (w, (rc1, rc2, rc3, rc4)))
            ok = False
            continue
        sa = {k: a["metrics"][k]["value"] for k in SIM_METRICS}
        sb = {k: b["metrics"][k]["value"] for k in SIM_METRICS}
        sc = {k: c["metrics"][k]["value"] for k in SIM_METRICS}
        same = sa == sb
        differs = sa != sc
        traced = t["correct"]
        print("%-8s same-seed identical: %s  other seed differs: %s  "
              "traced == untraced: %s" % (w, same, differs, traced))
        ok &= same and differs and traced and a["correct"]
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not build():
        print("gvbench: build failed", file=sys.stderr)
        return 3
    if args.selftest:
        return 0 if selftest() else 1
    rc, _ = run(args.workload, args.seed, args.seconds, args.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())

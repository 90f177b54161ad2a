#!/usr/bin/env python3
"""Builds and runs the repo benchmark (vdpbench/bench.cc).

Usage, from the root of a checkout:

  python3 vdpbench/run.py --workload release|ingest|hostile-fleet \
      --seed N --seconds S --trace 0|1 [extra vdp_bench flags]

Builds the vdpbench CMake package (the library from src/, the benchmark and
verify_server) into .bench_build/vdpbench, then runs one workload. Everything
vdp_bench prints goes to stdout, and its last line is the result JSON; build
output goes to stderr. A traced run also writes its vdp.runlog/v1 log to
.bench_build/runlogs/. Exits non-zero, without a result line, when the
sources are missing or the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "vdpbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("vdpbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_build_step(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "protocol.h")):
        fail("library sources not found beside vdpbench/; run from a full checkout", 2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_build_step(["cmake", "--build", BUILD, "-j", str(len(os.sched_getaffinity(0)))])


def source_rev():
    """The git revision of the checkout, or a digest of the sources outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "vdpbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["release", "ingest", "hostile-fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = parser.parse_known_args()

    build()
    work_dir = os.path.join(BUILD_ROOT, "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "vdp_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    if args.trace:
        log_dir = os.path.join(BUILD_ROOT, "runlogs")
        os.makedirs(log_dir, exist_ok=True)
        cmd += ["--runlog", os.path.join(log_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    cmd += extra

    # The library and verify_server read VDP_* variables (fault hooks, fleet
    # endpoints, run-log paths); none of them may leak into a measurement.
    env = {k: v for k, v in os.environ.items() if not k.startswith("VDP_")}
    env["VDP_GIT_SHA"] = source_rev()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("vdp_bench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0:
        sys.stdout.write("".join(line + "\n" for line in lines if not line.startswith("{")))
        fail("vdp_bench exited with code %d" % proc.returncode, proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("vdp_bench printed no result line")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()

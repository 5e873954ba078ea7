#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload case_k4 --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --self-test     # the benchmark's own helper tests
  python3 perfbench/run.py --pin           # rewrite perfbench/digests.txt

The first call configures and builds perfbench/ (CMake, Release) into
.bench_build/perfbench; later calls rebuild incrementally. Build output goes
to stderr, so the last line of stdout is the run's result JSON.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("case_k4", "sharded_k8", "serve_paced")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target):
    for need in ("src/CMakeLists.txt", "tests/replay/corpus/contention.vtrc"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from a full checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", target]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return isinstance(result, dict) and set(result) == RESULT_KEYS


def pin(binary):
    lines = [
        "# Diagnosis-JSON digests (replay::diagnosis_json_digest) of every case the case",
        "# workloads can draw: <workload> <scenario> <case id> <digest>. Regenerate with",
        "# python3 perfbench/run.py --pin only when a change argues the diagnoses moved.",
    ]
    for workload in ("case_k4", "sharded_k8"):
        out = subprocess.run([binary, "--pin", workload], stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            fail(f"pinning {workload} failed")
        lines += out.stdout.splitlines()
    with open(os.path.join(HERE, "digests.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        binary = build("perfbench_selftest")
        return subprocess.run([binary, os.path.join(ROOT, "tests", "replay", "corpus")]).returncode
    if args.pin:
        return pin(build("perfbench"))
    if args.workload is None:
        fail("--workload is required")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", ROOT,
           "--git-sha", git_sha()]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines or not check_result(lines[-1]):
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        fail(f"run failed (exit {out.returncode})")
    sys.stdout.write(out.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

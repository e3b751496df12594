#!/usr/bin/env python3
"""Builds and runs the update-lifecycle benchmark.

    python3 perfbench/run.py --workload cve_pipeline --seed 1 \
        --seconds 10 --trace 0

Run it from the root of a source checkout. The first run configures and
builds perfbench/ (which compiles the program's libraries from src/) into
.bench_build/perfbench; later runs rebuild only what changed. Build output
goes to stderr. The benchmark binary's output is passed through, so the last
line of stdout is the summary object {"correct", "attempted", "failed",
"metrics"}; this script checks that line parses as JSON with exactly those
keys, and writes the full report (and, with --trace 1, a Chrome trace) under
.bench_out/. Exits nonzero when the build, the run or any check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("cve_pipeline", "fleet_rollout", "busy_kernel")
# The binary must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def run_checked(command, timeout):
    """Runs `command` with stdout sent to stderr; returns its exit code."""
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.Popen(command, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True,
                            env=dict(os.environ, TMPDIR=tmp))
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("timed out: " + " ".join(command))
        return -1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources at src/: run this from a source checkout")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if run_checked(configure, 300) != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    return run_checked(["cmake", "--build", BUILD_DIR, "-j", jobs], 850) == 0


def git_rev():
    """The checkout's commit, or "unknown" outside a git work tree."""
    if shutil.which("git") is None:
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    if not build():
        log("build failed")
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    command = [os.path.join(BUILD_DIR, "lifecycle_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-rev", git_rev(), "--report-out", stem + ".json"]
    if args.trace:
        command += ["--trace-out", stem + ".trace.json"]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 1

    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        # Pass along what it printed, but never a result line of our own.
        sys.stdout.write(stdout)
        log("benchmark exited with code %d" % proc.returncode)
        return proc.returncode or 1
    try:
        summary = json.loads(lines[-1])
    except ValueError as err:
        log("last line is not JSON: %s" % err)
        return 1
    if sorted(summary) != ["attempted", "correct", "failed", "metrics"]:
        log("summary has keys %s" % sorted(summary))
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs one workload of the VEGA benchmark and prints its result line.

    python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call builds the repository's
libraries and the vega_perfbench binary from source into .bench_build/perfbench
and trains the session the serving workloads load (a fixed 3-epoch
schedule); later calls reuse both. The trained session and the cross-run
gate records live in state/<build key>, where the key hashes every source
the binary is built from, so a changed tree retrains the session and starts
its gates afresh. Build and training output goes to stderr, so the last line
of stdout is always vega_perfbench's JSON result. See perfbench/README.md
for the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("serve_zipf", "repair_loop", "finetune")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "vega_perfbench")
RUN_TIMEOUT_S = 175
# The first call of a checkout also builds and trains; all of it, the
# workload included, must end within this many seconds.
FIRST_CALL_BUDGET_S = 880
START = time.monotonic()


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def remaining():
    """Seconds left for build and training, keeping one workload run free."""
    return FIRST_CALL_BUDGET_S - RUN_TIMEOUT_S - (time.monotonic() - START)


def run_logged(cmd):
    """Runs cmd with its output on stderr; returns the exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=max(1.0, remaining()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("timed out: " + " ".join(cmd))
        return 1


def build_key():
    """Hash of every file the binary is built from: ../src and perfbench's
    own sources and build file."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(HERE, "src"),
             os.path.join(HERE, "CMakeLists.txt")]
    for top in roots:
        files = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in files:
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
            digest.update(b"\0")
    return digest.hexdigest()[:16]


def prepare(state, session):
    """Builds vega_perfbench and trains the session once per build key."""
    os.makedirs(state, exist_ok=True)
    with open(os.path.join(BUILD, "prepare.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            code = run_logged(["cmake", "-S", HERE, "-B", BUILD,
                               "-DCMAKE_BUILD_TYPE=Release"])
            if code != 0:
                log("cmake configure failed")
                return False
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if run_logged(["cmake", "--build", BUILD, "-j", jobs]) != 0:
            log("build failed")
            return False
        if not os.path.isfile(session):
            log("training the benchmark session (first run of this build)")
            if run_logged([BINARY, "train-session", "--out", session]) != 0:
                log("session training failed")
                return False
    return True


def expected_metrics(trace):
    """The metric names BENCHMARK.json lists for a run at --trace trace."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace == "1"
                                     else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no VEGA sources next to perfbench/ (expected src/CMakeLists.txt)")
        return 2
    state = os.path.join(BUILD, "state", build_key())
    session = os.path.join(state, "session.vega")
    if not prepare(state, session):
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--session", session, "--state-dir", state]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("workload exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log("vega_perfbench exited with code %d" % proc.returncode)
        return 1
    differing = expected_metrics(args.trace) ^ set(
        json.loads(out.decode().splitlines()[-1])["metrics"])
    if differing:
        log("result and BENCHMARK.json disagree on metrics: " +
            ", ".join(sorted(differing)))
        return 1
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread and records a baseline.

    python3 perfbench/steadiness.py [--runs 10] [--out perfbench/baseline.json]
                                    [--workloads serve_zipf,repair_loop,finetune]

Run from the root of a checkout. Each workload runs --runs times through
perfbench/run.py, each time with another seed, at BENCHMARK.json's
run_seconds. For every end-to-end metric the script reports the median and
the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. It compares
each spread with a third of the metric's bound and writes everything, with
the machine's nproc, to --out.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, proc.returncode))
    return json.loads(lines[-1]), wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default=os.path.join("perfbench",
                                                      "baseline.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])

    report = {"nproc": os.cpu_count(), "machine": platform.machine(),
              "run_seconds": seconds, "runs": args.runs, "workloads": {}}
    steady = True
    for workload in workloads:
        values, walls, seeds = {}, [], []
        for k in range(args.runs):
            seed = args.first_seed + k
            result, wall = run_once(workload, seed, seconds)
            if not result["correct"]:
                raise SystemExit("%s seed %d: correctness check failed"
                                 % (workload, seed))
            seeds.append(seed)
            walls.append(wall)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %.1f s" % (workload, seed, wall), flush=True)
        metrics = {}
        for name, vals in sorted(values.items()):
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median if median else 0.0
            ok = name == "setup_s" or spread <= bounds[name] / 3
            steady = steady and ok
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds[name],
                             "values": vals}
            print("  %-18s median %14.6g  spread %.4f  bound %.2f %s"
                  % (name, median, spread, bounds[name],
                     "" if ok else "(above a third of the bound)"))
        report["workloads"][workload] = {
            "seeds": seeds, "wall_s": walls, "metrics": metrics}

    with open(os.path.join(ROOT, args.out), "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print("wrote %s; %s" % (args.out, "steady" if steady else "NOT steady"))


if __name__ == "__main__":
    main()

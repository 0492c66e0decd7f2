#!/usr/bin/env python3
"""Same-host A/B of the repository benchmark: a base commit against this checkout.

    python3 scripts/perf_ab.py [--workload NAME ...] [--seed N] [--pairs N]
                               [--seconds S] [--base REV] [--tiny]

Run from the root of a checkout. Extracts REV (default HEAD~1, the parent
of the commit under test) into a temporary directory with `git archive`,
then runs N pairs of `perfbench/run.py --trace 0` on each workload (default
all four), alternating which side runs first. Both sides build from their
own sources with identical benchmark settings. For each end-to-end metric
in BENCHMARK.json it prints each side's median and quartiles, the change
in the median and the pairs the change won (a tie counts for neither).
To test uncommitted changes, pass --base HEAD.

Exits 1 if any run fails or reports an incorrect simulated output.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ["paper-grid", "weak-256", "fuzz-check", "profile-em3d"]


def run_bench(root, args, workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    if args.tiny:
        cmd.append("--tiny")
    r = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    try:
        out = json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        out = {"correct": False, "metrics": {}}
    if r.returncode != 0 or not out.get("correct"):
        sys.stderr.write(r.stderr)
        print(f"perf_ab: {workload} at {root}: run failed or incorrect", file=sys.stderr)
        out["correct"] = False
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def report(workload, metrics, base, change):
    for name, better in metrics:
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                 for b, c in zip(base, change)
                 if name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        bs, cs = [p[0] for p in pairs], [p[1] for p in pairs]
        won = sum((c < b) if better == "lower" else (c > b) for b, c in pairs)
        (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(bs), quartiles(cs)
        delta = 100.0 * (cmed - bmed) / bmed if bmed else float("nan")
        print(f"{workload:13s} {name:13s} base {bmed:.4g} [{bq1:.4g}, {bq3:.4g}]  "
              f"change {cmed:.4g} [{cq1:.4g}, {cq3:.4g}]  {delta:+.1f}%  "
              f"won {won}/{len(pairs)} ({better} is better)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--base", default="HEAD~1")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be at least 1")
    metrics = [(m["name"], m["better"]) for m in json.load(open("BENCHMARK.json"))["end_to_end"]]

    base_dir = tempfile.mkdtemp(prefix="perf_ab-")
    try:
        archive = subprocess.run(["git", "archive", args.base], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", base_dir], input=archive.stdout, check=True)
        ok = True
        for workload in args.workload or WORKLOADS:
            base, change = [], []
            for i in range(args.pairs):
                sides = [(base_dir, base), (".", change)]
                for root, runs in sides if i % 2 == 0 else reversed(sides):
                    out = run_bench(root, args, workload)
                    ok = ok and out["correct"]
                    runs.append(out)
            report(workload, metrics, base, change)
        return 0 if ok else 1
    except subprocess.CalledProcessError as e:
        print(f"perf_ab: cannot extract {args.base}: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

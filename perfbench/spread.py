#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads W,...] [--seeds N] [--first-seed K]
                                [--save FILE] [--against FILE]

Runs the benchmark --trace 0 once per seed (seeds K .. K+N-1) on each
workload, then prints for every end-to-end metric a markdown table row:
its median, its quartiles as statistics.quantiles(values, n=4) gives
them, and the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json. --save writes the values to FILE; --against reads an
earlier set from FILE and adds the shift of the median towards worse, as
a share of the earlier median.

Each row ends in a verdict. "steady": the spread is under a third of the
bound, the target the bounds were chosen for. "wide": the spread is under
the bound but not under a third of it. "OVER": the spread, or the shift
from the earlier set, exceeds the bound; a benchmark whose two sets of
runs do that cannot resolve a regression of that size. setup_s's spread
is shown but has no verdict: only its shift is judged. Exits 1 if any row
is OVER, 0 otherwise. Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(bench, workload, seed):
    r = subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True)
    if r.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {r.returncode}\n{r.stderr}")
    result = json.loads(r.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{r.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    earlier = json.load(open(args.against)) if args.against else {}

    saved, over = {}, False
    print("| workload | metric | median | Q1 | Q3 | spread | bound | shift | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            for k, v in run(bench, w, seed).items():
                values.setdefault(k, []).append(v)
        saved[w] = values
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            shift = None
            if name in earlier.get(w, {}):
                before = statistics.median(earlier[w][name])
                sign = 1 if m["better"] == "lower" else -1
                shift = sign * (statistics.median(v) - before) / before
            if (name != "setup_s" and spread > bound) or (shift is not None and shift > bound):
                verdict, over = "OVER", True
            elif name == "setup_s":
                verdict = "-"
            else:
                verdict = "steady" if spread < bound / 3 else "wide"
            shown = "" if shift is None else f"{shift:+.3f}"
            print(f"| {w} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} | "
                  f"{bound} | {shown} | {verdict} |", flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()

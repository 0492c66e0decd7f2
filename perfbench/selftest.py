#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes under a minute. Checks that:
  1. every workload, at the tiny size, runs once traced and once untraced,
     passes its gate, and prints exactly the metrics BENCHMARK.json names,
     each with its declared unit, plus the shown-only metrics; each traced
     run writes one span line per facade call it counted;
  2. a hand-altered reference makes the gate report a failure naming the
     cell;
  3. --record re-baselines a reference: recorded into a copy with one
     workload's entry removed, it restores that entry exactly, and a run
     gated against the copy passes;
  4. the full-size reference agrees with the committed BENCH_6.json on
     every fig7a/fig7b/table4 cell and the critpath_overhead EM3D row;
  5. in a directory holding only BENCHMARK.json and the benchmark's files,
     the benchmark exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.basename(HERE)
RESULTS = os.path.join(HERE, "results")
failures = []


def check(cond, what):
    print(f"  {'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def run(workload, trace, *extra, cwd="."):
    return subprocess.run(
        ["python3", os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=600)


def last_json(stdout):
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


def every_metric(bench):
    print("1. every workload once, tiny, untraced and traced")
    shown = {"failed_frac": "frac", "cell_s_max": "s", "raw_wall_s": "s", "raw_setup_s": "s",
             "raw_ops_per_s": "1/s", "yardstick_ms": "ms"}
    fuzz_shown = {"programs_per_s": "1/s", "program_ms_p50": "ms", "program_ms_p90": "ms"}
    for w in [w["name"] for w in bench["workloads"]]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            r = run(w, trace)
            out = last_json(r.stdout)
            check(r.returncode == 0 and out is not None, f"{w} trace {trace}: exits 0 with a result")
            if out is None:
                print(r.stderr)
                continue
            check(sorted(out) == ["attempted", "correct", "failed", "metrics"],
                  f"{w} trace {trace}: result has exactly the four keys")
            check(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                  f"{w} trace {trace}: gate passes ({out['attempted']} attempted)")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            check(got == want, f"{w} trace {trace}: every declared metric, with its unit")
            check(all(isinstance(v["value"], (int, float)) for v in out["metrics"].values()),
                  f"{w} trace {trace}: every value a number")
            if trace == 1:
                spans(w, out["metrics"]["bench.spans"]["value"])
            if trace == 0:
                printed = dict(shown, **(fuzz_shown if w == "fuzz-check" else {}), **want)
                lines = r.stdout.splitlines()[:-1]
                check(all(any(l.split()[:1] == [k] and l.split()[-1] == u for l in lines)
                          for k, u in printed.items()),
                      f"{w}: {', '.join(sorted(printed))} printed with units")


def spans(w, counted):
    path = os.path.join(RESULTS, f"{w}-tiny.spans.tsv")
    try:
        kinds = [line.split("\t", 1)[0] for line in open(path)]
    except OSError:
        kinds = None
    check(kinds is not None and kinds.count("call") == counted
          and set(kinds) <= {"sim", "call"} and (counted == 0 or "sim" in kinds),
          f"{w}: {counted:.0f} facade-call spans written to {os.path.basename(path)}")


def altered_reference():
    print("2. a hand-altered reference is caught")
    ref = json.load(open(os.path.join(HERE, "reference.json")))
    cell = sorted(ref["tiny"]["paper-grid"])[0]
    outputs = ref["tiny"]["paper-grid"][cell]["outputs"]
    outputs["messages"] = repr(float(outputs["messages"]) + 1)
    path = os.path.join(RESULTS, "selftest-altered-reference.json")
    with open(path, "w") as f:
        json.dump(ref, f)
    r = run("paper-grid", 0, "--reference", path)
    out = last_json(r.stdout)
    check(out is not None and not out["correct"] and out["failed"] >= 1,
          "altered reference: correct is false and failed >= 1")
    check(any("FAIL" in l and cell in l and "messages" in l for l in r.stdout.splitlines()),
          f"altered reference: the failure names {cell}")


def recorded_reference():
    print("3. --record re-baselines a reference")
    ref = json.load(open(os.path.join(HERE, "reference.json")))
    want = ref["tiny"].pop("profile-em3d")
    path = os.path.join(RESULTS, "selftest-recorded-reference.json")
    with open(path, "w") as f:
        json.dump(ref, f)
    r = run("profile-em3d", 1, "--reference", path, "--record")
    check(r.returncode == 0, "--record run exits 0")
    got = json.load(open(path))["tiny"].get("profile-em3d")
    check(got == want, "the recorded entry equals the committed one")
    out = last_json(run("profile-em3d", 0, "--reference", path).stdout)
    check(out is not None and out["correct"] and out["failed"] == 0,
          "a run gated against the recorded reference passes")


def against_bench6():
    print("4. the full reference agrees with BENCH_6.json")
    path = "BENCH_6.json"
    if not os.path.exists(path):
        print("  skip (no BENCH_6.json in this checkout)")
        return
    ref = json.load(open(os.path.join(HERE, "reference.json")))["full"]
    grid, prof = ref["paper-grid"], ref["profile-em3d"]["em3d-profiled"]["outputs"]
    apps = {"Barnes-Hut": "Barnes-Hut (dyn update)", "BSC": "BSC (write-once)",
            "EM3D": "EM3D (static update)", "TSP": "TSP (counter)", "Water": "Water (null+pipeline)"}
    mismatches, compared = [], 0

    def same(cell, key, want):
        nonlocal compared
        compared += 1
        if float(grid[cell]["outputs"][key]) != want:
            mismatches.append(f"{cell} {key}: {grid[cell]['outputs'][key]} vs {want!r}")

    for row in json.load(open(path))["rows"]:
        e, name = row["experiment"], row["name"]
        if e == "fig7a":
            for side, cell in (("baseline", f"fig7/crl/{name}"), ("ace", f"fig7/ace-sc/{name}")):
                same(cell, "sim_s", row["sim_s"][side])
                same(cell, "messages", row["net_messages"][side])
        elif e == "fig7b":
            app = next(a for a, n in apps.items() if n == name)
            for side, cell in (("baseline", f"fig7/ace-sc/{app}"), ("ace", f"fig7/ace-custom/{app}")):
                same(cell, "sim_s", row["sim_s"][side])
                same(cell, "messages", row["net_messages"][side])
        elif e == "table4":
            for level, v in row["sim_s"].items():
                same(f"table4/{name}/{level}", "sim_s", v)
        elif e == "critpath_overhead" and name == "em3d-on":
            for key, ours in (("seconds", "sim_s"), ("dag_nodes", "dag_nodes"),
                              ("blame_total_s", "blame_total_s"),
                              ("predicted_half_send_s", "predicted_half_send_s")):
                compared += 1
                if float(prof[ours]) != row["sim_s"][key]:
                    mismatches.append(f"em3d-profiled {ours}: {prof[ours]} vs {row['sim_s'][key]!r}")
    for m in mismatches:
        print(f"    {m}")
    check(compared == 69 and not mismatches, f"{compared} values compared, {len(mismatches)} differ")


def bare_directory(bench):
    print("5. a directory with only the benchmark's files is refused")
    bare = os.path.join(RESULTS, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for p in bench["paths"]:
        shutil.copytree(p, os.path.join(bare, p), ignore=shutil.ignore_patterns("results"))
    r = subprocess.run(bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                                           "--seconds", "1", "--trace", "0"],
                       capture_output=True, text=True, cwd=bare, timeout=180)
    check(r.returncode != 0 and last_json(r.stdout) is None,
          f"exit {r.returncode}, no result printed")
    shutil.rmtree(bare)


def main():
    bench = json.load(open("BENCHMARK.json"))
    os.makedirs(RESULTS, exist_ok=True)
    every_metric(bench)
    altered_reference()
    recorded_reference()
    against_bench6()
    bare_directory(bench)
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

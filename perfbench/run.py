#!/usr/bin/env python3
"""The repository benchmark: build perfbench.exe from source, run one
workload, check every simulated output against the reference, and print
the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. --trace 0 reports the end-to-end metrics
(host time rescaled by the host-speed yardstick, tracing off); --trace 1 reports the per-layer metrics from a
separate traced run. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. A full record of the
run (manifest, every metric, every mismatch) is written under
perfbench/results/. See perfbench/README.md.

Options for the benchmark's own use:
    --tiny            shrunken workloads (self-test)
    --reference FILE  compare against FILE instead of perfbench/reference.json
    --record          write this workload's outputs into the reference

A traced run also writes the first traced pass's spans, one line per
facade call, to perfbench/results/WORKLOAD[-tiny].spans.tsv (overwritten
by the workload's next traced run; about 100 MB for paper-grid).
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.basename(HERE)
EXE = os.path.join("_build", "default", BENCH_DIR, "perfbench.exe")
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["paper-grid", "weak-256", "fuzz-check", "profile-em3d"]

# The yardstick's time (yardstick.ml) on the host the bounds were set on,
# a 2-vCPU Intel Xeon VM: about its median there. Gated host times are
# rescaled to this speed; only its ratio between two runs matters.
YARDSTICK_REFERENCE_NS = 650_000

# The traced run's share of a pass that its stage timers, app self time
# and runtime self time may leave unexplained.
UNACCOUNTED_TOLERANCE = 0.02

BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def check_checkout():
    """The benchmark builds the repository's libraries from source; refuse
    to run anywhere else."""
    needed = ["dune-project", "lib", os.path.join(BENCH_DIR, "dune")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        fail(f"not the root of a repository checkout (missing {', '.join(missing)})", 2)


def build():
    try:
        # no shared dune cache: the benchmark writes only inside its checkout
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./" + EXE],
            capture_output=True, text=True, timeout=BUILD_TIMEOUT,
            env=dict(os.environ, DUNE_CACHE="disabled"),
        )
    except FileNotFoundError:
        fail("dune not found on PATH", 2)
    except subprocess.TimeoutExpired:
        fail(f"build exceeded {BUILD_TIMEOUT} s")
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def measure(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--spans", spans_path(args)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} exceeded {RUN_TIMEOUT} s")
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail(f"perfbench.exe exited with {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def spans_path(args):
    return os.path.join(RESULTS, args.workload + ("-tiny" if args.tiny else "") + ".spans.tsv")


def run_id(args):
    return f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")


# ---- correctness gate ----

def outputs(cell):
    """The simulated outputs of one cell, as exact %.17g strings."""
    out = {k: cell[k] for k in ("sim_s", "messages", "result")}
    out.update(cell["extra"])
    return out


def gate(run, reference):
    """Failures as (pass, cell, reason): a raised exception, an output that
    differs from the reference, or a traced run whose facade call count
    differs from the reference's."""
    failures = []
    for c in run["cells"]:
        def bad(reason):
            failures.append((c["pass"], c["cell"], reason))
        if "error" in c:
            bad(f"raised {c['error']}")
            continue
        if reference is None:
            continue
        want = reference.get(c["cell"])
        if want is None:
            bad("no reference output")
            continue
        got = outputs(c)
        for k in sorted(set(got) | set(want["outputs"])):
            if got.get(k) != want["outputs"].get(k):
                bad(f"{k} {got.get(k)} != reference {want['outputs'].get(k)}")
        if c["traced"] and c["calls"] != want["calls"]:
            bad(f"facade calls {c['calls']} != reference {want['calls']}")
    return failures


def record(args, run, path):
    """Write this workload's cell outputs (and traced facade call counts)
    into the reference, after checking the traced and untraced passes
    agree with each other."""
    if args.workload == "fuzz-check":
        fail("fuzz-check has no stored reference: every program is checked against its SC run")
    if not args.trace:
        fail("--record needs --trace 1 (the facade call counts come from the traced run)")
    cells = {}
    for c in run["cells"]:
        if "error" in c:
            fail(f"{c['cell']} raised {c['error']}")
        entry = cells.setdefault(c["cell"], {"outputs": outputs(c), "calls": None})
        if entry["outputs"] != outputs(c):
            fail(f"{c['cell']}: passes disagree")
        if c["traced"]:
            entry["calls"] = c["calls"]
    ref = json.load(open(path)) if os.path.exists(path) else {}
    ref.setdefault("tiny" if args.tiny else "full", {})[args.workload] = cells
    with open(path, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


# ---- metrics ----

def nearest_rank(values, q):
    v = sorted(values)
    return v[max(0, min(len(v) - 1, -(-len(v) * q // 100) - 1))]


def end_to_end(run, reference, failed, attempted):
    passes = [p for p in run["passes"] if not p["traced"]]
    if run["facade_calls_per_pass"] is not None:
        calls = run["facade_calls_per_pass"]
    else:
        calls = sum(reference[c]["calls"] for c in {c["cell"] for c in run["cells"]})
    med = statistics.median

    # The host's speed during each pass, from the yardstick runs between
    # its cells: each pass's host times are rescaled to the speed of the
    # host the bounds were set on.
    def scale(p):
        return YARDSTICK_REFERENCE_NS / med(p["yardstick_ns"])

    m = {
        "wall_s": (med(p["wall_s"] * scale(p) for p in passes), "s"),
        "setup_s": (med(p["setup_s"] * scale(p) for p in passes), "s"),
        "ops_per_s": (med(calls / ((p["wall_s"] - p["setup_s"]) * scale(p)) for p in passes), "1/s"),
        "peak_heap_mb": (run["peak_heap_mb"], "MB"),
    }
    # Shown, not gated. The raw host times are what this host gave,
    # before the rescaling. failed_frac is 0 whenever the gate passes. The
    # slowest cell is the extreme of a few cells, or on fuzz-check of the
    # seed's programs, so it swings with the seed more than a bound allows;
    # the per-program figures are fuzz-check's throughput and latency.
    shown = {
        "raw_wall_s": (med(p["wall_s"] for p in passes), "s"),
        "raw_setup_s": (med(p["setup_s"] for p in passes), "s"),
        "raw_ops_per_s": (med(calls / (p["wall_s"] - p["setup_s"]) for p in passes), "1/s"),
        "yardstick_ms": (med(ns for p in passes for ns in p["yardstick_ns"]) / 1e6, "ms"),
        "cell_s_max": (med(max(p["cells_s"]) for p in passes), "s"),
        "failed_frac": (failed / attempted, "frac"),
    }
    if run["workload"] == "fuzz-check":
        programs = len(passes[0]["cells_s"])
        shown["programs_per_s"] = (med(programs / (p["wall_s"] - p["setup_s"]) for p in passes), "1/s")
        shown["program_ms_p50"] = (med(1e3 * nearest_rank(p["cells_s"], 50) for p in passes), "ms")
        shown["program_ms_p90"] = (med(1e3 * nearest_rank(p["cells_s"], 90) for p in passes), "ms")
    return m, shown


# ---- manifest ----

def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, so two results from
    checkouts without git history can still be told apart."""
    h = hashlib.sha256()
    for top in ("lib", BENCH_DIR):
        for d, subdirs, files in sorted(os.walk(top)):
            subdirs[:] = sorted(s for s in subdirs if s != "results")
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(d, name)
                    h.update(path.encode() + b"\0" + open(path, "rb").read())
    return h.hexdigest()


def manifest(args, run):
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "ocaml_version": run["ocaml_version"],
        "dune_profile": os.environ.get("DUNE_PROFILE", "dev"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "gc": run["gc"],
        "engine": run["engine"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "sizes": run["sizes"],
        "passes": len(run["passes"]),
        "python": platform.python_version(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--reference", default=REFERENCE)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    check_checkout()
    os.makedirs(RESULTS, exist_ok=True)
    build()
    run = measure(args)
    if args.record:
        record(args, run, args.reference)

    size = "tiny" if args.tiny else "full"
    reference = None
    if args.workload != "fuzz-check":
        try:
            reference = json.load(open(args.reference))[size][args.workload]
        except (OSError, ValueError, KeyError) as e:
            fail(f"no {size} reference for {args.workload} in {args.reference}: {e!r}")
    bad = gate(run, reference)
    failures = [f"pass {p} {cell}: {reason}" for p, cell, reason in bad]
    attempted = len(run["cells"])
    failed = len({(p, cell) for p, cell, _ in bad})
    if args.trace:
        layers = run["layers"]
        metrics = {k: (v["value"], v["unit"]) for k, v in layers.items()}
        unaccounted = layers["bench.unaccounted_frac"]["value"]
        if unaccounted > UNACCOUNTED_TOLERANCE:
            failures.append(f"traced pass: {unaccounted:.4f} of its wall unaccounted "
                            f"by stage, app and runtime self times (tolerance {UNACCOUNTED_TOLERANCE})")
        shown = {}
    else:
        metrics, shown = end_to_end(run, reference, failed, attempted)
    correct = not failures

    print(f"{args.workload}: seed {args.seed}, {len(run['passes'])} passes, "
          f"{attempted} cells checked, {failed} failed")
    for f in failures:
        print(f"  FAIL {f}")
    for k, (v, unit) in list(metrics.items()) + list(shown.items()):
        print(f"  {k:<28} {v:>16.6g} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    with open(os.path.join(RESULTS, run_id(args) + ".json"), "w") as f:
        json.dump({"manifest": manifest(args, run), "result": result,
                   "shown": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
                   "failures": failures, "passes": run["passes"]}, f, indent=1)
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()

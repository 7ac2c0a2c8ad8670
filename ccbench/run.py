#!/usr/bin/env python3
"""Run one ccsim benchmark workload and print its metrics.

Usage (from the repository root):

    python3 ccbench/run.py --workload l2_campaign --seed 1 --seconds 20 --trace 0
    python3 ccbench/run.py --workload all

The script builds ccsim and the `ccbench` program from source (Release,
into .bench_build/ccbench), then runs the chosen workload again and
again, each run in a fresh process, until --seconds have passed. Set-up
time is the fastest over those runs and peak RSS the median; run time is
the sum over the run's fixed slices of each slice's fastest time (see
run_s). Every run is
checked: the program's own correctness checks must pass, and every
simulated statistic must repeat exactly across runs of the same seed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced runs and prints the per-layer metrics,
including the tracing overhead. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is
non-zero when the build fails or any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("l2_campaign", "remote_rank", "chaos_domains")
MIN_RUNS = 3
# One invocation must end well inside 180 s: no run starts after this.
DEADLINE_S = 150.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "ccbench")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "ccbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("ccbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "ccbench")


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(binary, workload, seed, workers, trace_out=None, sha="unknown"):
    """One workload run in its own process; returns its result record."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--workers", str(workers), "--git-sha", sha]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=DEADLINE_S)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        log(proc.stderr[-4000:])
        raise SystemExit(f"ccbench: {workload} printed no result "
                         f"(exit {proc.returncode})")
    rec = json.loads(lines[-1])
    rec["exit"] = proc.returncode
    return rec


def deterministic(rec):
    """Everything that must repeat exactly for a fixed seed."""
    return (rec["attempted"], rec["failed"], rec["fidelity_pct"],
            len(rec["host"]["laps"]), sorted(rec["counts"].items()))


def measure(binary, workload, seed, seconds, trace, sha):
    """Runs until --seconds pass; returns (records, traced records)."""
    t0 = time.monotonic()
    plain, traced = [], []
    trace_dir = os.path.join(build_dir(), "traces")
    if trace:
        os.makedirs(trace_dir, exist_ok=True)
    while True:
        elapsed = time.monotonic() - t0
        runs = len(plain) + len(traced)
        # Start another run only if it should end within --seconds (and
        # always well inside the 180 s limit of one invocation).
        per_run = elapsed / runs if runs else 0.0
        enough = len(plain) >= MIN_RUNS and (not trace or
                                             len(traced) >= MIN_RUNS)
        if enough and elapsed + per_run > seconds:
            break
        if runs and elapsed + 1.5 * per_run > DEADLINE_S:
            break
        if trace and runs % 2 == 1:
            path = os.path.join(trace_dir, f"{workload}-seed{seed}.json")
            traced.append(run_once(binary, workload, seed, 1, path, sha))
        else:
            plain.append(run_once(binary, workload, seed, 1, None, sha))
    return plain, traced


def check(recs):
    """Failure reasons over all records: failed checks, exact repeat."""
    reasons = []
    for i, rec in enumerate(recs):
        if rec["exit"] != 0 or not rec["ok"]:
            bad = {k: v for k, v in rec["checks"].items()
                   if v.startswith("FAIL")}
            reasons.append(f"run {i}: exit {rec['exit']}, failed checks {bad}")
    first = deterministic(recs[0])
    for i, rec in enumerate(recs[1:], 1):
        if deterministic(rec) != first:
            reasons.append(f"run {i}: simulated outputs differ from run 0 "
                           "at the same seed")
    return reasons


def median(recs, key):
    return statistics.median(r["host"][key] for r in recs)


def run_s(recs):
    """Sum over the run's slices of each slice's fastest time across runs.

    Contention from other tenants of a shared host only ever adds time,
    and it comes in bursts that can cover most of an invocation's runs.
    Every run of a seed does the same work in each slice (Run::lap), so
    the fastest time of each slice comes closest to its undisturbed cost,
    and a burst spoils one slice of one run, not a whole run's total.
    """
    laps = zip(*(r["host"]["laps"] for r in recs))
    return sum(min(lap) for lap in laps)


def end_to_end(recs):
    rec = recs[0]
    setup = min(r["host"]["setup_s"] for r in recs)
    rest = min(r["host"]["wall_s"] - r["host"]["setup_s"] -
               r["host"]["run_s"] for r in recs)
    run = run_s(recs)
    return {
        "setup_s": setup,
        "run_s": run,
        "wall_s": setup + run + rest,
        "peak_rss_mb": median(recs, "peak_rss_mb"),
        "fidelity_pct": rec["fidelity_pct"],
        "delivered_share": 1.0 - rec["failed"] / rec["attempted"],
    }


def per_layer(plain, traced, names):
    counts = traced[0]["counts"]
    values = {}
    for name in names:
        if name in counts:
            values[name] = counts[name]
        elif name.endswith("_s") and name != "trace.overhead_s":
            values[name] = statistics.median(
                r["times"].get(name, 0.0) for r in traced)
    events = counts.get("sim.events", 0)
    values["sim.ns_per_event"] = (values["sim.run_s"] / events * 1e9
                                  if events else 0.0)
    values["trace.spans"] = traced[0]["spans"]
    values["trace.overhead_s"] = run_s(traced) - run_s(plain)
    return {n: values.get(n, 0.0) for n in names}


def run_workload(args, spec, binary, sha):
    plain, traced = measure(binary, args.workload, args.seed, args.seconds,
                            args.trace, sha)
    recs = plain + traced
    fp = recs[0]["fingerprint"]
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    if not fp["optimized"]:
        print("WARNING: non-optimized build; these numbers are not a "
              "baseline")
    reasons = check(recs)
    for r in reasons:
        log("ccbench: " + r)
    if args.trace:
        metrics_spec = spec["per_layer"]
        values = per_layer(plain, traced, [m["name"] for m in metrics_spec])
    else:
        metrics_spec = spec["end_to_end"]
        values = end_to_end(recs)
    units = {m["name"]: m["unit"] for m in metrics_spec}
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} "
          f"untraced + {len(traced)} traced runs")
    for m in metrics_spec:
        print(f"  {m['name']:<28} {values[m['name']]:>16.6g} {m['unit']}")
    return {
        "correct": not reasons,
        "attempted": sum(r["attempted"] for r in recs),
        "failed": sum(r["failed"] for r in recs),
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in values.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    binary = build()
    sha = git_sha()
    if args.workload == "all":
        results = {}
        for w in WORKLOADS:
            args.workload = w
            results[w] = run_workload(args, spec, binary, sha)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = run_workload(args, spec, binary, sha)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

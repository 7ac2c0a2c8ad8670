#!/usr/bin/env python3
"""Exact-repeat test of the ccsim benchmark.

    python3 ccbench/test_repeat.py [--seeds 1 7]

For each seed, every workload runs twice and must produce identical
count, simulated-latency and fidelity metrics, and pass every
correctness check. l2_campaign must also give the same values at 1 and
2 sharded-kernel worker threads. Host-time metrics (set-up, run, wall,
peak RSS, span times) are excluded: only they may differ between runs.

Seed 1 is the default seed the workloads were written against; seed 7
is held out and was never used to tune them.
"""
import argparse
import sys

import run


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    args = ap.parse_args()
    binary = run.build()
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for seed in args.seeds:
        for workload in run.WORKLOADS:
            a = run.run_once(binary, workload, seed, 1)
            b = run.run_once(binary, workload, seed, 1)
            reasons = run.check([a, b])
            expect(not reasons,
                   f"{workload} seed {seed}: checks pass and two runs repeat"
                   + (f" ({'; '.join(reasons)})" if reasons else ""))
            if workload == "l2_campaign":
                two = run.run_once(binary, workload, seed, 2)
                expect(not run.check([two]) and
                       run.deterministic(two) == run.deterministic(a),
                       f"{workload} seed {seed}: 1 worker == 2 workers")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

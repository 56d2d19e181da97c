#!/usr/bin/env python3
"""Check that the benchmark repeats: two alternating sets of runs.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]

Run from the root of a checkout.  Set A uses seeds 1..runs and set B
seeds 101..100+runs; their runs alternate (A, B, A, B, ...) so both
sets see the same machine conditions.  For every workload and
end-to-end metric it prints each set's median and quartiles
(statistics.quantiles(n=4)), the spread (Q3 - Q1) / median against the
metric's bound from BENCHMARK.json, and how far set B's median moved
from set A's, signed so that + is worse.  A metric passes when both
sets' spreads are below its bound and the two medians are within the
bound of each other, in either direction; the script exits 1
otherwise, or when the two sets' shares of failed operations differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d):\n%s" % (
            workload, seed, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def summarize(values):
    """Median, quartiles and spread (Q3 - Q1) / median of a set's values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_shift(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return -change if better == "higher" else change


def agree(first, second, bound):
    """True when the two medians are within `bound` of each other."""
    return abs(second - first) / first <= bound


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    seeds = [[1 + i for i in range(args.runs)],
             [101 + i for i in range(args.runs)]]

    results = {w: [[] for _ in seeds] for w in workloads}
    for i in range(args.runs):
        for s, set_seeds in enumerate(seeds):
            for w in workloads:
                r = run_once(bench, w, set_seeds[i])
                results[w][s].append(r)
                print("%-17s set %s seed %3d: correct=%s attempted=%d failed=%d" % (
                    w, "AB"[s], set_seeds[i], r["correct"], r["attempted"],
                    r["failed"]), file=sys.stderr)

    ok = True
    for w in workloads:
        print("\n== %s" % w)
        shares = []
        for s, runs in enumerate(results[w]):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            shares.append(failed / attempted)
            if not all(r["correct"] for r in runs):
                ok = False
                print("  set %s: a run reported correct=false" % "AB"[s])
        print("  failed share per set: %s" % ", ".join("%.6g" % x for x in shares))
        if len(set(shares)) > 1:
            ok = False
        print("  %-36s %-4s %12s %12s %12s %8s %8s %8s" % (
            "metric", "set", "median", "q1", "q3", "spread", "bound", "shift"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for s, runs in enumerate(results[w]):
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, spread = summarize(values)
                meds.append(med)
                shift = ""
                if s == 1:
                    shift = "%+.3f" % worse_shift(meds[0], med, m["better"])
                    if not agree(meds[0], med, bound):
                        ok = False
                        shift += " !"
                flag = ""
                if spread >= bound:
                    ok = False
                    flag = " !"
                elif spread >= bound / 3:
                    flag = " ~"
                print("  %-36s %-4s %12.6g %12.6g %12.6g %8.4f %8s %8s%s" % (
                    name, "AB"[s], med, q1, q3, spread,
                    "%.3f" % bound, shift, flag))
    print("\n%s (! = over the bound, ~ = over a third of it)" %
          ("STEADY" if ok else "NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

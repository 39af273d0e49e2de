#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build, compared.

Run from the repository root:

    python3 perfbench/steady.py [--workload NAME|all] [--runs N]

Set A runs seeds 1 .. N, set B seeds N+1 .. 2N, each with the run
length and tracing off as BENCHMARK.json gives them. For every
end-to-end metric it prints each set's median and quartiles, the spread
(interquartile distance over the median), and whether the two sets agree
within the metric's bound: each set's spread within the bound and set
B's median no worse than set A's by more than the bound.
It also requires the same share of failed ops in both sets, and prints
the spread over all 2N runs. Exits 0 when everything agrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"steady: {workload} seed {seed} exited {p.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="all")
    ap.add_argument("--runs", type=int, default=5)
    opts = ap.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    chosen = names if opts.workload == "all" else [opts.workload]
    seconds = bench["run_seconds"]
    all_ok = True
    for w in chosen:
        sets = []
        for k in range(2):
            seeds = [1 + k * opts.runs + i for i in range(opts.runs)]
            runs = [run_once(bench["command"], w, s, seconds) for s in seeds]
            sets.append((seeds, runs))
        print(f"== {w}: {seconds} s per run")
        for tag, (seeds, runs) in zip("AB", sets):
            print(f"  set {tag}: seeds {seeds}")
            for name in [m["name"] for m in bench["end_to_end"]]:
                vals = " ".join(f"{r['metrics'][name]['value']:.6g}" for r in runs)
                print(f"    {name:<12} {vals}")
        sets = [runs for _, runs in sets]
        correct = all(r["correct"] for s in sets for r in s)
        shares = [sorted({(r["failed"], r["attempted"]) for r in s}) for s in sets]
        share = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        same_share = all(
            r["failed"] * sets[0][0]["attempted"] == sets[0][0]["failed"] * r["attempted"]
            for s in sets for r in s)
        print(f"  correct in every run: {correct}; failed share A {share[0]:.6f}, "
              f"B {share[1]:.6f}, identical in every run: {same_share} {shares}")
        ok = correct and same_share
        for m in bench["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            vals = [[r["metrics"][name]["value"] for r in s] for s in sets]
            qa, qb = quartiles(vals[0]), quartiles(vals[1])
            sa, sb = spread(vals[0]), spread(vals[1])
            both = spread(vals[0] + vals[1])
            shift = (qb[1] - qa[1]) / qa[1]
            worse = shift if better == "lower" else -shift
            agree = worse <= bound and sa <= bound and sb <= bound
            ok = ok and agree
            print(f"  {name:<12} A q1/med/q3 {qa[0]:.6g} {qa[1]:.6g} {qa[2]:.6g} spread {sa:.3f} | "
                  f"B {qb[0]:.6g} {qb[1]:.6g} {qb[2]:.6g} spread {sb:.3f} | "
                  f"B vs A {shift:+.3f} | all-runs spread {both:.3f} | bound {bound} "
                  f"{'agree' if agree else 'DISAGREE'}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    os.chdir(os.path.dirname(HERE))
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness check: run each workload K times per set, one seed per run,
in S independent sets, and print for every end-to-end metric of
BENCHMARK.json, per set, the median, the quartiles and the spread
(interquartile range over the median) against the metric's bound, then
the shift of each later set's median from the first set's, plus the
attempted and failed operation counts of every run.

    python3 perfbench/steady.py [--runs K] [--sets S] [--first-seed F] [--workload W ...]

Set i (from 0) uses seeds F + i*K .. F + i*K + K-1. Run it from the root
of the repository.

A spread above a third of its bound is marked "above target"; a spread
or a median shift above the bound itself, or a share of failed
operations that differs between two runs, is marked "FAIL" and makes the
exit code 1.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    medians = {}  # (workload, set) -> {metric: median}
    shares = {}  # workload -> set of (failed, attempted) reductions
    for s in range(args.sets):
        for w in workloads:
            seeds = [args.first_seed + s * args.runs + i for i in range(args.runs)]
            results = [run_once(w, seed, bench["run_seconds"]) for seed in seeds]
            correct = all(r["correct"] for r in results)
            print(f"{w} set {s + 1} (seeds {seeds[0]}..{seeds[-1]}): "
                  f"attempted {[r['attempted'] for r in results]} "
                  f"failed {[r['failed'] for r in results]} correct {correct}")
            ok = ok and correct
            shares.setdefault(w, set()).update(
                (r["failed"] / r["attempted"]) for r in results)
            medians[(w, s)] = {}
            for name, bound in bounds.items():
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                medians[(w, s)][name] = med
                if spread > bound:
                    flag, ok = "  FAIL: above bound", False
                elif spread > bound / 3:
                    flag = "  above target (bound/3)"
                else:
                    flag = ""
                print(f"  {name:14s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                      f"spread {spread:7.4f}  bound {bound}{flag}")
                print("      runs " + " ".join(f"{v:.5g}" for v in values))
            sys.stdout.flush()
    for w in workloads:
        if len(shares[w]) != 1:
            ok = False
            print(f"{w}: FAIL: the share of failed operations differs between runs: "
                  f"{sorted(shares[w])}")
        for s in range(1, args.sets):
            print(f"{w}: median shift of set {s + 1} from set 1")
            for name, bound in bounds.items():
                first, later = medians[(w, 0)][name], medians[(w, s)][name]
                shift = (later - first) / first if first else float("inf")
                flag = ""
                if abs(shift) > bound:
                    flag, ok = "  FAIL: above bound", False
                print(f"  {name:14s} {first:12.6g} -> {later:12.6g}  shift {shift:+8.4f}  "
                      f"bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

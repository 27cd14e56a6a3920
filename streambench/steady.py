#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload of BENCHMARK.json in two sets of repeated runs (each
run with its own seed), then prints, per workload and end-to-end metric,
each set's median and quartiles, the spread (interquartile distance as a
share of the median) and whether the two sets agree within the metric's
bound:

  * the spread of each set stays within the bound;
  * the second set's median is not worse than the first's by more than
    the bound;
  * the share of failed operations is identical in both sets.

Run from the repository root:

    python3 streambench/steady.py [--runs 10] [--workloads a,b] [--seed 1000]

Exits 0 when every workload agrees, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--seed", type=int, default=1000, help="first seed")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    ok = True
    for w in workloads:
        sets = []
        for s in range(2):
            runs = []
            for i in range(args.runs):
                seed = args.seed + 1000 * s + i
                r = run_once(bench["command"], w, seed, bench["run_seconds"])
                print(f"{w} set {s + 1} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
                runs.append(r)
            sets.append(runs)
        print(f"\n{w}")
        print(f"  {'metric':<16} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            meds = []
            for s, runs in enumerate(sets):
                q1, med, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
                meds.append(med)
                steady = spread <= bound
                ok &= steady
                print(f"  {name:<16} {s + 1:>3} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} "
                      f"{spread:>7.3f} {bound:>6.2f}{'' if steady else '  SPREAD'}")
            worse = (meds[1] - meds[0]) / meds[0] if lower else (meds[0] - meds[1]) / meds[0]
            agree = worse <= bound
            ok &= agree
            print(f"  {'':<16} second median worse by {worse:+.3f}: {'agree' if agree else 'DISAGREE'}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        same = all(r["failed"] * sets[0][0]["attempted"] == sets[0][0]["failed"] * r["attempted"]
                   for runs in sets for r in runs)
        ok &= same
        print(f"  failed share per set: {shares} ({'identical' if same else 'DIFFERENT'})\n")
    print("all workloads agree" if ok else "some workloads do not agree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

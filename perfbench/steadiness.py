#!/usr/bin/env python3
"""Runs the benchmark several times per workload, one seed per run, and
prints each end-to-end metric's median, quartiles and interquartile range
(IQR) as a share of the median: the steadiness evidence kept in
perfbench/STEADINESS.md.

    python3 perfbench/steadiness.py --runs 10 [--first-seed 1]

Run from the repository root. Every workload of BENCHMARK.json runs for
its run_seconds. Quartiles are statistics.quantiles(values, n=4), the same
rule the acceptance check applies. Each table row also carries the median
steal share of the runs (the host line's steal_pct): sets of runs compare
only at like steal.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print("| workload | metric | unit | runs | steal % | median | Q1 | Q3 | IQR % of median | bound % |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        values = {}
        units = {}
        steal = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            start = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
            lines = out.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
            steal.append(host.get("steal_pct", 0))
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect result {res}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{w} seed {seed}: {time.time() - start:.1f}s steal={steal[-1]:.1f}% "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
                  file=sys.stderr)
        for name in sorted(values):
            vs = values[name]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            print(f"| {w} | {name} | {units[name]} | {len(vs)} | {statistics.median(steal):.1f} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {100 * (q3 - q1) / med:.1f} | {100 * bounds[name]:.0f} |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Rerun benchmark workloads k times and read each metric's spread.

    python3 fmbench/spread.py [-k 10] [--first-seed 1] [--trace 0|1] [workload ...]

Run from the repository root. Each run gets its own seed (first-seed,
first-seed+1, ...). For every end-to-end metric it prints the median of
the k values and their spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to
the metric's bound from BENCHMARK.json. It also prints the failed and
attempted operations of each run. With `-k 1 --trace 1` it prints every
per-layer metric of every workload.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("-k", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("workloads", nargs="*", default=names)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    status = 0
    for wl in args.workloads:
        values, units, shares = {}, {}, []
        for seed in range(args.first_seed, args.first_seed + args.k):
            cmd = bench["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
                status = 1
                continue
            r = json.loads(p.stdout.strip().splitlines()[-1])
            shares.append(f"{r['failed']}/{r['attempted']}{'' if r['correct'] else ' INCORRECT'}")
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"== {wl}: failed/attempted per run: {', '.join(shares)}")
        for name, vs in values.items():
            med = statistics.median(vs)
            line = f"  {name:<26} median {med:>14.4f} {units[name]:<5}"
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med
                bound = bounds.get(name)
                line += f"  spread {spread:.4f}"
                if bound is not None:
                    line += f"  bound {bound}  {'ok' if spread <= bound / 3 else 'WIDE'}"
            print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())

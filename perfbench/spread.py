#!/usr/bin/env python3
"""Repeat benchmark runs and report how steady each metric is.

Run from the repository root:

  python3 perfbench/spread.py small-fresh --seeds 1-10
  python3 perfbench/spread.py small-fresh --seeds 1 --overhead

The first form runs one untraced run per seed and prints, for every
end-to-end metric, the median and the interquartile range as a share of
the median (statistics.quantiles with n=4), next to the bound the
metric has in BENCHMARK.json. Runs last BENCHMARK.json's run_seconds
unless --seconds says otherwise. The second runs each seed untraced and
traced and prints the tracing overhead: how far the traced run's
end-to-end metrics (kept in its trace file) sit from the untraced run's.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"run failed ({p.returncode}): {' '.join(cmd)}\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"seed {seed}: correct={res['correct']} failed={res['failed']}")
    return res


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--overhead", action="store_true")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if a.seconds is None:
        a.seconds = bench["run_seconds"]
    values = {}
    for seed in seeds_of(a.seeds):
        res = run(a.workload, seed, a.seconds, 0)
        line = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in sorted(line.items())), flush=True)
        if a.overhead:
            run(a.workload, seed, a.seconds, 1)
            out = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
            with open(os.path.join(out, "trace", a.workload + ".json")) as f:
                traced = json.load(f)["end_to_end"]
            for k in sorted(line):
                t = traced[k]["value"]
                print(f"  overhead {k}: untraced {line[k]:.4g} traced {t:.4g} "
                      f"({100 * (t - line[k]) / line[k]:+.1f}%)")
        for k, v in line.items():
            values.setdefault(k, []).append(v)
    if len(next(iter(values.values()))) < 2:
        return
    print(f"{'metric':22} {'median':>12} {'iqr/median':>10} {'bound':>6}")
    for k in sorted(values):
        vs = values[k]
        q = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        print(f"{k:22} {med:12.4f} {(q[2] - q[0]) / med:10.3f} {bounds.get(k, float('nan')):6}")


if __name__ == "__main__":
    main()

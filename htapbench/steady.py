#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly with different seeds and
prints, for every end-to-end metric, the median, the quartiles, and the
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.

    python3 htapbench/steady.py                      # 10 runs per workload
    python3 htapbench/steady.py --runs 5 --workloads tpcc_q2 --seconds 10
    python3 htapbench/steady.py --sets 2             # two sets, compared

A spread within a third of its bound is marked "ok", within the bound
"wide", beyond it "OVER"; setup_s is checked like every other metric. With
--sets 2 the second set runs on fresh seeds and, per metric, the shift of
its median from the first set's in the metric's worse direction is checked
against the bound as well. Also prints the share of failed operations per
workload, which must be identical from run to run. Exits 1 if any spread or
shift is over its bound, or the failed share differs between runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of `values`."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_shift(first, second, better):
    """How much worse median `second` is than `first`, as a share of
    `first` (negative when it is better)."""
    if not first:
        return float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def verdict(value, bound):
    if value <= bound / 3:
        return "ok"
    return "wide" if value <= bound else "OVER"


def run_set(spec, wl, seeds, seconds):
    """Runs `wl` once per seed; returns ({metric: [values]}, {failed shares})."""
    values, shares = {}, set()
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            sys.exit(f"{wl} seed {seed}: run failed")
        res = json.loads(proc.stdout.splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"{wl} seed {seed}: output check failed")
        shares.add(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"# {wl} seed {seed}: " + " ".join(
            f"{n}={m['value']:.5g}" for n, m in res["metrics"].items()), flush=True)
    return values, shares


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()

    over = False
    medians = {}  # (set, workload) -> {metric: median}
    for s in range(args.sets):
        for wl in args.workloads.split(","):
            first = args.first_seed + s * args.runs
            values, shares = run_set(spec, wl, range(first, first + args.runs),
                                     args.seconds)
            print(f"{wl} (set {s + 1}): failed share per run: {sorted(shares)}")
            if len(shares) != 1:
                over = True
            print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'spread':>8} {'bound':>6}")
            meds = medians.setdefault((s, wl), {})
            for m in spec["end_to_end"]:
                med, q1, q3, sp = spread(values[m["name"]])
                meds[m["name"]] = med
                v = verdict(sp, m["bound"])
                over |= v == "OVER"
                print(f"  {m['name']:18} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{sp:8.3f} {m['bound']:6.2f} {v}", flush=True)
    if args.sets == 2:
        for wl in args.workloads.split(","):
            print(f"{wl}: set 2 median against set 1")
            for m in spec["end_to_end"]:
                a, b = medians[(0, wl)][m["name"]], medians[(1, wl)][m["name"]]
                shift = worse_shift(a, b, m["better"])
                v = "ok" if shift <= m["bound"] else "OVER"
                over |= v == "OVER"
                print(f"  {m['name']:18} {a:12.5g} {b:12.5g} worse by {shift:+8.3f} "
                      f"{m['bound']:6.2f} {v}", flush=True)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())

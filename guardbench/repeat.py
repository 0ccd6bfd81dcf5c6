#!/usr/bin/env python3
"""Run the benchmark N times per workload and summarize each metric.

Run from the repository root:

    python3 guardbench/repeat.py N [--seed S] [--sets K] [--workload W ...]
                                   [--seconds T] [--trace 0|1]

With --seed every run uses seed S (a same-code, same-seed agreement check);
without it run i of a set uses seed i (the run-to-run spread across inputs).
For each set and metric it prints the median, the quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median, and the largest
deviation of one run from the median as a share of it (maxdev). An
end-to-end metric is shown next to its BENCHMARK.json bound with two
checks: "calib" when the bound is at least 1.5 x maxdev, and "tenth" when
every run lies within a tenth of the median. With --sets K > 1 the K sets
run one after another, and each later set's median is compared with the
first's: "agree" when they differ by no more than the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_set(workload, runs, seed, seconds, trace):
    """Returns {metric: [value per run]} and whether every run succeeded."""
    values, ok = {}, True
    for i in range(1, runs + 1):
        run_seed = seed if seed is not None else i
        proc = subprocess.run(
            [sys.executable, str(ROOT / "guardbench" / "run.py"),
             "--workload", workload, "--seed", str(run_seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{workload} seed {run_seed}: exit {proc.returncode}")
            ok = False
            continue
        verdict = json.loads(lines[-1])
        print(f"{workload} seed {run_seed}: attempted {verdict['attempted']}"
              f" failed {verdict['failed']} correct {verdict['correct']}",
              flush=True)
        for name, metric in verdict["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, ok


def summarize(workload, values, bounds):
    print(f"{'workload':8} {'metric':40} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'maxdev':>7} {'bound':>6}")
    for name, vs in values.items():
        median = statistics.median(vs)
        q1, _, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1
                     else (vs[0], vs[0], vs[0]))
        spread = (q3 - q1) / median if median else 0.0
        maxdev = (max(abs(v - median) for v in vs) / median
                  if median else 0.0)
        bound = bounds.get(name)
        checks = ""
        if bound is not None:
            checks = (("calib" if bound >= 1.5 * maxdev else "UNCALIB") + " "
                      + ("tenth" if maxdev <= 0.1 else "OUTLIER"))
        print(f"{workload:8} {name:40} {median:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:7.3f} {maxdev:7.3f} "
              f"{'' if bound is None else bound:>6} {checks}", flush=True)


def compare_sets(workload, sets, bounds):
    for name in sets[0]:
        medians = [statistics.median(s[name]) for s in sets if name in s]
        first = medians[0]
        gaps = [(m - first) / first if first else 0.0 for m in medians[1:]]
        bound = bounds.get(name)
        agree = ""
        if bound is not None:
            agree = ("agree" if all(abs(g) <= bound for g in gaps)
                     else "DISAGREE")
        print(f"{workload:8} {name:40} set medians "
              + " / ".join(f"{m:.6g}" for m in medians) + " gaps "
              + " ".join(f"{g:+.3f}" for g in gaps) + f" {agree}",
              flush=True)


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    workloads = args.workload or [w["name"] for w in config["workloads"]]

    status = 0
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            values, ok = run_set(workload, args.runs, args.seed,
                                 args.seconds, args.trace)
            status |= 0 if ok else 1
            summarize(workload, values, bounds)
            sets.append(values)
        if len(sets) > 1:
            compare_sets(workload, sets, bounds)
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and agreement of two sets.

Runs the benchmark RUNS times per workload and set, each run with its own
seed, and prints for every end-to-end metric the median and the distance
between the first and third quartile as a share of the median
(statistics.quantiles, n=4).  With --sets 2 it also prints how far the
second set's median lies from the first's, in the metric's "worse"
direction, next to the metric's bound from BENCHMARK.json.

    python3 bench/spread.py --runs 10 --sets 2 fig5-pages serve-mixed
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: run not correct: {res}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="also write every run's metrics to this file")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    defs = bench["end_to_end"]

    worst = 0.0
    every = {}
    for w in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                runs.append(run_once(w, seed, seconds))
            sets.append(runs)
        every[w] = sets
        if args.json:
            pathlib.Path(args.json).write_text(json.dumps(every, indent=1) + "\n")
        print(f"{w}: {args.sets} set(s) of {args.runs} runs, {seconds}s each")
        for d in defs:
            name, bound = d["name"], d["bound"]
            row = f"  {name:18s} bound {bound:5.2f}"
            meds = []
            for runs in sets:
                vals = [r[name] for r in runs]
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                meds.append(med)
                spread = (q3 - q1) / med
                if name != "setup_s":
                    worst = max(worst, spread / bound)
                row += f"  median {med:12.6g}  iqr/median {spread:6.3f}"
            if len(meds) > 1:
                shift = (meds[1] - meds[0]) / meds[0]
                if d["better"] == "higher":
                    shift = -shift
                row += f"  set2 worse by {shift:+.3f}"
            print(row)
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()

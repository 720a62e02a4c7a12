#!/usr/bin/env python3
"""Spread of every end-to-end metric across runs, per workload.

Runs `benchmark/run.sh --workload W --seed N --seconds S --trace 0` for each
seed (each `--repeat` times), reads the JSON result line, and prints per
metric the median, the quartiles (statistics.quantiles, n=4) and the spread
(interquartile distance as a share of the median), next to the bound
BENCHMARK.json sets for it. A spread above a third of its bound is flagged.

    python3 benchmark/calibrate.py [--seeds 1-10] [--repeat 1] [--seconds S]
                                   [--workloads a,b] [--out file.json]

Across seeds, sim metrics differ because each seed is another deployment;
repeating one seed shows host noise alone (sim metrics repeat exactly).
"""

import argparse
import json
import os
import statistics
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = ["bash", os.path.join(ROOT, "benchmark", "run.sh"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    args = ap.parse_args()

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    report = {"seeds": args.seeds, "repeat": args.repeat,
              "seconds": seconds, "workloads": {}}
    for w in workloads:
        runs = [run(w, s, seconds) for s in seed_list(args.seeds)
                for _ in range(args.repeat)]
        rows = report["workloads"][w] = {}
        print(f"\n{w}  ({len(runs)} runs, {seconds} s)", flush=True)
        for name in bounds:
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": round(spread, 4)}
            flag = "  <-- over a third of the bound" \
                if spread > bounds[name] / 3 else ""
            print(f"  {name:18s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}{flag}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()

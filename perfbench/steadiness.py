#!/usr/bin/env python3
"""Steadiness report: runs the benchmark N times per workload and prints, for
every metric, the median, quartiles, worst run and the spread (interquartile
distance over the median) next to the bound BENCHMARK.json gives it.

Usage (from the repository root):

    python3 perfbench/steadiness.py --runs 10 [--first-seed 1] [--trace 0]
                                    [--workloads serve_fleet,offline_diff]

Each run uses its own seed (first-seed, first-seed+1, ...). Raw results are
appended to .bench_data/steadiness.jsonl.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload, seed, seconds, trace):
    start = time.time()
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.time() - start
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    log = ROOT / ".bench_data" / "steadiness.jsonl"
    failed = False
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = one_run(workload, seed, spec["run_seconds"], args.trace)
            result.update(workload=workload, seed=seed)
            log.parent.mkdir(exist_ok=True)
            with log.open("a") as f:
                f.write(json.dumps(result) + "\n")
            runs.append(result)
            if not result["correct"] or result["failed"]:
                failed = True
        print(f"\n{workload}: {len(runs)} runs, "
              f"{statistics.median(r['wall_s'] for r in runs):.1f} s each, "
              f"correct {sum(r['correct'] for r in runs)}/{len(runs)}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'worst':>12} {'spread':>7} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            worst = (min if better.get(name) == "higher" else max)(values)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and spread > bound:
                mark, failed = "  OVER", True
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{worst:12.6g} {spread:7.3f} "
                  f"{'' if bound is None else bound:>6}{mark}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the FlowDiff benchmark, generate a workload's inputs, and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_fleet --seed 1 --seconds 15 --trace 0

The library and the benchmark binary are built from source with CMake into
$CARGO_TARGET_DIR (default .bench_build). Inputs are simulated from the seed
into .bench_data/<workload>-<seed>/ and reused while that directory exists;
only the most recent input set is kept. The last line of standard output is
the result JSON; with --trace 1 the span table is written to
.bench_data/spans-<workload>-<seed>.tsv.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
DATA = ROOT / ".bench_data"
WORKLOADS = ("serve_fleet", "incident_storm", "offline_diff")


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def run(cmd, **kwargs):
    """Runs cmd to completion; its output goes to our stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)


def build():
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    configure = ["cmake", "-S", str(BENCH), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    if run(configure).returncode != 0:
        return None
    if run(["cmake", "--build", str(build_dir), "-j", "4"]).returncode != 0:
        return None
    binary = build_dir / "flowbench"
    return binary if binary.exists() else None


def inputs(binary, workload, seed):
    target = DATA / f"{workload}-{seed}"
    if (target / "manifest.txt").exists():
        return target
    DATA.mkdir(exist_ok=True)
    for old in DATA.iterdir():
        if old.is_dir():
            shutil.rmtree(old)
        elif old.name.startswith("spans-"):
            old.unlink()
    staging = DATA / f".staging-{workload}-{seed}"
    result = run([str(binary), "gen", "--workload", workload,
                  "--seed", str(seed), "--dir", str(staging)])
    if result.returncode != 0:
        shutil.rmtree(staging, ignore_errors=True)
        return None
    staging.rename(target)
    return target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    data = inputs(binary, args.workload, args.seed)
    if data is None:
        log("input generation failed")
        return 1
    # Write the build's and the inputs' dirty pages out now, so that the
    # kernel does not write them back while the run measures.
    os.sync()
    cmd = [str(binary), "run", "--workload", args.workload, "--dir",
           str(data), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(DATA / f"spans-{args.workload}-{args.seed}.tsv")]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark and runs its workloads.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With --workload, runs that workload once and relays its output; the last
line is its JSON result. Without it, runs every workload, each in a fresh
process, and ends with one JSON line summing them. The exit code is 0 only
when every output was correct.

The benchmark is built with `cargo build --release --offline` into
$CARGO_TARGET_DIR (default: .bench_build). Build output goes to stderr.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["figures-cold", "stress-armed", "warm-recall"]


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    except OSError as e:
        sys.exit(f"perfbench: cannot run cargo: {e}")
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "flywheel-perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()

    exe = build()
    flags = ["--trace", args.trace]
    if args.seed is not None:
        flags += ["--seed", str(args.seed)]
    if args.seconds is not None:
        flags += ["--seconds", str(args.seconds)]

    if args.workload:
        return subprocess.run([exe, "--workload", args.workload] + flags).returncode

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        print(f"== {w}", flush=True)
        done = subprocess.run([exe, "--workload", w] + flags, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if done.returncode != 0 or result is None:
            total["correct"] = False
            continue
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{w}.{name}"] = m
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

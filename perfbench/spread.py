#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median
and spread (interquartile range over median, as BENCHMARK.json bounds
it). Run from the repository root:

    python3 perfbench/spread.py --workload serve-hot --seeds 1-10

Builds with cargo first unless --bin names an already built binary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin", default=None, help="built perfbench binary")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or str(spec["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    if args.bin:
        cmd = [args.bin]
    else:
        subprocess.run(
            ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
            check=True,
        )
        target = os.environ.get("CARGO_TARGET_DIR", "perfbench/target")
        cmd = [os.path.join(target, "release", "perfbench")]

    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            cmd + ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", seconds, "--trace", args.trace],
            check=True, capture_output=True, text=True,
        ).stdout.strip().splitlines()[-1]
        result = json.loads(out)
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: INCORRECT {result['failed']} of {result['attempted']} failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"{'metric':<28} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- over a third of its bound"
        print(f"{name:<28} {med:>12.6g} {spread:>8.4f} {bound if bound is not None else '-':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

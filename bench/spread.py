#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's median and spread.

    python3 bench/spread.py                                  # every workload, seeds 1..10
    python3 bench/spread.py --workload oracle-tables --seeds 5 --trace 1

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  Each run's
result line is printed as it arrives; the summary follows per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    status = 0
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(1, args.seeds + 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900,
            )
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            print(workload, seed, done.stdout.splitlines()[-1], flush=True)
            result = json.loads(done.stdout.splitlines()[-1])
            shares.add((result["failed"] / result["attempted"], result["correct"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: failed share and correctness {sorted(shares)}")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound}" + (" EXCEEDED" * (spread > bound))
            print(f"  {name:40s} median {median:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}"
                  f"  spread {spread:.4f}{flag}")
            if bound is not None and name != "setup_s" and spread > bound:
                status = 1
        if len(shares) > 1:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

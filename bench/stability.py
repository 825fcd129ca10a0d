#!/usr/bin/env python3
"""Output stability as a property: the same operations print the same bytes in
two processes with different ``PYTHONHASHSEED`` values.

    python3 bench/stability.py --workload hilbert-invariants --seed 1

Each process runs the whole first round of the workload's operations with cold
caches and prints one SHA-256 digest per operation of what the operation
printed (CLI verbs) or reported (Frobenius checks).  Exit 0 when
every digest agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import Counter

HASH_SEEDS = ("1", "2")


def digests(workload_name: str, seed: int) -> list[str]:
    from run import drain_caches, import_symsod

    symsod = import_symsod()
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[workload_name]
    out = []
    for op in workload.make_round(seed, 0):
        drain_caches(symsod, Counter())
        out.append(digest(workload.run(symsod, op)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(digests(args.workload, args.seed)))
        return 0
    command = [sys.executable, __file__, "--child", "--workload", args.workload,
               "--seed", str(args.seed)]
    runs = []
    for hash_seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=170, check=True)
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    first, second = runs
    differing = [i for i, (a, b) in enumerate(zip(first, second)) if a != b]
    same = len(first) == len(second) and not differing
    print(json.dumps({"workload": args.workload, "operations": len(first), "stable": same,
                      "differing_ops": differing}))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

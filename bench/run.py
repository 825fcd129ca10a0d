#!/usr/bin/env python3
"""symsod benchmark: one workload, one seed, one closed-loop client in one process.

    python3 bench/run.py --workload hilbert-invariants --seed 1 --seconds 10 --trace 0

The run imports ``symsod`` from ``src/`` next to this directory, then runs
whole rounds of the workload's seeded operations (see ``workloads.py``) until
``--seconds`` have passed and at least 100 operations were made.  Before
each operation the package's process-wide caches are emptied, so every
operation starts as cold as a one-shot CLI call.  Each output is checked
against the independent oracle after its timing stops.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end to end;
with ``--trace 1`` spans are recorded around the package's cross-module
calls, the per-layer metrics are printed and the spans are written to
``bench/out/trace-<workload>-<seed>.csv``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference
from spans import COUNTERS, TIMED, Tracer
from workloads import WORKLOADS, check, shows_known_fault

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_OPS = 100
SETUP_SAMPLES = 11
SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import symsod.cli; symsod.cli.build_parser(); print(time.perf_counter() - t)"
)


def pin_to_one_cpu() -> None:
    """Keep this process, and the interpreters it starts, on the CPU it runs on now.

    The speed phases of a shared machine differ between its CPUs; the kernel
    samples only describe an operation if both ran on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        with open("/proc/self/stat") as stat:
            cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})


def import_symsod():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "symsod" / "__init__.py").is_file():
        raise SystemExit(f"error: no symsod sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import symsod
    import symsod.cli  # noqa: F401  (the verbs the workloads drive)

    if Path(symsod.__file__).resolve().parent != SRC / "symsod":
        raise SystemExit(f"error: symsod was imported from {symsod.__file__}, not {SRC}")
    return symsod


def measure_setup() -> float:
    """Median time for a fresh interpreter to import symsod.cli and build its parser.

    Each sample is rescaled by kernel times taken in this process just before
    the interpreter starts and just after it exits.
    """
    code = SETUP_PROBE.format(src=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = statistics.median(reference.sample() for _ in range(3))
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        after = statistics.median(reference.sample() for _ in range(3))
        samples.append(float(done.stdout) * 2 * reference.NOMINAL_S / (before + after))
    return statistics.median(samples)


def drain_caches(symsod, counts: Counter) -> None:
    """Empty the package's process-wide caches, recording what they held."""
    hilb = symsod.invariants._hilb_poincare_value
    info = hilb.cache_info()
    counts["invariants.hilb_cache.hits"] += info.hits
    counts["invariants.hilb_cache.misses"] += info.misses
    hilb.cache_clear()
    counts["partitions.q_cache.size"] += len(symsod.partitions._Q_CACHE)
    symsod.partitions._Q_CACHE.clear()
    del symsod.partitions._P_TABLE[1:]


def measure(symsod, workload, seed: int, seconds: float, tracer=None) -> dict:
    """Run whole rounds until the time is up; return latencies and check results."""
    run = workload.run if tracer is None else tracer.wrap("op", workload.run)

    def attempt(symsod, op):
        """The operation's output, or the exception it raised, timed either way."""
        try:
            return run(symsod, op), None
        except Exception as exc:  # a crash is a failed operation, not a failed run
            return None, exc

    counts = tracer.counts if tracer is not None else Counter()
    latencies: list[float] = []  # rescaled to the reference speed
    speed: list[float] = []  # per operation: NOMINAL_S / median kernel time around and in it
    failed = unexpected = 0
    # a traced run only attributes time to layers; one round of every cell is enough for that
    min_rounds = workload.min_rounds if tracer is None else 1
    start = time.perf_counter()
    round_index = 0
    while (
        round_index < min_rounds
        or time.perf_counter() - start < seconds
        or len(latencies) < MIN_OPS
    ):
        for op in workload.make_round(seed, round_index):
            drain_caches(symsod, counts)
            if tracer is not None:
                tracer.op = len(latencies)
            (output, error), elapsed, factor = reference.timed(
                attempt, symsod, op, probe_inside=tracer is None
            )
            latencies.append(elapsed)
            speed.append(factor)
            if error is not None:
                print(f"{workload.name}: {op} raised {error!r}", file=sys.stderr)
            elif isinstance(output[1], str):
                counts["cli.stdout_bytes"] += len(output[1].encode())
            if error is not None or not check(op, output):
                failed += 1
                unexpected += not (error is None and shows_known_fault(op, output))
        round_index += 1
    drain_caches(symsod, counts)
    return {"latencies": latencies, "speed": speed, "failed": failed, "unexpected": unexpected}


def end_to_end(result: dict, setup_s: float) -> dict:
    lat = result["latencies"]
    return {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer, speed: list[float]) -> dict:
    calls, total, own = tracer.self_times(speed)
    metrics = {}
    for name in TIMED:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_ms"] = (own[name] * 1e3, "ms")
    for name in COUNTERS:
        metrics[name] = (tracer.counts[name], "bytes" if name.endswith("_bytes") else "count")
    metrics["op.total_ms"] = (total["op"] * 1e3, "ms")
    metrics["op.self_ms"] = (own["op"] * 1e3, "ms")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    symsod = import_symsod()
    pin_to_one_cpu()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            result = measure(symsod, workload, args.seed, args.seconds, tracer)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{workload.name}-{args.seed}.csv")
        metrics = per_layer(tracer, result["speed"])
    else:
        setup_s = measure_setup()
        result = measure(symsod, workload, args.seed, args.seconds)
        metrics = end_to_end(result, setup_s)

    attempted = len(result["latencies"])
    if attempted == 0:
        print("error: no operation was checked", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["unexpected"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: the oracle, the checks, tracing, stability.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import oracle
import run
from spans import COUNTERS, TIMED, Tracer
from workloads import NESTED, WORKLOADS, Op, Workload, check, shows_known_fault

HERE = Path(__file__).resolve().parent
symsod = run.import_symsod()


def test_oracle_hand_known_values():
    assert [oracle.q(n, 2) for n in range(6)] == [1, 2, 5, 10, 20, 36]
    assert oracle.p(100) == 190569292
    assert [oracle.hilb_euler((1, 0, 1, 0, 1), n) for n in range(6)] == [1, 3, 9, 22, 51, 108]
    assert [oracle.euler_power(3, n) for n in range(6)] == [1, 3, 9, 22, 51, 108]


def test_oracle_against_literal_sums():
    def p_brute(n, largest=None):
        largest = n if largest is None else largest
        if n == 0:
            return 1
        return sum(p_brute(n - k, k) for k in range(1, min(n, largest) + 1))

    for n, l in itertools.product(range(9), range(1, 5)):
        literal = sum(
            math.prod(p_brute(i) for i in comp)
            for comp in itertools.product(range(n + 1), repeat=l)
            if sum(comp) == n
        )
        assert oracle.q(n, l) == literal
    # Macdonald: P(Sym^a C)(1) summed over multiplicity vectors of weight n
    for g, n in itertools.product(range(3), range(7)):
        def sym_curve_total(a):
            return sum(math.comb(2 * g, k) * (a - k + 1) for k in range(min(2 * g, a) + 1))

        def vectors(weight, smallest=1):
            if weight == 0:
                yield []
                return
            for i in range(smallest, weight + 1):
                for a in range(1, weight // i + 1):
                    for rest in vectors(weight - i * a, i + 1):
                        yield [a] + rest

        total = sum(math.prod(sym_curve_total(a) for a in vec) for vec in vectors(n))
        assert oracle.curve_power_hh(g, n) == total


def _first(workload: str, family: str) -> Op:
    return next(op for op in WORKLOADS[workload].make_round(3, 0) if op.family == family)


@pytest.mark.parametrize("workload", ["hilbert-invariants", "exceptional-decompose", "oracle-tables"])
def test_every_operation_but_the_nested_powers_passes(workload):
    w = WORKLOADS[workload]
    for op in w.make_round(5, 0):
        run.drain_caches(symsod, Counter())
        assert check(op, w.run(symsod, op)) is not op.known_fault, op


def test_nested_powers_are_the_known_fault():
    w = WORKLOADS["hilbert-invariants"]
    faulty = [op for op in w.make_round(1, 0) if op.known_fault]
    assert sorted(op.params for op in faulty) == sorted((a, b, l) for a, b, l, _ in NESTED)
    assert oracle.q(2, oracle.q(2, 1)) == 5
    for op in faulty:
        assert shows_known_fault(op, w.run(symsod, op)), op


def _nested_only(seed, round_index):
    return [op for op in WORKLOADS["hilbert-invariants"].make_round(seed, round_index)
            if op.known_fault]


def test_other_failures_of_the_nested_powers_are_unexpected():
    def wrong_number(pkg, op):
        code, text = WORKLOADS["hilbert-invariants"].run(pkg, op)
        doc = json.loads(text)
        doc["invariants"]["euler"] = 4
        return code, json.dumps(doc)

    def bad_exit(pkg, op):
        return 1, WORKLOADS["hilbert-invariants"].run(pkg, op)[1]

    def crash(pkg, op):
        raise RuntimeError("boom")

    for fake in (wrong_number, bad_exit, crash):
        result = run.measure(symsod, Workload("nested", _nested_only, fake), seed=1, seconds=0.0)
        assert result["failed"] == result["unexpected"] == len(result["latencies"]), fake


def test_a_raising_operation_is_timed():
    def slow_crash(pkg, op):
        time.sleep(0.002)
        raise RuntimeError("boom")

    result = run.measure(symsod, Workload("nested", _nested_only, slow_crash), seed=1, seconds=0.0)
    assert result["failed"] == len(result["latencies"])
    assert min(result["latencies"]) > 0.0


def test_frobenius_small_modules_pass():
    w = WORKLOADS["frobenius-battery"]
    for op in w.make_round(2, 0):
        if op.params[0] <= 4:
            assert check(op, w.run(symsod, op)), op


def test_a_wrong_answer_is_counted_as_failed():
    op = _first("hilbert-invariants", "hilb-surface")
    code, text = WORKLOADS["hilbert-invariants"].run(symsod, op)
    doc = json.loads(text)
    assert check(op, (code, text))
    doc["invariants"]["euler"] += 1
    assert not check(op, (code, json.dumps(doc)))

    def tampered(pkg, op):
        code, text = WORKLOADS["oracle-tables"].run(pkg, op)
        doc = json.loads(text)
        if "values" in doc:
            doc["values"][-1] += 1
        else:
            doc["rows"][-1]["euler"] += 1
        return code, json.dumps(doc)

    wrong = Workload("oracle-tables", WORKLOADS["oracle-tables"].make_round, tampered)
    result = run.measure(symsod, wrong, seed=1, seconds=0.0)
    assert result["failed"] == result["unexpected"] == len(result["latencies"]) >= run.MIN_OPS


def test_failed_share_is_the_same_in_every_run():
    w = WORKLOADS["hilbert-invariants"]
    a = run.measure(symsod, w, seed=1, seconds=0.0)
    b = run.measure(symsod, w, seed=2, seconds=0.5)
    per_round = len(w.make_round(1, 0))
    for result in (a, b):
        assert len(result["latencies"]) % per_round == 0
        assert result["failed"] * per_round == len(result["latencies"]) * len(NESTED)
        assert result["unexpected"] == 0


def test_traced_self_times_account_for_operation_time():
    tracer = Tracer()
    tracer.install()
    try:
        result = run.measure(symsod, WORKLOADS["hilbert-invariants"], 4, 0.0, tracer)
    finally:
        tracer.uninstall()
    metrics = run.per_layer(tracer, result["speed"])
    for name in TIMED:
        assert f"{name}.calls" in metrics and f"{name}.self_ms" in metrics
    assert all(name in metrics for name in COUNTERS)
    own = sum(value for name, (value, _) in metrics.items() if name.endswith("self_ms"))
    assert own == pytest.approx(metrics["op.total_ms"][0], rel=1e-9)
    assert metrics["rewrite.expand.calls"][0] == metrics["cli.main.calls"][0] == len(result["latencies"])
    assert metrics["invariants.hilb_cache.misses"][0] > 0
    assert symsod.cli.parse_expr.__module__ == "symsod.grammar"  # uninstalled


def test_every_timed_span_fires_on_some_workload():
    tracer = Tracer()
    tracer.install()
    try:
        for w in WORKLOADS.values():
            for op in w.make_round(6, 0):
                if op.family != "module" or op.params[0] <= 4:
                    run.drain_caches(symsod, tracer.counts)
                    w.run(symsod, op)
    finally:
        tracer.uninstall()
    calls, _, _ = tracer.self_times([1.0])
    assert [name for name in TIMED if calls[name] == 0] == []
    assert [name for name in COUNTERS if name != "cli.stdout_bytes" and tracer.counts[name] == 0] == []


def test_permutations_constructed_repeats_exactly():
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            WORKLOADS["frobenius-battery"].run(symsod, Op("module", (4, 2, "regular", ())))
        finally:
            tracer.uninstall()
        counts.append(tracer.counts["symgroup.permutations_constructed"])
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_output_is_stable_across_hash_seeds(workload):
    done = subprocess.run(
        [sys.executable, str(HERE / "stability.py"), "--workload", workload, "--seed", "7"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout)["stable"]


def test_fails_without_the_package_sources():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "oracle-tables", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""

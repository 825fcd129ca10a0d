"""Acceptance criteria that no ``symsod verify`` check covers, one test each.

The others are verify checks, run by ``test_suites.py`` (see README's table):
C02-C04 (the blocks of sym(n, sod(A, B)), sym(n, P1) and hilb(n, blowup(S)))
are ``rewrite:block_law``, C06 (Hilb^n(P2), under 5 s) is
``invariants:phantom_audit`` at l = 1, and C01 and C07-C11 are checks too.

Everything here is exact integer equality; the only tolerances are the
stated wall-clock budgets, which are asserted where required.
"""

import random
import time
from collections import Counter

from symsod.expr import Sym
from symsod.grammar import parse_expr
from symsod.invariants import invariant_report
from symsod.partitions import partition_count, q_length
from symsod.rewrite import expand
from symsod.symgroup import (
    YoungPair,
    induction_invariance_check,
    natural_module,
    random_orbit_module,
    regular_module,
    trivial_module,
    young_subgroup,
)


def _report(criterion: str, description: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {criterion}: {description}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def test_c05_curve_powers():
    def partition_oracle(n):
        def rec(remaining, max_part):
            if remaining == 0:
                yield ()
                return
            for first in range(min(max_part, remaining), 0, -1):
                for rest in rec(remaining - first, first):
                    yield (first,) + rest

        expected = Counter()
        for part in rec(n, n):
            expected[tuple(sorted(Counter(part).values()))] += 1
        return expected

    ok = True
    for g in (0, 1, 2):
        for n in range(1, 13):
            components = expand(parse_expr(f"sym({n}, curve({g}))"))
            if len(components) != partition_count(n):
                ok = False
            got = Counter()
            for comp, mult in components:
                if mult != 1:
                    ok = False
                degrees = tuple(
                    sorted(getattr(f, "degree", 1) for f in comp.factors)
                )
                got[degrees] += 1
            if got != partition_oracle(n):
                ok = False
    for n in range(1, 9):
        report = invariant_report(Sym(n, parse_expr("curve(0)")))
        if report.euler != q_length(n, 2):
            ok = False
    _report(
        "C05",
        "sym(n, curve(g)) has p(n) curve-power components; genus-0 Euler sums to q(n;2)",
        ok,
    )


def test_c12_frobenius_battery_s7():
    start = time.perf_counter()
    rng = random.Random(0)
    failures = []
    checked = 0
    for i in range(8):
        pair = YoungPair(7, i)
        subgroup = young_subgroup(pair)
        battery = [trivial_module(subgroup), natural_module(subgroup, 7), regular_module(subgroup)]
        battery += [random_orbit_module(subgroup, 7, rng) for _ in range(2)]
        for module in battery:
            checked += 1
            if not induction_invariance_check(pair, module):
                failures.append((i, len(module.basis)))
    elapsed = time.perf_counter() - start
    _report(
        "C12",
        "induction/restriction invariant dimensions agree for every Young pair of S_7",
        not failures and checked == 40 and elapsed < 30.0,
        f"{checked} comparisons, failures {failures}; {elapsed:.1f}s",
    )

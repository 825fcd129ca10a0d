"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

C01, C07 and C08-C11 only re-ran a verify suite check, so they run in
``test_suites.py`` with every other check: C01 (the Euler-product identity,
with its 1.0 s budget) is ``test_suite_check[series:eta_euler_product]`` and
C07 (the phantom audit) is ``test_suite_check[invariants:phantom_audit]``.

Everything here is exact integer equality; the only tolerances are the
stated wall-clock budgets, which are asserted where required.
"""

import json
import random
import time
from collections import Counter

from symsod import cli
from symsod.expr import Component, Opaque, Sym, SymPower
from symsod.grammar import parse_expr
from symsod.invariants import invariant_report
from symsod.partitions import partition_count, q_length
from symsod.rewrite import expand
from symsod.series import BettiVector, gottsche_series
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


def cli_json(*argv):
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = cli.main([*argv, "--format", "json"])
    assert status == 0
    return buffer.getvalue()


def test_c02_two_term_sym_shape():
    a, b = Opaque("A"), Opaque("B")
    expected = (
        (Component.of([SymPower(2, a)]), 1),
        (Component.of([a, b]), 1),
        (Component.of([SymPower(2, b)]), 1),
    )
    got = expand(parse_expr("sym(2, sod(A, B))")).entries
    payload = json.loads(cli_json("decompose", "sym(2, sod(A,B))"))
    cli_factors = [c["factors"] for c in payload["components"]]
    ok = got == expected and cli_factors == [["sym^2(A)"], ["A", "B"], ["sym^2(B)"]]
    _report("C02", "sym(2, sod(A,B)) is exactly [Sym^2 A, A*B, Sym^2 B] in order", ok)


def test_c03_projective_line_powers():
    ok = True
    for n in range(1, 11):
        components = expand(parse_expr(f"sym({n}, P1)"))
        if not components.is_purely_exceptional():
            ok = False
        mults = [mult for _, mult in components]
        if mults != [partition_count(n - i) * partition_count(i) for i in range(n + 1)]:
            ok = False
        if components.total_multiplicity() != q_length(n, 2):
            ok = False
    ok = ok and expand(parse_expr("sym(2, P1)")).total_multiplicity() == 5
    _report("C03", "sym(n, P1) gives point blocks p(n-i)p(i), total q(n;2)", ok)


def test_c04_blowup_hilbert_schemes():
    s = Opaque("S")
    ok = True
    for n in range(1, 11):
        components = expand(parse_expr(f"hilb({n}, blowup(S))"))
        expected = Counter()
        for i in range(n + 1):
            if n - i >= 2:
                comp = Component.of([SymPower(n - i, s)])
            elif n - i == 1:
                comp = Component.of([s])
            else:
                comp = Component.of([])
            expected[comp] += partition_count(i)
        if components.as_multiset() != dict(expected):
            ok = False
    n3 = [mult for _, mult in expand(parse_expr("hilb(3, blowup(S))"))]
    ok = ok and n3 == [1, 1, 2, 3]
    _report("C04", "hilb(n, blowup(S)) carries p(i) copies of sym^(n-i)(S)", ok)


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


def test_c06_gottsche_hkr_cross_check():
    start = time.perf_counter()
    series = gottsche_series(BettiVector(1, 0, 1, 0, 1), 10)
    ok = all(series.q_coefficient_at(n, 1) == q_length(n, 3) for n in range(11))
    ok = ok and series.q_coefficient_at(2, 1) == 9 and series.q_coefficient_at(3, 1) == 22
    elapsed = time.perf_counter() - start
    _report(
        "C06",
        "total Betti of Hilb^n(P2) equals q(n;3) for n <= 10",
        ok and elapsed < 5.0,
        f"{elapsed:.3f}s",
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

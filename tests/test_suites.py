"""Every check of every ``symsod verify`` suite, once, at its full ranges.

The suites are the one place each law is checked; this module turns each
check into one test id, ``<suite>:<check>``.  Two checks also carry a
wall-clock budget.
"""

import time

import pytest

from symsod.suites import SUITES

CHECKS = [(suite, check) for suite, checks in SUITES.items() for check in checks]

BUDGETS_S = {"series:eta-euler-product": 1.0, "frobenius:induction-invariance": 60.0}


@pytest.mark.parametrize(
    "suite, check",
    CHECKS,
    ids=[f"{suite}:{check.__name__.removeprefix('_check_')}" for suite, check in CHECKS],
)
def test_suite_check(suite, check):
    start = time.perf_counter()
    result = check(None, 0)
    elapsed = time.perf_counter() - start
    assert result.suite == suite
    assert result.ok, result.detail
    budget = BUDGETS_S.get(f"{result.suite}:{result.name}")
    assert budget is None or elapsed < budget, f"{elapsed:.2f}s over the {budget}s budget"

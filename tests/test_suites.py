"""Every check of every ``symsod verify`` suite, once, at its full ranges.

The suites are the one place each law is checked; this module turns each
check into one test id, ``<suite>:<check>``, the registered name that
``verify`` prints with its hyphens spelled as underscores, so the ids stay
those this suite has always used.  Two checks also carry a wall-clock budget.
"""

import time

import pytest

from symsod.suites import SUITES

CHECKS = {
    f"{suite}:{name.replace('-', '_')}": check
    for suite, checks in SUITES.items()
    for name, check in checks.items()
}

BUDGETS_S = {"series:eta-euler-product": 1.0, "frobenius:induction-invariance": 60.0}


@pytest.mark.parametrize("check_id", CHECKS)
def test_suite_check(check_id):
    start = time.perf_counter()
    result = CHECKS[check_id](None, 0)
    elapsed = time.perf_counter() - start
    name = f"{result.suite}:{result.name}"
    assert name.replace("-", "_") == check_id
    assert result.ok, result.detail
    budget = BUDGETS_S.get(name)
    assert budget is None or elapsed < budget, f"{elapsed:.2f}s over the {budget}s budget"

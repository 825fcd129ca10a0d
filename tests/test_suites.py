"""Every check of every ``symsod verify`` suite, once, at its full ranges.

The suites are the one place each law is checked; this module turns each
check into one test id, ``<suite>:<check>``, the registered name that
``verify`` prints with its hyphens spelled as underscores, so the ids stay
those this suite has always used.  Three checks also carry a wall-clock
budget.  The last test keeps README's table of acceptance criteria pointing
at test ids that exist.
"""

import ast
import re
import time
from pathlib import Path

import pytest

from symsod.suites import SUITES

CHECKS = {
    f"{suite}:{name.replace('-', '_')}": check
    for suite, checks in SUITES.items()
    for name, check in checks.items()
}

BUDGETS_S = {"series:eta-euler-product": 1.0, "frobenius:induction-invariance": 60.0,
             "invariants:phantom-audit": 5.0}


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


ROOT = Path(__file__).resolve().parents[1]


def test_readme_criteria_table_names_live_test_ids():
    readme = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| (C\d\d) [^|]*\| `([^`]+)` \|$", readme, re.M)
    assert [criterion for criterion, _ in rows] == [f"C{k:02d}" for k in range(1, 13)]
    for criterion, test_id in rows:
        path, function = test_id.split("::")
        check = re.fullmatch(r"test_suite_check\[(.+)\]", function)
        if check:
            assert path == "tests/test_suites.py" and check[1] in CHECKS, (criterion, test_id)
        else:
            tree = ast.parse((ROOT / path).read_text())
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert function in defined, (criterion, test_id)

import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "symsod"

# names a module imports only to pass on: grammar re-exports render_text,
# as its docstring says (``__init__.py`` is skipped as a whole)
REEXPORTS = {("grammar.py", "render_text")}


def _unread_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """The names a module's imports bind but no expression reads, with their lines."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(name, line) for name, line in imported.items() if name not in read]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_every_imported_name_is_read(module):
    tree = ast.parse((PACKAGE / module).read_text())
    unread = [(name, line) for name, line in _unread_imports(tree)
              if (module, name) not in REEXPORTS]
    assert not unread, f"{module} imports names it never reads (name, line): {unread}"


def test_the_check_sees_an_unread_import():
    tree = ast.parse("import itertools\nimport math\nfrom .x import y as z\nmath.pi\n")
    assert _unread_imports(tree) == [("itertools", 1), ("z", 3)]


def _names(tree: ast.Module) -> set[str]:
    """Every name a module binds or reads, as a variable, an import, a def or an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.asname or alias.name.rpartition(".")[2] for alias in node.names)
    return found


def test_only_expr_names_sort_key():
    # ComponentList lays out an expansion's atom table by sort_key; no other
    # module ranks atoms, so the layout has one home
    assert _names(ast.parse("from .expr import sort_key as k\nx.sort_key\n")) >= {"k", "sort_key"}
    users = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if "sort_key" in _names(ast.parse(path.read_text()))]
    assert users == ["expr.py"]


def _function_imports(tree: ast.Module) -> set[tuple[str, str]]:
    """(function name, imported module) for each import inside a function body."""
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    found.add((fn.name, "." * node.level + (node.module or "")))
                elif isinstance(node, ast.Import):
                    found.update((fn.name, alias.name) for alias in node.names)
    return found


def test_the_only_function_level_imports_are_the_lazy_suite_loads():
    # a function-level import hides an import cycle between layers; the two
    # allowed ones keep symsod.suites unloaded until verify or run_suites
    assert _function_imports(ast.parse("def f():\n    import math\n")) == {("f", "math")}
    found = {
        (path.name, *site)
        for path in sorted(PACKAGE.glob("*.py"))
        for site in _function_imports(ast.parse(path.read_text()))
    }
    assert found == {
        ("__init__.py", "__getattr__", ".suites"),
        ("cli.py", "_cmd_verify", ".suites"),
    }


_PROBE = """
import sys
import symsod.cli
symsod.cli.build_parser()
print(sorted(m for m in ("dataclasses", "symsod.suites", "symsod.symgroup") if m in sys.modules))
from symsod import run_suites
print(all(result.ok for result in run_suites("combinatorics", max_n=3)))
sys.exit(symsod.cli.main(["verify", "--suite", "combinatorics", "--max-n", "3"]))
"""


def test_the_cli_imports_no_dataclasses_and_loads_the_suites_only_for_verify():
    # a fresh interpreter: building the parser leaves dataclasses and the suites
    # unloaded, and the S_n layer loaded; run_suites and verify still load them
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["['symsod.symgroup']", "True"], proc.stderr
    assert proc.returncode == 0 and lines[-1] == "passed 3/3 checks", proc.stdout


# Every package-private name a test reads, imports, patches or names as a
# mutation target (tests/test_mutants.py), with why it may: a benchmark hook,
# the independence of two oracles, or the mutant that only its test kills.
# Anything else reaches the package through its public names.
PRIVATE_NAMES = {
    "invariants._hilb_poincare_value": "bench hook: bench/run.py drains and counts the law's cache",
    "partitions._P_TABLE": "bench hook: bench/run.py drains it",
    "partitions._Q_CACHE": "bench hook: bench/run.py drains it; also cold for oracle independence",
    "partitions._law_rows": "only its spies kill q_length rebuilding a cached row or a wrong label",
    "series._law_rows": "oracle independence: the law's bound only sizes Goettsche's digits",
    "series._rows": "oracle independence: the law and q_length never run the binomial kernel",
    "rewrite._top_blocks": "mutation row: head-first's fusion, which only one check compares",
    "symgroup._check_relations": "only its spy kills re-checking the relations of one coset",
    "symgroup._coxeter_matrix": "independent oracle: Todd-Coxeter certifies the relators",
    "symgroup._orbit": "only its spy kills module construction walking orbits of the group list",
}
TESTS = pathlib.Path(__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private_names(tree: ast.Module) -> set[str]:
    """``module._name`` for each package-private name the tree reads as an attribute of
    a symsod module or class, imports, patches with ``setattr`` or spells in a string."""
    bound = {"symsod": ""}  # local name -> the module or module.Class it stands for
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("symsod"):
            module = node.module.removeprefix("symsod").lstrip(".")
            for alias in node.names:
                name = bound[alias.asname or alias.name] = f"{module}.{alias.name}".lstrip(".")
                if module and alias.name.startswith("_"):
                    found.add(name)

    def owner(node):
        if isinstance(node, ast.Attribute) and owner(node.value) == "":
            return node.attr
        return bound.get(node.id) if isinstance(node, ast.Name) else None

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "setattr" and node.args:
            target, *rest = node.args  # monkeypatch.setattr(target, "name", value)
            node = ast.Attribute(target, getattr(rest[0], "value", None) if rest else None)
        if isinstance(node, ast.Attribute) and isinstance(node.attr, str) and owner(node.value):
            if node.attr.startswith("_") and not node.attr.startswith("__"):
                found.add(f"{owner(node.value)}.{node.attr}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            module, _, name = node.value.partition(".")
            if module in MODULES and name.startswith("_") and name.isidentifier():
                found.add(node.value)
    return found


def test_the_scan_sees_each_kind_of_private_reference():
    tree = ast.parse("import symsod\nfrom symsod import rewrite as r\n"
                     "from symsod.series import _rows\nfrom symsod.symgroup import Permutation\n"
                     "r._a, symsod.cli._b, Permutation._c, r.__name__\n"
                     "m.setattr(r, '_d', 0)\nx = 'symgroup._e', 'symsod._f'\n")
    assert _private_names(tree) == {"series._rows", "rewrite._a", "cli._b",
                                    "symgroup.Permutation._c", "rewrite._d", "symgroup._e"}


def test_tests_reach_private_names_only_where_allowed():
    found = set()
    for path in sorted(TESTS.glob("*.py")):
        if path.name != pathlib.Path(__file__).name:
            found |= _private_names(ast.parse(path.read_text()))
    assert found == set(PRIVATE_NAMES)

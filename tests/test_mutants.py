"""Every ``symsod verify`` check fails on a mutant of what it guards (mutation testing:
DeMillo, Lipton and Sayward, "Hints on test data selection", 1978).

A row is a check (``suite:name``), the ``symsod`` module attribute that the check
reaches (``suites.gottsche_series``, ``rewrite.partition_count``) and its mutant, a
function of the real attribute that returns the replacement.  ``SURVIVORS`` are
mutants a check must pass: they mark what it does not guard.
"""

import importlib
import math
import types

import pytest

from symsod import invariants
from symsod.expr import POINT, Bullet, ComponentList
from symsod.suites import SUITES
from symsod.symgroup import young_subgroup


def _after(change):
    """The mutant that applies ``change`` to each result of the real attribute."""
    return lambda real: lambda *args: change(real(*args))


# Hilb^1's row: one unit of z^2 moved to z^1 keeps the total Betti number and
# drops the Euler number; two zeros at each end keep both and a palindrome, 9 long
_MOVED = _after(lambda rows: [rows[0], [c + d for c, d in zip(rows[1], (0, 1, -1, 0, 0))],
                               *rows[2:]])
_PADDED = _after(lambda rows: [rows[0], [0, 0, *rows[1], 0, 0], *rows[2:]])
_RULED_B2 = _after(lambda b: type(b)(b.b0, b.b1, b.b2 + 1, b.b3, b.b4))  # a class too many


def _longer_reps(real):
    # each representative but the identity times the longest element of the
    # subgroup: the same cosets, but not the lex-minimal representatives
    return lambda y: [r if k == 0 else r * young_subgroup(y)[-1] for k, r in enumerate(real(y))]


def _r2(real):
    return lambda n: real(n) + (n == 3)  # sym(3, pt) has p(3) + 1 points


ROWS = [
    ("combinatorics:partition-counts", "suites.multiplicity_vectors",
     lambda real: lambda n: real(n)[1:] if n == 2 else real(n)),  # a dropped vector
    ("combinatorics:partition-counts", "suites.partitions_of", _after(lambda parts: parts[::-1])),
    ("combinatorics:q-recurrence", "suites.q_length",
     lambda real: lambda n, l: real(n, min(l, 3))),  # rows of l = 3 answer for every l > 3
    ("combinatorics:exact-integers", "suites.partition_count", _after(lambda p: p & 0xFFFFFF)),
    ("series:eta-euler-product", "series.math",  # the binomial kernel's C(e, 2) off by one
     lambda real: types.SimpleNamespace(comb=lambda e, j: math.comb(e, j) + (j == 2))),
    ("series:gottsche-euler", "suites.gottsche_series", _MOVED),
    ("series:gottsche-palindromic", "suites.gottsche_series", _MOVED),
    ("series:gottsche-palindromic", "suites.gottsche_series", _PADDED),
    ("symgroup:class-counts", "symgroup.class_table",
     _after(lambda classes: [(shapes, word, 2 * size) for shapes, word, size in classes])),
    ("symgroup:coset-reps", "symgroup.young_coset_reps", _longer_reps),
    ("frobenius:induction-invariance", "symgroup.young_coset_reps", _longer_reps),
    ("frobenius:induction-invariance", "symgroup.invariant_dimension",  # one invariant too many
     lambda real: lambda m: real(m) + (len(m.basis) > 6)),
    ("catexpr:canonical-idempotent", "suites.canonicalize",  # a bullet gains a point unit
     _after(lambda c: Bullet((*c.factors, POINT)) if isinstance(c, Bullet) else c)),
    ("catexpr:bullet-shuffle", "expr.sort_key",  # factors of one kind keep the order given
     _after(lambda key: key[:1])),
    ("catexpr:preset-betti", "expr.surface_literal",  # a blow-up loses its base's b2 class
     lambda real: lambda b: real(type(b)(b.b0, b.b1, b.b2 - 1, b.b3, b.b4))),
    ("rewrite:count-law", "rewrite.partition_count", _r2),
    ("rewrite:count-law", "rewrite.multiplicity_vectors",  # R3 drops a component
     _after(lambda vectors: vectors[:-1] if len(vectors) > 1 else vectors)),
    ("rewrite:block-law", "rewrite.partition_count", _r2),
    ("rewrite:block-law", "rewrite.expand",  # the blocks listed last block first
     _after(lambda c: ComponentList(c.atoms, c.components, c.pairs[::-1]))),
    ("rewrite:bracketing-independence", "rewrite._top_blocks",  # head-first drops the rest's atoms
     lambda real: lambda head, first, rest, n: real(head, first, [
         [((), mult) for _, mult in row] for row in rest], n)),
    ("invariants:goettsche-two-path", "invariants.sym_power_totals",  # the law's sym^2 euler
     _after(lambda rows: tuple((e + (n == 2), h) for n, (e, h) in enumerate(rows)))),
    ("invariants:goettsche-two-path", "expr.ruled_betti", _RULED_B2),
    ("invariants:goettsche-two-path", "invariants.macdonald_poincare",
     _after(lambda row: [row[0] + 1, *row[1:]])),
    ("invariants:phantom-audit", "invariants.q_length",
     lambda real: lambda n, l: real(n, l + 1)),  # the phantom counted as a point
    ("roundtrip:parse-render", "grammar.make_preset",  # the parts of a sod read backwards
     lambda real: lambda name, *args: real(name, *(args[::-1] if name == "sod" else args))),
]

# R2 runs in both bracketings; preset-betti reads no preset's b2
SURVIVORS = [("rewrite:bracketing-independence", "rewrite.partition_count", _r2),
             ("catexpr:preset-betti", "expr.ruled_betti", _RULED_B2)]


@pytest.fixture(autouse=True)
def cold_law_cache():
    # the law's values are cached: a mutant must not read real ones, nor leave its own
    invariants._hilb_poincare_value.cache_clear()
    yield
    invariants._hilb_poincare_value.cache_clear()


@pytest.mark.parametrize("check, target, mutant, survives",
                         [(*row, False) for row in ROWS] + [(*row, True) for row in SURVIVORS],
                         ids=[f"{c}-{t}" for c, t, _ in ROWS + SURVIVORS])
def test_mutant_fails_its_check_unless_it_survives(monkeypatch, check, target, mutant, survives):
    module, attribute = target.split(".")
    owner = importlib.import_module(f"symsod.{module}")
    monkeypatch.setattr(owner, attribute, mutant(getattr(owner, attribute)))
    suite, name = check.split(":")
    result = SUITES[suite][name](None, 0)  # at its full ranges, seed 0
    assert result.ok == survives, result.detail


def test_every_check_has_a_mutant_row():
    registered = {f"{suite}:{name}" for suite, checks in SUITES.items() for name in checks}
    assert {check for check, _, _ in ROWS} == registered

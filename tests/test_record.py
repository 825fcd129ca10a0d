import copy
import pickle
import typing

import pytest

from symsod import expr
from symsod._record import Record
from symsod.expr import (
    PHANTOM,
    POINT,
    Bullet,
    Component,
    ComponentList,
    Curve,
    Opaque,
    Sod,
    Sym,
    SymCurve,
    SymPower,
    surface_literal,
)
from symsod.invariants import invariant_report, phantom_audit
from symsod.rewrite import expand
from symsod.series import BettiVector
from symsod.suites import CheckResult
from symsod.symgroup import (
    Permutation,
    YoungPair,
    induction_invariance_check,
    trivial_module,
    young_subgroup,
)

_A = "Opaque(name='A', euler=None, hh=None)"
PAIR = YoungPair(2, 1)

# one value of every record class, with the repr its frozen dataclass had
# (Permutation keeps its own short form)
SAMPLES = [
    (POINT, "Point()"),
    (PHANTOM, "Phantom()"),
    (Curve(2), "Curve(genus=2)"),
    (SymCurve(1, 3), "SymCurve(genus=1, degree=3)"),
    (
        surface_literal(BettiVector(1, 0, 1, 0, 1)),
        "Surface(name='surface(1,0,1,0,1)', betti=BettiVector(b0=1, b1=0, b2=1, b3=0, b4=1))",
    ),
    (Opaque("A", 1, 3), "Opaque(name='A', euler=1, hh=3)"),
    (SymPower(2, Opaque("A")), f"SymPower(arity=2, base={_A})"),
    (Sod((POINT, Curve(1))), "Sod(parts=(Point(), Curve(genus=1)))"),
    (Bullet((Curve(1), Opaque("A"))), f"Bullet(factors=(Curve(genus=1), {_A}))"),
    (Sym(3, Sod((POINT, POINT))), "Sym(arity=3, inner=Sod(parts=(Point(), Point())))"),
    (Component.of([Opaque("A"), Curve(1)]), f"Component(factors=(Curve(genus=1), {_A}))"),
    (
        # no distinct or counts: they are worked out from the table and the pairs
        expand(Sod((POINT, Opaque("A")))),
        f"ComponentList(atoms=(Point(), {_A}), components=((0,), (1,)), pairs=((0, 1), (1, 1)))",
    ),
    (BettiVector(1, 2, 3, 2, 1), "BettiVector(b0=1, b1=2, b2=3, b3=2, b4=1)"),
    (
        invariant_report(Curve(1)),
        "InvariantReport(euler=0, hh_total=4, exceptional_length=None, expansion=ComponentList("
        "atoms=(Curve(genus=1),), components=((0,),), pairs=((0, 1),)), values=((0, 4),))",
    ),
    (phantom_audit(1, 1).rows[0], "PhantomAuditRow(n=1, hilb_total_betti=3, q_value=3)"),
    (
        phantom_audit(1, 1),
        "PhantomAuditReport(l=1, n_max=1, rows=(PhantomAuditRow(n=1, hilb_total_betti=3, "
        "q_value=3),))",
    ),
    (Permutation((2, 1)), "Permutation(2, 1)"),
    (YoungPair(3, 1), "YoungPair(n=3, i=1)"),
    (
        induction_invariance_check(PAIR, trivial_module(young_subgroup(PAIR))),
        "InductionReport(ok=True, pair=YoungPair(n=2, i=1), induced_invariant_dim=1, "
        "subgroup_invariant_dim=1, induced_basis_size=2)",
    ),
    (CheckResult("s", "c", True, "d"), "CheckResult(suite='s', name='c', ok=True, detail='d')"),
]
VALUES = [value for value, _ in SAMPLES]


def _leaves(cls: type) -> set[type]:
    """The record classes below ``cls`` that no record class extends."""
    below = cls.__subclasses__()
    return set().union(*map(_leaves, below)) if below else {cls}


def test_every_record_class_has_a_sample():
    assert _leaves(Record) == {type(value) for value in VALUES}


def test_every_leaf_expression_class_but_the_composites_is_an_atom():
    # a new atom class left out of the Atom union would fail isinstance(e, Atom)
    expressions = {cls for cls in _leaves(Record) if cls.__module__ == "symsod.expr"}
    expressions -= {Component, ComponentList}
    assert expressions == set(typing.get_args(expr.CatExpr))
    assert expressions - {Sod, Bullet, Sym} == set(typing.get_args(expr.Atom))
    assert isinstance(POINT, expr.Atom) and not isinstance(Sym(2, POINT), expr.Atom)


@pytest.mark.parametrize("value, shown", SAMPLES, ids=[type(v).__name__ for v in VALUES])
def test_record_semantics(value, shown):
    cls = type(value)
    assert repr(value) == shown
    rebuilt = cls(*[getattr(value, name) for name in cls._fields])
    assert rebuilt == value and hash(rebuilt) == hash(value) and not rebuilt != value
    assert all(value != other for other in VALUES if other is not value)  # Point() != Phantom()
    assert value != object() and value != tuple(map(value.__getattribute__, cls._fields))
    for name in cls._fields:  # every field takes part in equality
        variant = object.__new__(cls)
        for other in cls.__slots__:
            object.__setattr__(variant, other, object() if other == name else getattr(value, other))
        assert variant != value, name
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is cls and copied == value and hash(copied) == hash(value)
    for name in cls._fields or ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == shown
    assert not hasattr(value, "__dict__")


def test_a_record_takes_exactly_its_fields():
    with pytest.raises(TypeError):
        YoungPair(3)
    with pytest.raises(TypeError):
        CheckResult("s", "c", True)

import os
import pickle
import random
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import symsod
from symsod.expr import (
    Bullet,
    CatExpr,
    Component,
    ComponentList,
    Curve,
    InternalInvariantError,
    Opaque,
    PHANTOM,
    POINT,
    Sod,
    Surface,
    Sym,
    SymCurve,
    SymPower,
    betti_of,
    blowup,
    canonicalize,
    is_surface_like,
    make_preset,
    sort_key,
    surface_literal,
)
from symsod.grammar import parse_expr, render_text
from symsod.rewrite import expand, expand_tail_first
from symsod.series import BettiVector
from symsod.suites import gen_random_expr


def test_canonicalize_keeps_point_products():
    e = Bullet((POINT, POINT))
    assert canonicalize(e) == Bullet((POINT, POINT))


def test_canonicalize_sorts_bullet_factors():
    a = Bullet((Curve(2), POINT))
    b = Bullet((POINT, Curve(2)))
    assert canonicalize(a) == canonicalize(b) == Bullet((POINT, Curve(2)))


def test_canonicalize_flattens_sods_in_order():
    a, b, c = Opaque("A"), Opaque("B"), Opaque("C")
    assert canonicalize(Sod((Sod((a, b)), c))) == Sod((a, b, c))


def test_canonicalize_unwraps_singletons():
    assert canonicalize(Bullet((Curve(1),))) == Curve(1)
    assert canonicalize(Sod((Curve(1),))) == Curve(1)


def test_sort_key_has_one_key_per_expression_class():
    # the kinds the docstring orders: point < curve < sym-curve < surface <
    # phantom < opaque < sym-power < sod < bullet < sym
    samples = [POINT, Curve(1), SymCurve(1, 2), surface_literal(BettiVector(1, 0, 1, 0, 1)),
               PHANTOM, Opaque("A"), SymPower(2, PHANTOM), Sod((POINT, PHANTOM)),
               Bullet((Curve(1), PHANTOM)), Sym(2, PHANTOM)]
    assert {type(e) for e in samples} == set(typing.get_args(CatExpr))
    assert [sort_key(e)[0] for e in samples] == list(range(10))
    for other in (3, None, Component.of([Curve(1)]), BettiVector(1, 0, 1, 0, 1)):
        with pytest.raises(TypeError, match="not a CatExpr"):
            sort_key(other)


def test_component_drops_point_units():
    c = Component.of([POINT, Curve(1), POINT])
    assert c.factors == (Curve(1),)
    assert Component.of([POINT, POINT]).factors == Component.of([]).factors == (POINT,)


# positions 0 and 1 of this table are the point and curve(1)
_TABLE = (POINT, Curve(1))


def test_component_list_counts_and_checks_in_one_pass():
    curve, point = Component.of([Curve(1)]), Component.of([])
    components = ComponentList(_TABLE, ((1,), (0,)), ((0, 2), (1, 3), (0, 1)))
    assert components.distinct == (curve, point)
    assert components.counts == (3, 3)
    assert list(components) == [(curve, 2), (point, 3), (curve, 1)]
    assert len(components) == 3
    assert components.as_multiset() == {curve: 3, point: 3}
    assert list(components.as_multiset()) == [curve, point]  # first appearance
    assert components.total_multiplicity() == 6
    # every call returns a fresh dict: mutating one changes neither the next
    # call's result nor the totals (suites compare these dicts)
    counts = components.as_multiset()
    counts[curve] = 100
    del counts[point]
    assert components.as_multiset() == {curve: 3, point: 3}
    assert components.total_multiplicity() == 6
    assert ComponentList().as_multiset() == {}
    assert len(ComponentList()) == ComponentList().total_multiplicity() == 0


@pytest.mark.parametrize(
    "distinct, pairs, message",
    [
        ((0, 1), ((0, 1), (1, 0)), "multiplicity must be >= 1"),
        ((0, 1), ((0, 1), (1, -2)), "multiplicity must be >= 1"),
        ((0, 1), ((0, 1), (-1, 1)), r"entry index -1 outside 0\.\.1"),  # would wrap around
        ((0, 1), ((0, 1), (2, 1)), r"entry index 2 outside 0\.\.1"),
        ((), ((0, 1),), r"entry index 0 outside 0\.\.-1"),
        ((0, 1), ((0, 4),), "no entry uses pt"),  # would show up with count 0
        ((0, 1, 0), ((0, 1), (1, 1), (2, 1)), "a distinct component repeats"),  # would drop counts
    ],
)
def test_component_list_rejects_a_wrong_layout(distinct, pairs, message):
    made = ((1,), (0,))  # curve(1) and the point, as positions into _TABLE
    with pytest.raises(InternalInvariantError, match=message):
        ComponentList(_TABLE, tuple(made[i] for i in distinct), pairs)


_X0, _X1 = Opaque("X", 0, 2), Opaque("X", 1, 3)  # tied in the sort order


@pytest.mark.parametrize(
    "atoms, components, message",
    [
        (_TABLE, ((0,), (2,)), r"component \(2,\) outside 0\.\.1"),
        (_TABLE, ((-1,),), r"component \(-1,\) outside 0\.\.1"),  # would wrap around
        (_TABLE, ((),), r"atom pt repeats"),  # () appends a second point to this table
        ((Curve(1), Curve(1)), ((0,), (1,)), r"atom curve\(1\) repeats"),
        ((_X0, _X1, _X0), ((0,), (1,), (2,)), "atom X repeats"),  # in a run of equal keys
        ((Component.of([Curve(1)]),), ((0,),), "atom table entry is not an atom"),
        ((Sod((POINT, POINT)),), ((0,),), "atom table entry is not an atom"),
        (_TABLE, ((0, 1),), r"component \(0, 1\) holds the point"),
        (_TABLE, ((0, 0),), r"component \(0, 0\) holds the point"),
    ],
)
def test_component_list_rejects_a_wrong_table(atoms, components, message):
    pairs = tuple((index, 1) for index in range(len(components)))
    with pytest.raises(InternalInvariantError, match=message):
        ComponentList(atoms, components, pairs)


@pytest.mark.parametrize(
    "atoms, components, laid_atoms, laid_components",
    [
        ((POINT, Curve(1), Curve(2)), ((2, 1),), (POINT, Curve(1), Curve(2)), ((1, 2),)),
        ((Curve(1), POINT), ((0,), (1,)), _TABLE, ((1,), (0,))),
        ((Curve(2), Curve(1)), ((0, 1),), (Curve(1), Curve(2)), ((0, 1),)),
        ((Curve(1),), ((),), _TABLE, ((0,),)),  # () is the point, the empty product
        ((_X1, _X0), ((1,), (0,)), (_X1, _X0), ((1,), (0,))),  # a tie keeps its order
        ((Curve(2), _X0, Curve(1), _X1), ((2, 0), (), (3,), (1, 2)),
         (POINT, Curve(1), Curve(2), _X0, _X1), ((1, 2), (0,), (4,), (1, 3))),
    ],
)
def test_component_list_lays_out_its_table(atoms, components, laid_atoms, laid_components):
    # the constructor sorts the table, appends the point for () and maps each
    # component to positions; the laid-out fields build the same list again
    pairs = tuple((index, index + 1) for index in range(len(components)))
    given = ComponentList(atoms, components, pairs)
    laid = ComponentList(laid_atoms, laid_components, pairs)
    assert (given.atoms, given.components) == (laid_atoms, laid_components)
    assert given == laid and hash(given) == hash(laid) and repr(given) == repr(laid)
    assert (given.distinct, given.counts, list(given)) == (laid.distinct, laid.counts, list(laid))
    copied = pickle.loads(pickle.dumps(given))
    assert copied == laid and repr(copied) == repr(laid)


@pytest.mark.parametrize("engine", [expand, expand_tail_first])
def test_distinct_components_are_their_positions_in_the_table(engine):
    # the expansions of test_golden's random corpus: each distinct component
    # holds the table's atoms at its positions, and every atom of the table is used
    rng = random.Random(0)
    for _ in range(500):
        expansion = engine(gen_random_expr(rng, 3))
        atoms, components = expansion.atoms, expansion.components
        for comp, positions in zip(expansion.distinct, components, strict=True):
            assert comp.factors == tuple(atoms[p] for p in positions)
        assert set().union(*components) == set(range(len(atoms)))
        assert list(atoms) == sorted(atoms, key=sort_key)


def _run_with_hash_seed(seed: int, code: str, stdin: bytes = b"") -> bytes:
    src = str(Path(symsod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


_MAKE = (
    "from symsod.expr import Component, Curve, Opaque\n"
    "c = Component.of([Opaque('X'), Curve(1)])\n"
)


def test_component_pickled_under_one_hash_seed_is_found_under_another():
    # string hashes, and so the hash a Component caches, differ between seeds
    pickled = _run_with_hash_seed(
        1, _MAKE + "import pickle, sys\nsys.stdout.buffer.write(pickle.dumps(c))\n"
    )
    checked = _run_with_hash_seed(
        2,
        _MAKE
        + "import pickle, sys\n"
        + "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        + "assert loaded == c and hash(loaded) == hash(c), (hash(loaded), hash(c))\n"
        + "assert {c: 'found'}[loaded] == {loaded: 'found'}[c] == 'found'\n"
        + "print('ok')\n",
        pickled,
    )
    assert checked == b"ok\n"


def test_presets_p1_p2():
    assert make_preset("P1") == Sod((POINT, POINT))
    assert make_preset("P2") == Sod((POINT, POINT, POINT))


def test_preset_fake_plane():
    e = make_preset("fakeP2", 1)
    assert e == Sod((POINT, POINT, POINT, PHANTOM))
    assert betti_of(e) == BettiVector(1, 0, 1, 0, 1)
    with pytest.raises(ValueError):
        make_preset("fakeP2", 0)


def test_preset_ruled():
    e = make_preset("ruled", 2)
    assert e == Sod((Curve(2), Curve(2)))
    assert betti_of(e) == BettiVector(1, 4, 2, 4, 1)


def test_preset_blowup_of_plane():
    e = make_preset("blowup", make_preset("P2"))
    head, tail = e.parts
    assert tail == POINT
    assert isinstance(head, Surface)
    assert head.betti == BettiVector(1, 0, 1, 0, 1)
    assert betti_of(e) == BettiVector(1, 0, 2, 0, 1)


def test_blowup_keeps_opaque_base():
    e = blowup(Opaque("S"))
    assert e == Sod((Opaque("S"), POINT))
    assert betti_of(e) is None


def test_blowup_rejects_non_surface():
    with pytest.raises(ValueError):
        blowup(Curve(2))


def test_surface_literal_requires_duality():
    with pytest.raises(ValueError):
        surface_literal(BettiVector(1, 2, 3, 4, 5))
    s = surface_literal(BettiVector(1, 0, 3, 0, 1))
    assert s.name == "surface(1,0,3,0,1)"


def test_is_surface_like():
    assert is_surface_like(make_preset("P2"))
    assert is_surface_like(make_preset("ruled", 0))
    assert is_surface_like(make_preset("fakeP2", 3))
    assert is_surface_like(blowup(Opaque("S")))
    assert is_surface_like(surface_literal(BettiVector(1, 0, 1, 0, 1)))
    assert not is_surface_like(POINT)
    assert not is_surface_like(make_preset("P1"))
    assert not is_surface_like(Opaque("S"))


def test_hilb_preset_is_sym_sugar():
    e = make_preset("hilb", 3, make_preset("P2"))
    assert e == Sym(3, make_preset("P2"))
    with pytest.raises(ValueError):
        make_preset("hilb", 3, make_preset("P1"))


def test_unknown_preset():
    with pytest.raises(ValueError):
        make_preset("P3")


@pytest.mark.parametrize(
    "build",
    [
        lambda: Sym(2.0, Sod((Opaque("A"), POINT))),
        lambda: Sym(True, Opaque("A")),
        lambda: Curve(1.5),
        lambda: Curve(False),
        lambda: SymCurve(1, 2.0),
        lambda: SymCurve(True, 2),
        lambda: SymPower(3.0, Opaque("A")),
        lambda: SymPower(True, Opaque("A")),
    ],
    ids=["sym-float", "sym-bool", "curve-float", "curve-bool", "symcurve-float", "symcurve-bool",
         "sympower-float", "sympower-bool"],
)
def test_natural_number_fields_reject_bool_and_float(build):
    # a bool or float arity, genus or degree used to build, then die in the walk
    # or render a text (sym(True, A), curve(1.5)) that the parser refuses
    with pytest.raises(ValueError, match="integer"):
        build()


def test_natural_number_fields_accept_plain_ints():
    for e in (Sym(2, Sod((Opaque("A"), POINT))), Sym(0, Curve(0)), Curve(3)):
        assert parse_expr(render_text(e)) == e
    assert (SymCurve(1, 0).degree, SymPower(2, Curve(1)).arity) == (0, 2)
    with pytest.raises(ValueError, match="non-negative integer"):
        make_preset("sym", True, Opaque("A"))


def test_surface_atom_enforces_duality():
    with pytest.raises(ValueError):
        Surface("bad", BettiVector(1, 2, 0, 0, 1))
    # an empty name would render as nothing, and a tuple's report raised AttributeError
    for name, betti in (("", BettiVector(1, 0, 1, 0, 1)), ("S", (1, 0, 1, 0, 1)), ("S", None)):
        with pytest.raises(ValueError, match="surface atom needs"):
            Surface(name, betti)


@pytest.mark.parametrize(
    "euler, hh",
    [(3, 1), (-3, 1), (2, 3), (0, 1), (None, -1), (1.0, 3), (True, 3), ("1", "3"), (1, 3.0)],
)
def test_opaque_rejects_invariants_no_category_has(euler, hh):
    # hh is the sum of the Hochschild dimensions and euler their alternating
    # sum, so hh >= |euler| with the same parity, and hh >= 0 on its own; both
    # are int or None (1.0 was reported as the float 1.0, "1" raised TypeError)
    with pytest.raises(ValueError, match=f"euler={euler!r} and hh={hh!r}"):
        Opaque("A", euler=euler, hh=hh)


@pytest.mark.parametrize("euler, hh", [(7, 9), (3, 5), (-2, 2), (0, 0), (None, 0), (-5, None)])
def test_opaque_accepts_invariants_some_category_has(euler, hh):
    atom = Opaque("A", euler=euler, hh=hh)
    assert (atom.euler, atom.hh) == (euler, hh)


def test_blowup_stays_atomic_under_expansion():
    components = expand(blowup(make_preset("P2")))
    assert len(components) == 2
    head = tuple(components)[0][0].factors[0]
    assert isinstance(head, Surface)

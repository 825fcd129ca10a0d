import itertools
import math
import random
from collections import Counter

import pytest

from symsod import cli, rewrite
from symsod.expr import (
    Bullet,
    Component,
    ComponentList,
    Curve,
    InternalInvariantError,
    Opaque,
    PHANTOM,
    POINT,
    Sod,
    Sym,
    SymCurve,
    SymPower,
    canonicalize,
    sort_key,
    surface_literal,
)
from symsod.grammar import parse_expr, render_text
from symsod.invariants import invariant_report
from symsod.partitions import q_length
from symsod.rewrite import expand, expand_tail_first
from symsod.series import BettiVector
from symsod.suites import gen_random_expr

A, B, C, X = Opaque("A"), Opaque("B"), Opaque("C"), Opaque("X")
O24 = Opaque("O", 2, 4)  # declared euler and hh
S3 = surface_literal(BettiVector(1, 0, 3, 0, 1))


def point_entry(mult):
    return (Component.of([]), mult)


def test_expand_atoms_and_trivial_sym():
    assert tuple(expand(POINT)) == (point_entry(1),)
    assert tuple(expand(Sym(0, A))) == (point_entry(1),)
    assert tuple(expand(Sym(1, A))) == ((Component.of([A]), 1),)
    a_then_b = ((Component.of([A]), 1), (Component.of([B]), 1))
    assert tuple(expand(Sym(1, Sod((A, B))))) == tuple(expand(Sod((A, B)))) == a_then_b


def test_expand_sym2_of_curve():
    components = expand(Sym(2, Curve(1)))
    assert tuple(components) == (
        (Component.of([SymCurve(1, 2)]), 1),
        (Component.of([Curve(1)]), 1),
    )


def test_bullet_over_sods_expands_like_the_flat_sod():
    # R4 distributes over the first SOD, then each part over the second
    nested = expand(parse_expr("sym(2, bullet(sod(A, B, C), sod(D, E)))"))
    parts = ", ".join(f"bullet({x}, {y})" for x in "ABC" for y in "DE")
    flat = expand(parse_expr(f"sym(2, sod({parts}))"))
    assert len(nested) == 21
    assert tuple(nested) == tuple(flat)


def test_nested_sym_power_base_is_the_parsed_canonical_inner():
    # R7 keeps a nested sym(k >= 2, -) base as parsed: its bullet is not distributed
    inner = "sym(2, bullet(sod(A, B, C), sod(D, E)))"
    ((component, _),) = expand(parse_expr(f"sym(2, {inner})"))
    (atom,) = component.factors
    assert atom == SymPower(2, parse_expr(inner))
    assert parse_expr(render_text(atom.base)) == atom.base


def test_product_and_blocks_are_the_literal_product():
    # a bullet's entries are the products of its factors' entries, the first
    # factor varying slowest, on unit, point-only and mixed operands; R1's blocks
    # are the literal rule of test_r1_entries_follow_the_weak_compositions_in_order
    operands = [POINT, Sym(3, POINT), Sym(2, Sod((A, POINT))), Sod((A, Sym(2, Sod((B, C)))))]
    for x, y in itertools.product(operands, repeat=2):
        left, right = map(expand, canonicalize(Bullet((x, y))).factors)
        assert list(expand(Bullet((x, y)))) == [
            (Component.of(c.factors + d.factors), mc * md) for c, mc in left for d, md in right]


def _r1_reference(n, parts, head_first):
    """sym(n, sod(parts)) from the two-term rule, one block per weak composition:
    sym^n(X, Y) is sym^i(X) * sym^(n-i)(Y) for i = n..0, the entries of X varying
    slowest.  Head-first X is the first part and Y the rest; tail-first X is all
    but the last part and Y the last.  Each power of a single part is the public
    ``expand(Sym(i, part))``."""
    if len(parts) == 1:
        return list(expand(Sym(n, parts[0])))
    if head_first:
        first = lambda i: expand(Sym(i, parts[0]))
        second = lambda j: _r1_reference(j, parts[1:], head_first)
    else:
        first = lambda i: _r1_reference(i, parts[:-1], head_first)
        second = lambda j: expand(Sym(j, parts[-1]))
    return [
        (Component.of(c.factors + d.factors), mc * md)
        for i in range(n, -1, -1)
        for c, mc in first(i)
        for d, md in second(n - i)
    ]


@pytest.mark.parametrize("engine", [expand, expand_tail_first])
@pytest.mark.parametrize(
    "text, parts",
    [
        ("sod(A, B, A)", [A, B, A]),
        ("sod(pt, curve(1), pt, phantom)", [POINT, Curve(1), POINT, PHANTOM]),
        ("P2", [POINT] * 3),
        ("fakeP2(2)", [POINT] * 4 + [PHANTOM]),
        ("sod(A, bullet(P1, curve(1)), A)", [A, Curve(1), Curve(1), A]),
        ("sod(pt, curve(0), pt, curve(0))", [POINT, Curve(0), POINT, Curve(0)]),
        ("sod(curve(2), phantom, curve(2))", [Curve(2), PHANTOM, Curve(2)]),
        ("sod(surface(1,0,3,0,1), A, surface(1,0,3,0,1))", [S3, A, S3]),
        (Sod((O24, A, O24)), [O24, A, O24]),
        ("sod(bullet(A, curve(1)), sym(2, X), sym(3, P1), bullet(curve(1), A))",
         [Bullet((Curve(1), A)), Sym(2, X), Sym(3, Sod((POINT, POINT))), Bullet((Curve(1), A))]),
        ("sod(curve(1), pt)", [Curve(1), POINT]),
        ("sod(pt, curve(1), phantom, A, pt, curve(0), B)",
         [POINT, Curve(1), PHANTOM, A, POINT, Curve(0), B]),
    ],
)
def test_r1_entries_follow_the_weak_compositions_in_order(engine, text, parts):
    # R1 reads one powers row per distinct part; its entries, their order and
    # the first-seen order of ``distinct`` must be those of the literal rule,
    # for parts of every kind: point, curves, phantom, surface, opaque with and
    # without declared values, a bullet of atoms and nested syms
    for n in range(7):
        inner = parse_expr(text) if isinstance(text, str) else text
        components = engine(Sym(n, inner))
        reference = _r1_reference(n, parts, head_first=engine is expand)
        assert list(components) == reference, (text, n)
        assert components.distinct == tuple(dict.fromkeys(comp for comp, _ in reference)), (text, n)


def test_r1_builds_no_sym_node_per_arity(monkeypatch):
    e = parse_expr("sym(45, P2)")
    built = []
    real = Sym.__init__

    def counted(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(Sym, "__init__", counted)
    components = expand(e)
    monkeypatch.undo()
    assert built == [(45, e.inner)]  # the canonical form's own node
    assert components.total_multiplicity() == q_length(45, 3)


def test_one_powers_row_per_part_across_r1_nodes(monkeypatch):
    # sym(4, ruled(1)) builds curve(1)'s row to 4 and sym(5, ruled(1)) extends it
    # to 5: one multiplicity_vectors call per arity 2..5 in the whole walk
    calls = []
    real = rewrite.multiplicity_vectors

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(rewrite, "multiplicity_vectors", counted)
    built = []

    def power(m, base):
        built.append((m, base.name))
        return SymPower(m, base)

    monkeypatch.setattr(rewrite, "SymPower", power)
    e = parse_expr("bullet(sym(5, ruled(1)), sym(4, ruled(1)))")
    for engine in (expand, expand_tail_first):
        calls.clear()
        components = engine(e)
        assert sorted(calls) == [2, 3, 4, 5]
        left, right = map(engine, canonicalize(e).factors)
        assert list(components) == [(Component.of(c.factors + d.factors), mc * md)
                                    for c, mc in left for d, md in right]
        # the repeated parts of sod(A, B, A, B) share one row each, so each
        # sym^m(A) and sym^m(B) atom is built once, and the entries stay those
        # of the literal rule
        for n in range(2, 7):
            built.clear()
            components = engine(Sym(n, Sod((A, B, A, B))))
            assert sorted(built) == sorted((m, x) for m in range(2, n + 1) for x in "AB")
            reference = _r1_reference(n, [A, B, A, B], head_first=engine is expand)
            assert list(components) == reference, n


def test_long_sod_does_not_recurse_per_part():
    # R1 walks the parts of an SOD in a loop; recursing once per part raised
    # RecursionError at 250 parts
    # q(2; l) = 2l + C(l, 2): p(2) = 2 points per part, one per pair of parts
    components = expand(Sym(2, Sod((POINT,) * 260)))
    assert components.total_multiplicity() == 2 * 260 + math.comb(260, 2)


def test_bullet_distributes_over_sod():
    # bullet(sod(A, B), C) -> sod(bullet(A, C), bullet(B, C))
    components = expand(Bullet((Sod((A, B)), C)))
    assert tuple(components) == (
        (Component.of([A, C]), 1),
        (Component.of([B, C]), 1),
    )


def test_sym_of_distributed_bullet():
    # the product rule fires inside a symmetric power too
    components = expand(Sym(2, Bullet((Sod((POINT, POINT)), POINT))))
    assert all(comp.factors == (POINT,) for comp, _ in components)
    assert components.total_multiplicity() == q_length(2, 2)


def test_sym_of_plain_bullet_stays_opaque():
    inner = Bullet((Curve(1), Curve(2)))
    components = expand(Sym(2, inner))
    assert tuple(components) == ((Component.of([SymPower(2, inner)]), 1),)


def test_sym_of_phantom_stays_opaque():
    components = expand(Sym(3, PHANTOM))
    assert tuple(components) == ((Component.of([SymPower(3, PHANTOM)]), 1),)


def test_nested_trivial_syms_simplify():
    assert expand(Sym(2, Sym(1, Curve(0)))) == expand(Sym(2, Curve(0)))
    assert expand(Sym(2, Sym(0, A))) == expand(Sym(2, POINT))


def _wrappable_paths(e, path=()):
    """Child-index paths of all the subterms of ``e``."""
    yield path
    if isinstance(e, Sym):
        yield from _wrappable_paths(e.inner, path + (0,))
    elif isinstance(e, (Sod, Bullet)):
        for i, kid in enumerate(e.parts if isinstance(e, Sod) else e.factors):
            yield from _wrappable_paths(kid, path + (i,))


def _with_subterm(e, path, wrap):
    """``e`` with the subterm X at ``path`` replaced by ``wrap(X)``."""
    if not path:
        return wrap(e)
    if isinstance(e, Sym):
        return Sym(e.arity, _with_subterm(e.inner, path[1:], wrap))
    kids = list(e.parts if isinstance(e, Sod) else e.factors)
    kids[path[0]] = _with_subterm(kids[path[0]], path[1:], wrap)
    return type(e)(tuple(kids))


def test_trivial_syms_reduce_inside_a_bullet_base():
    # R6 inside a bullet: the bullet distributes over the SOD below sym(1, -)
    components = expand(parse_expr("sym(2, bullet(A, sym(1, sod(B, C))))"))
    assert components == expand(parse_expr("sym(2, bullet(A, sod(B, C)))"))
    assert len(components) == 3
    # R5 inside a bullet: the base is the phantom, so both totals are known
    square = parse_expr("sym(2, bullet(phantom, sym(0, A)))")
    assert expand(square) == expand(Sym(2, PHANTOM))
    report = invariant_report(square)
    assert (report.euler, report.hh_total) == (0, 0)


def test_trivial_syms_reduce_below_a_nested_sym_base():
    # R7 keeps the base of a nested sym(k >= 2, -) as one atom, but with R5,
    # R6 and the bullet's point unit applied inside it, and in canonical form
    ((component, _),) = expand(parse_expr("sym(2, sym(2, bullet(sym(1, A), B)))"))
    assert [render_text(atom) for atom in component.factors] == ["sym^2(sym(2, bullet(A, B)))"]
    same = [
        ("sym(2, sym(2, sod(sym(0, A), B)))", "sym(2, sym(2, sod(pt, B)))"),
        ("sym(3, sym(3, bullet(pt, pt)))", "sym(3, sym(3, pt))"),
        ("sym(3, sym(2, bullet(pt, S)))", "sym(3, sym(2, S))"),
        ("sym(2, bullet(A, sym(2, sym(1, sod(B, C)))))", "sym(2, bullet(A, sym(2, sod(B, C))))"),
    ]
    for text, reduced in same:
        assert expand(parse_expr(text)) == expand(parse_expr(reduced)), text


def test_trivial_syms_are_transparent_anywhere():
    # R5 and R6 apply at every level of a base: wrapping a subterm X as
    # sym(1, X) or as bullet(X, sym(0, Y)) changes no entry and no total
    rng = random.Random(3)
    for _ in range(60):
        e = gen_random_expr(rng, depth=3)
        entries, report = tuple(expand(e)), invariant_report(e)
        path = rng.choice(list(_wrappable_paths(e)))
        y = gen_random_expr(rng, depth=1)
        for wrap in (lambda x: Sym(1, x), lambda x: Bullet((x, Sym(0, y)))):
            wrapped = _with_subterm(e, path, wrap)
            assert tuple(expand(wrapped)) == entries, render_text(wrapped)
            totals = invariant_report(wrapped)
            assert (totals.euler, totals.hh_total) == (report.euler, report.hh_total)


def test_expand_never_fails_on_awkward_nesting():
    weird = Sym(2, Sym(3, Sod((A, Bullet((B, C, PHANTOM))))))
    components = expand(weird)
    assert components.total_multiplicity() >= 1
    assert all(mult >= 1 for _, mult in components)


def test_components_are_a_fixed_point_of_expansion():
    # rebuilding an expansion as an SOD of bullet products and expanding
    # again must reproduce the same multiset of components
    rng = random.Random(3)
    for _ in range(60):
        e = gen_random_expr(rng, depth=3)
        components = expand(e)
        parts = []
        for comp, mult in components:
            expr = Bullet(comp.factors) if len(comp.factors) > 1 else comp.factors[0]
            parts.extend([expr] * mult)
        rebuilt = expand(Sod(tuple(parts)) if len(parts) > 1 else parts[0])
        assert rebuilt.as_multiset() == components.as_multiset()


@pytest.mark.parametrize("text", ["sym(2, sod(curve(1), pt, curve(1)))", "sym(10, fakeP2(2))"])
def test_equal_components_of_one_expansion_are_one_object(monkeypatch, text):
    real = Component.of.__func__
    built = []

    def counted(cls, atoms):
        atoms = tuple(atoms)
        built.append(atoms)
        return real(cls, atoms)

    monkeypatch.setattr(Component, "of", classmethod(counted))
    components = expand(parse_expr(text))
    assert len(built) == len(set(built))  # one Component.of call per distinct atom tuple
    first = {}
    for comp, _ in components:
        assert first.setdefault(comp, comp) is comp
    assert len(first) == len(built) < len(components)


@pytest.mark.parametrize("engine", [expand, expand_tail_first])
def test_engine_multiset_is_the_public_recount(engine):
    # the engine numbers its distinct components itself; recounting its entries
    # must give the same multiset, and ``distinct`` must be the components in
    # first-appearance order, each once
    rng = random.Random(5)
    for _ in range(100):
        e = gen_random_expr(rng, depth=3)
        components = engine(e)
        recount = Counter()
        for comp, mult in components:
            recount[comp] += mult
        assert components.as_multiset() == recount, render_text(e)
        assert components.total_multiplicity() == sum(recount.values())
        assert components.distinct == tuple(recount), render_text(e)
        first = {}
        for comp, _ in components:
            assert first.setdefault(comp, comp) is comp, render_text(e)


@pytest.mark.parametrize("engine", [expand, expand_tail_first])
def test_factors_keep_sort_key_order_whichever_atom_is_met_first(monkeypatch, engine):
    e = parse_expr("bullet(sym(2, sod(curve(2), A)), sym(2, sod(A, curve(2))))")
    given = []

    def recorded(atoms, components, pairs):
        given.append(atoms)
        return ComponentList(atoms, components, pairs)

    monkeypatch.setattr(rewrite, "ComponentList", recorded)
    components = engine(e)
    monkeypatch.undo()
    # the engine hands over its atoms as met: head-first meets curve(2) before A,
    # tail-first A before curve(2); either way the list's positions are sorted
    [atoms] = given
    assert (atoms.index(Curve(2)) < atoms.index(A)) == (engine is expand)
    assert all(list(positions) == sorted(positions) for positions in components.components)
    first = {}
    for comp, _ in components:
        assert list(comp.factors) == sorted(comp.factors, key=sort_key)
        assert first.setdefault(comp, comp) is comp
    assert Component((Curve(2), Curve(2), A, A)) in first
    assert components.as_multiset() == expand_tail_first(e).as_multiset()


def test_engine_keeps_its_multiplicity_check(monkeypatch, capsys):
    monkeypatch.setattr(rewrite, "partition_count", lambda n: 0)
    with pytest.raises(InternalInvariantError, match="multiplicity must be >= 1"):
        expand(Sym(3, POINT))
    assert cli.main(["decompose", "sym(3, pt)"]) == 3
    assert "internal invariant violation" in capsys.readouterr().err

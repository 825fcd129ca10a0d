import math
import random

import pytest

from symsod import invariants
from symsod.expr import (
    Bullet,
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
    make_preset,
    surface_literal,
)
from symsod.invariants import (
    InvariantReport,
    invariant_report,
    phantom_audit,
)
from symsod.grammar import parse_expr
from symsod.partitions import q_length
from symsod.series import BettiVector, gottsche_series, macdonald_poincare, poly_eval
from symsod.suites import gen_random_expr


def test_euler_atoms():
    assert invariant_report(POINT).euler == 1
    assert invariant_report(Curve(0)).euler == 2
    assert invariant_report(Curve(3)).euler == -4
    assert invariant_report(PHANTOM).euler == 0
    assert invariant_report(surface_literal(BettiVector(1, 0, 1, 0, 1))).euler == 3


@pytest.mark.parametrize("n", range(2, 7))
def test_euler_sym_curve_projective_spaces(n):
    assert invariant_report(SymCurve(0, n)).euler == n + 1


def test_euler_unknown_absorbs():
    assert invariant_report(Opaque("A")).euler is None
    assert invariant_report(Sod((POINT, Opaque("A")))).euler is None
    assert invariant_report(Opaque("A", euler=7, hh=9)).euler == 7


def test_hh_atoms():
    assert invariant_report(PHANTOM).hh_total == 0
    assert invariant_report(Curve(2)).hh_total == 6
    assert invariant_report(make_preset("fakeP2", 1)).hh_total == 3


def test_hh_of_hilbert_scheme_of_surface_atom():
    plane = surface_literal(BettiVector(1, 0, 1, 0, 1))
    report = invariant_report(Sym(2, plane))
    assert (report.hh_total, report.euler) == (9, 9)


def test_sym_power_of_phantom_is_phantom():
    report = invariant_report(SymPower(4, PHANTOM))
    assert (report.hh_total, report.euler) == (0, 0)
    assert invariant_report(Sym(3, make_preset("fakeP2", 2))).hh_total == q_length(3, 4)


def test_report_breakdown_and_consistency():
    report = invariant_report(Sym(2, make_preset("P1")))
    assert report.expansion.total_multiplicity() == 5
    assert report.values == ((1, 1),)  # the one distinct component, the point
    assert report.to_json_dict() == {"euler": 5, "hh_total": 5, "exceptional_length": 5}


def test_report_rejects_inconsistent_totals():
    with pytest.raises(InternalInvariantError):
        InvariantReport(
            euler=2, hh_total=3, exceptional_length=3, expansion=ComponentList(), values=()
        )


def test_phantom_audit_fake_plane():
    report = phantom_audit(1, 3)
    assert [(row.n, row.hilb_total_betti, row.q_value) for row in report.rows] == [
        (1, 3, 3),
        (2, 9, 9),
        (3, 22, 22),
    ]
    assert report.all_equal
    assert bool(report)


def test_phantom_audit_validates_arguments():
    with pytest.raises(ValueError):
        phantom_audit(0, 5)
    with pytest.raises(ValueError):
        phantom_audit(2, 0)


def test_declared_opaque_invariants_multiply():
    report = invariant_report(Bullet((Opaque("A", euler=3, hh=5), Curve(1))))
    assert (report.euler, report.hh_total) == (3 * 0, 5 * 4)


def _weighted(values, mults):
    return None if None in values else sum(v * mult for v, mult in zip(values, mults))


def _factor_product(values):
    return None if None in values else math.prod(values)


def test_report_totals_are_the_weighted_sums_of_its_rows():
    rng = random.Random(0)
    undeclared = Sod((Curve(1), Opaque("A"), POINT))
    corpus = [gen_random_expr(rng, 3) for _ in range(60)] + [undeclared]
    # several sym^n(S) atoms over one surface S, read from one series
    corpus += [parse_expr("hilb(6, blowup(surface(1,2,3,2,1)))")]
    corpus += [parse_expr("bullet(hilb(4, blowup(P2)), hilb(3, surface(1,0,1,0,1)))")]
    unknown = 0
    for e in corpus:
        report = invariant_report(e)
        distinct, counts = report.expansion.distinct, report.expansion.counts
        assert len(report.values) == len(distinct)
        eulers, hhs = zip(*report.values)
        totals = (_weighted(eulers, counts), _weighted(hhs, counts))
        assert (report.euler, report.hh_total) == totals
        # each factor valued on its own, with a series of its own order
        for comp, (euler, hh) in zip(distinct, report.values):
            assert euler == _factor_product([invariant_report(f).euler for f in comp.factors])
            assert hh == _factor_product([invariant_report(f).hh_total for f in comp.factors])
        unknown += report.euler is None
    assert 0 < unknown < len(corpus)
    report = invariant_report(undeclared)
    assert (report.euler, report.hh_total) == (None, None)
    assert report.values == ((0, 4), (None, None), (1, 1))


def test_one_law_evaluation_per_surface(monkeypatch):
    # hilb(11, sod(S, pt)) has the atoms sym^2(S)..sym^11(S): one evaluation of
    # the law, to order 11, values them all, and no Goettsche series is built
    calls = []

    def counted(betti, top):
        calls.append((betti, top))
        return gottsche_series(betti, top)

    monkeypatch.setattr(invariants, "gottsche_series", counted)
    invariants._hilb_poincare_value.cache_clear()
    report = invariant_report(parse_expr("hilb(11, blowup(blowup(surface(1,0,7,0,1))))"))
    info = invariants._hilb_poincare_value.cache_info()
    assert (info.misses, calls) == (1, [])
    assert invariants._hilb_poincare_value(10, 0, 11)  # h+ = 1 + 8 + 1, h- = 0
    assert invariants._hilb_poincare_value.cache_info().misses == 1  # the one key it took
    poly = gottsche_series(BettiVector(1, 0, 9, 0, 1), 11)[11]
    assert (report.euler, report.hh_total) == (poly_eval(poly, -1), poly_eval(poly, 1))


def test_component_values_hash_no_betti_vector(monkeypatch):
    # the law's cache and the tops of one report are keyed by (h+, h-) ints,
    # so valuing sym^n(S) atoms hashes no Betti vector; the values are pinned.
    # The walk hashes its atoms, so each report reads an expansion made before
    trees = [parse_expr(text) for text in (
        "hilb(11, blowup(blowup(blowup(surface(1,0,7,0,1)))))",
        "sod(hilb(3, surface(1,2,5,2,1)), hilb(5, surface(1,2,5,2,1)))",
    )]
    expansions = [invariants.expand(tree) for tree in trees]
    monkeypatch.setattr(invariants, "expand", lambda e: expansions.pop(0))

    def refused(betti):
        raise AssertionError(f"hashed {betti!r}")

    monkeypatch.setattr(BettiVector, "__hash__", refused)
    invariants._hilb_poincare_value.cache_clear()
    ones = [8207563, 2919411, 997150, 325193, 100529, 29183, 7854, 1925, 418, 77, 11, 1]
    assert invariant_report(trees[0]).values == tuple((v, v) for v in ones)
    assert invariant_report(trees[1]).values == ((22, 374), (108, 6204))
    info = invariants._hilb_poincare_value.cache_info()
    assert (info.hits, info.misses) == (10, 2)


def test_each_atom_of_the_table_is_valued_once(monkeypatch):
    # each curve power of the table reads its Macdonald row once, in table order,
    # however many components hold it
    calls = []

    def counted(g, a):
        calls.append(SymCurve(g, a))
        return macdonald_poincare(g, a)

    monkeypatch.setattr(invariants, "macdonald_poincare", counted)
    for text in ("sym(15, curve(3))", "sym(8, ruled(2))", "sym(3, sod(curve(1), X, curve(2)))"):
        calls.clear()
        report = invariant_report(parse_expr(text))
        assert calls == [a for a in report.expansion.atoms if isinstance(a, SymCurve)], text


@pytest.mark.parametrize(
    "e, distinct, rows, totals",
    [
        # a bare identifier is an opaque atom with no declared invariants
        (
            parse_expr("sym(2, sod(curve(1), X, curve(1)))"),
            5,
            [(0, 8), (0, 4), (None, None), (0, 16), (None, None), (None, None), (0, 8), (0, 4)],
            (None, None, None),
        ),
        # declared invariants value curve(1) * X, but sym^2(X) stays unknown
        (
            Sym(2, Sod((Curve(1), Opaque("X", 0, 2), Curve(1)))),
            5,
            [(0, 8), (0, 4), (0, 8), (0, 16), (None, None), (0, 8), (0, 8), (0, 4)],
            (None, None, None),
        ),
        (
            parse_expr("sym(2, sod(curve(2), pt, curve(2)))"),
            4,
            [(1, 17), (-2, 6), (-2, 6), (4, 36), (1, 1), (-2, 6), (1, 17), (-2, 6)],
            (0, 96, None),
        ),
        (parse_expr("sym(3, P2)"), 1, [(1, 1)] * 10, (22, 22, 22)),
    ],
)
def test_report_totals_over_repeated_components(e, distinct, rows, totals):
    # the totals are summed once per distinct component; they must equal the
    # sums over the entries, each entry's values weighted by its multiplicity
    report = invariant_report(e)
    expansion = report.expansion
    got = [report.values[index] for index, _ in expansion.pairs]
    assert got == rows
    assert len(expansion.distinct) == len(report.values) == distinct
    eulers, hhs = zip(*got)
    mults = [mult for _, mult in expansion.pairs]
    assert (report.euler, report.hh_total) == (_weighted(eulers, mults), _weighted(hhs, mults))
    assert (report.euler, report.hh_total, report.exceptional_length) == totals
    all_points = all(comp.factors == (POINT,) for comp in expansion.distinct)
    assert (report.exceptional_length is None) == (not all_points)

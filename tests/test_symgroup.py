import itertools
import math
import random

import pytest

from symsod import symgroup
from symsod.symgroup import (
    PermModule,
    Permutation,
    YoungPair,
    cycle_type,
    induction_invariance_check,
    invariant_dimension,
    natural_module,
    random_orbit_module,
    regular_module,
    symmetric_group,
    trivial_module,
    young_subgroup,
)


def test_unchecked_product_and_inverse_equal_validated_construction():
    s4 = symmetric_group(4)
    for p in s4:
        inverse = p.inverse()
        expected = [0] * 4
        for k in range(1, 5):
            expected[p(k) - 1] = k
        assert inverse == Permutation(tuple(expected))
        assert hash(inverse) == hash(Permutation(tuple(expected)))
        for q in s4:
            product = p * q
            built = Permutation(tuple(p(q(k)) for k in range(1, 5)))
            assert type(product) is Permutation
            assert product == built and hash(product) == hash(built)
    with pytest.raises(ValueError):
        s4[1] * Permutation.identity(3)


def test_permutation_basics():
    p = Permutation((2, 3, 1))
    assert p(1) == 2 and p(3) == 1
    assert (p * p.inverse()) == Permutation.identity(3)
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_permutation_rejects_points_outside_its_degree():
    p = Permutation((2, 3, 1))
    for k in (0, -1, 4):
        with pytest.raises(ValueError, match="not a point"):
            p(k)
    with pytest.raises(ValueError, match="not a point"):
        natural_module(symmetric_group(3), 4)


def test_cycle_type_examples():
    assert cycle_type(Permutation.identity(4)) == (1, 1, 1, 1)
    assert cycle_type(Permutation((2, 1, 4, 3))) == (2, 2)
    assert cycle_type(Permutation((2, 3, 4, 5, 1))) == (5,)


def test_young_subgroup_order():
    assert len(young_subgroup(YoungPair(4, 2))) == math.factorial(2) * math.factorial(2)
    assert len(young_subgroup(YoungPair(5, 0))) == math.factorial(5)


def _closure(gens, n):
    closure, frontier = {Permutation.identity(n)}, [Permutation.identity(n)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            if g * x not in closure:
                closure.add(g * x)
                frontier.append(g * x)
    return closure


def test_orbit_is_walked_breadth_first_with_a_parent_per_point():
    # (g, x) with g * x = y for every y but the start, and each point's path back
    # to the start is a shortest one: no edge of the Cayley graph of S_5 climbs
    # more than one level
    gens = [(2, 1, 3, 4, 5), (2, 3, 4, 5, 1)]
    identity = (1, 2, 3, 4, 5)
    closure = symgroup._orbit(identity, gens, symgroup._compose)
    depth = {identity: 0}
    for y, step in closure.items():
        if step is not None:
            assert symgroup._compose(*step) == y
            depth[y] = depth[step[1]] + 1
    assert closure[identity] is None and len(closure) == 120
    assert all(depth[symgroup._compose(g, y)] <= depth[y] + 1 for y in closure for g in gens)


@pytest.mark.parametrize("n", range(1, 8))
def test_young_subgroup_generators_are_a_transposition_and_a_cycle_per_block(n):
    for i in range(n + 1):
        h = young_subgroup(YoungPair(n, i))
        gens = trivial_module(h).generators
        assert set(gens) <= set(h)
        assert _closure(gens, n) == set(h)
        moved = {g: {k for k in range(1, n + 1) if g(k) != k} for g in gens}
        for block in ({*range(1, n - i + 1)}, {*range(n - i + 1, n + 1)}):
            on_block = [g for g in gens if moved[g] & block]
            assert all(moved[g] <= block and max(cycle_type(g)) == len(moved[g]) for g in on_block)
            sizes = sorted(len(moved[g]) for g in on_block)
            assert sizes == ([] if len(block) < 2 else [2] if len(block) == 2 else [2, len(block)])
    if n >= 3:
        swap = Permutation((2, 1) + tuple(range(3, n + 1)))
        cycle = Permutation(tuple(range(2, n + 1)) + (1,))
        assert trivial_module(symmetric_group(n)).generators == [swap, cycle]


def test_regular_module_of_s6_validates_on_two_generators(monkeypatch):
    # the identity, then each of (1 2) and (1 2 3 4 5 6), then each ordered pair of
    # them, on each of the 720 basis points
    calls = []
    init = PermModule.__init__

    def counted(self, group, basis, act):
        def counting(g, b):
            calls.append(g)
            return act(g, b)

        init(self, group, basis, counting)

    monkeypatch.setattr(PermModule, "__init__", counted)
    regular_module(symmetric_group(6))
    assert len(calls) == 720 * (1 + 2 + 4)


def test_invariant_dimension_rejects_a_group_list_that_is_not_a_group():
    good = trivial_module(young_subgroup(YoungPair(3, 1)))
    assert good.generators == [Permutation((2, 1, 3))]
    bad = trivial_module([Permutation.identity(3), Permutation((2, 3, 1))])  # no inverse closure
    assert bad.generators == [Permutation((2, 3, 1))]
    with pytest.raises(ValueError, match="not closed"):
        invariant_dimension(bad)
    s3 = symmetric_group(3)
    with pytest.raises(ValueError, match="duplicates"):
        invariant_dimension(trivial_module(s3 + [s3[1]]))
    with pytest.raises(ValueError, match="identity"):
        invariant_dimension(trivial_module(s3[1:]))


def _c4_acting_through(rotation, basis):
    """C_4 = <c>, c = (1 2 3 4), acting on ``basis`` by c^k -> rotation^k.

    With rotation of order 3, c^4 = 1 is broken, yet construction checks only
    the identity, c and c * c, and every ``act`` value agrees with the tables
    composed from c along the shortest paths c^k, k < 4.
    """
    c = Permutation((2, 3, 4, 1))
    cyclic = [Permutation.identity(4), c, c * c, c * c * c]

    def act(g, b):
        for _ in range(cyclic.index(g)):
            b = rotation(b)
        return b

    module = PermModule(cyclic, basis, act)
    assert module.generators == [c]
    return module


def test_invariant_dimension_rejects_a_fixed_point_sum_that_does_not_divide():
    # (1 2)(3 4) is neither a generator of S_4 nor a product of two, so acting by
    # (1 2) passes construction; it is first in its class of 3, so the Burnside
    # side calls act on it, and act disagrees with the table composed from the
    # generators before the wrong count can reach the sum
    s4 = symmetric_group(4)
    wrong, swap = Permutation((2, 1, 4, 3)), Permutation((2, 1, 3, 4))
    module = PermModule(s4, [1, 2, 3, 4], lambda g, b: swap(b) if g == wrong else g(b))
    assert wrong not in module.generators
    with pytest.raises(ValueError, match="action is not a homomorphism"):
        invariant_dimension(module)
    # C_4 acting on three points through c -> (1 2 3): only Burnside's
    # 3 + 0 + 0 + 3 over 4 is left to catch it
    module = _c4_acting_through(Permutation((2, 3, 1)), [1, 2, 3])
    with pytest.raises(ValueError, match="not an integer"):
        invariant_dimension(module)


def test_invariant_dimension_rejects_an_average_that_differs_from_the_orbit_count():
    # C_4 acting on {1..6} through c -> (1 2 3)(4 5 6): the Burnside sum
    # 6 + 0 + 0 + 6 divides by 4, but the average 3 is not the 2 orbits
    module = _c4_acting_through(Permutation((2, 3, 1, 5, 6, 4)), [1, 2, 3, 4, 5, 6])
    assert module.orbit_count() == 2
    with pytest.raises(ValueError, match="differs from the orbit count"):
        invariant_dimension(module)


def test_perm_module_validation_rejects_non_action():
    group = symmetric_group(3)
    with pytest.raises(ValueError):
        PermModule(group, [1, 2, 3], lambda g, b: 1)  # identity does not fix 2


def _subset_act(g, subset):
    return frozenset(g(k) for k in subset)


@pytest.mark.parametrize("n, i", [(3, 1), (4, 2), (5, 2)])
def test_perm_module_rejects_induced_action_wrong_on_n_cycle(n, i):
    # The permutation module on i-subsets is the trivial module of S_(n-i) x S_i
    # induced up to S_n, given by the two generators the induction check uses.
    swap = Permutation((2, 1) + tuple(range(3, n + 1)))
    cycle = Permutation(tuple(range(2, n + 1)) + (1,))
    subsets = [frozenset(c) for c in itertools.combinations(range(1, n + 1), i)]
    assert PermModule([swap, cycle], subsets, _subset_act).orbit_count() == 1

    def backwards_on_cycle(g, subset):
        return _subset_act(g.inverse() if g == cycle else g, subset)

    with pytest.raises(ValueError, match="homomorphism"):
        PermModule([swap, cycle], subsets, backwards_on_cycle)

    def collapses_on_cycle(g, subset):
        return subsets[0] if g == cycle else _subset_act(g, subset)

    with pytest.raises(ValueError, match="permute"):
        PermModule([swap, cycle], subsets, collapses_on_cycle)


def test_perm_module_rejects_anti_action_on_young_generators():
    # g acting by g^-1 lets the identity fix every point and permutes the points,
    # so only the homomorphism identity on the generators of S_3 x S_2 catches it.
    h = young_subgroup(YoungPair(5, 2))
    natural_module(h, 5)
    with pytest.raises(ValueError, match="homomorphism"):
        PermModule(h, list(range(1, 6)), lambda g, b: g.inverse()(b))


def _literal_burnside(module, subgroup):
    total = sum(module.fixed_points(h) for h in subgroup)
    assert total % len(subgroup) == 0
    return total // len(subgroup)


def test_invariant_dimension_by_classes_equals_literal_burnside():
    rng = random.Random(3)
    for n in range(1, 6):
        for i in range(n + 1):
            h = young_subgroup(YoungPair(n, i))
            modules = [trivial_module(h), natural_module(h, n), regular_module(h)]
            modules += [random_orbit_module(h, n, rng) for _ in range(3)]
            for module in modules:
                assert invariant_dimension(module) == _literal_burnside(module, h)


def test_invariant_dimension_by_classes_on_groups_with_non_involution_generators():
    # A Young subgroup is generated by a transposition and a cycle per block; a
    # cyclic and an alternating group, which are not full symmetric groups on
    # their orbits, keep the greedy generators, a 4-cycle and a 3-cycle with
    # (1 2)(3 4), so the class search conjugates by other shapes.
    cycle = Permutation((2, 3, 4, 1))
    cyclic = [Permutation.identity(4), cycle, cycle * cycle, cycle * cycle * cycle]
    alternating = [p for p in symmetric_group(4) if (4 - len(cycle_type(p))) % 2 == 0]
    assert trivial_module(cyclic).generators == [cycle]
    assert trivial_module(alternating).generators == [
        Permutation((1, 3, 4, 2)), Permutation((2, 1, 4, 3))]
    rng = random.Random(4)
    for h in (cyclic, alternating):
        modules = [natural_module(h, 4), regular_module(h)]
        modules += [random_orbit_module(h, 4, rng) for _ in range(3)]
        for module in modules:
            assert invariant_dimension(module) == _literal_burnside(module, h)


def test_invariant_dimension_examples():
    s4 = symmetric_group(4)
    assert invariant_dimension(trivial_module(s4)) == 1
    assert invariant_dimension(natural_module(s4, 4)) == 1
    h = young_subgroup(YoungPair(4, 2))
    assert invariant_dimension(natural_module(h, 4)) == 2


def test_invariant_dimension_matches_orbit_count_oracle():
    rng = random.Random(5)
    for n in (3, 4, 5):
        for i in range(n + 1):
            h = young_subgroup(YoungPair(n, i))
            for _ in range(5):
                module = random_orbit_module(h, n, rng)
                burnside = invariant_dimension(module)
                orbits = module.orbit_count()
                assert burnside == orbits


def test_induction_check_natural_module_4_2():
    pair = YoungPair(4, 2)
    report = induction_invariance_check(pair, natural_module(young_subgroup(pair), 4))
    assert report
    assert report.induced_invariant_dim == 2


def test_induction_check_rejects_wrong_group():
    for pair, n in ((YoungPair(4, 2), 4), (YoungPair(3, 1), 3)):
        with pytest.raises(ValueError):
            induction_invariance_check(pair, trivial_module(symmetric_group(n)))


def test_induction_check_reuses_the_module_group(monkeypatch):
    # the S_6 regular-module operation: 721 permutations build the module,
    # 4 the check (a coset representative, the two generators of S_6 and an
    # identity); building the Young subgroup again would add 720
    built = []
    post_init = Permutation.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Permutation, "__post_init__", counted)
    pair = YoungPair(6, 0)
    assert induction_invariance_check(pair, regular_module(young_subgroup(pair)))
    assert len(built) == 725


def test_induction_check_scans_only_the_induced_module_for_generators(monkeypatch):
    # the module keeps its generators, so the check's Burnside side does not rescan m.group
    pair = YoungPair(4, 2)
    module = natural_module(young_subgroup(pair), 4)
    scanned = []
    scan = symgroup._generating_subset

    def counted(elements):
        scanned.append(list(elements))
        return scan(elements)

    monkeypatch.setattr(symgroup, "_generating_subset", counted)
    assert induction_invariance_check(pair, module)
    assert [len(elements) for elements in scanned] == [2]  # (1 2) and (1 2 3 4)


def test_induction_check_reads_no_act_value_it_does_not_compare():
    # one element at a time outside the identity, the generators and their
    # pairwise products acts as the identity; either a side reads its act value
    # and the comparison with its composed table fails, or no side reads it
    outcomes = {"raised": 0, "unread": 0}
    for n in range(1, 5):
        for i in range(n + 1):
            pair = YoungPair(n, i)
            h = young_subgroup(pair)
            natural = (list(range(1, n + 1)), lambda g, b: g(b))
            regular = (list(h), lambda g, b: g * b)
            for basis, act in (natural, regular):
                module = PermModule(h, basis, act)
                gens = module.generators
                checked = {h[0], *gens, *(g * k for g in gens for k in gens)}
                report = induction_invariance_check(pair, module)
                for wrong in (g for g in h if g not in checked):
                    corrupted = PermModule(
                        h, basis, lambda g, b, wrong=wrong, act=act: b if g == wrong else act(g, b))
                    try:
                        assert induction_invariance_check(pair, corrupted) == report
                        outcomes["unread"] += 1
                    except ValueError as error:
                        assert "action is not a homomorphism" in str(error)
                        outcomes["raised"] += 1
    assert outcomes == {"raised": 8, "unread": 64}


def test_invariant_dimension_walks_no_second_closure(monkeypatch):
    # construction closes the generators of the Young subgroup once and the module
    # keeps that closure; the check walks only conjugacy classes and orbits
    walks = []
    orbit = symgroup._orbit

    def recorded(start, gens, act):
        walks.append(act)
        return orbit(start, gens, act)

    monkeypatch.setattr(symgroup, "_orbit", recorded)
    pair = YoungPair(5, 2)
    h = young_subgroup(pair)
    module = regular_module(h)
    assert walks.count(symgroup._compose) == 1
    walks.clear()
    assert induction_invariance_check(pair, module)
    assert invariant_dimension(module) == 1
    assert walks and symgroup._compose not in walks
    outside = Permutation((1, 2, 4, 3, 5))  # moves 3 across the blocks
    with pytest.raises(ValueError, match="not in the module's group"):
        module.fixed_points(outside)
    with pytest.raises(ValueError, match="not in the module's group"):
        module._table(outside.images)


def test_perm_module_rejects_a_basis_with_a_repeated_point():
    with pytest.raises(ValueError, match="duplicates"):
        PermModule(symmetric_group(3), [1, 1, 2, 3], lambda g, b: g(b))


@pytest.mark.parametrize("i, classes", [(0, 11), (3, 3 * 3)])
def test_induction_check_calls_act_only_for_burnside(i, classes):
    # the induced module reads the tables the regular module built while it was
    # validated, so inside the check only the Burnside side calls act: once per
    # class representative and basis point (p(6) = 11 classes of S_6, 3 * 3 of
    # S_3 x S_3); the walk of orbit_count reads the generators' tables
    pair = YoungPair(6, i)
    calls = []

    def counting(g, b):
        calls.append(g)
        return g * b

    h = young_subgroup(pair)
    module = PermModule(h, list(h), counting)
    calls.clear()
    assert induction_invariance_check(pair, module)
    assert len(calls) == classes * len(h)
    calls.clear()
    assert module.orbit_count() == 1
    assert calls == []


def _literal_orbit_count(module):
    # every element of the group list acts, through act itself, on every point reached
    seen, orbits = set(), 0
    for start in module.basis:
        if start not in seen:
            orbits += 1
            seen.add(start)
            frontier = [start]
            while frontier:
                b = frontier.pop()
                for g in module.group:
                    c = module.act(g, b)
                    if c not in seen:
                        seen.add(c)
                        frontier.append(c)
    return orbits


def test_tables_and_orbit_count_agree_with_act_after_the_induction_check():
    rng = random.Random(6)
    for n in range(1, 6):
        for i in range(n + 1):
            pair = YoungPair(n, i)
            h = young_subgroup(pair)
            modules = [trivial_module(h), natural_module(h, n), regular_module(h)]
            modules += [random_orbit_module(h, n, rng) for _ in range(2)]
            for module in modules:
                assert induction_invariance_check(pair, module)
                for images, table in module._tables.items():
                    g = Permutation(images)
                    assert table == [module.basis.index(module.act(g, b)) for b in module.basis]
                assert module.orbit_count() == _literal_orbit_count(module)

import collections
import copy
import itertools
import math
import pickle
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
    trivial_module,
    young_subgroup,
)


def test_unchecked_product_and_inverse_equal_validated_construction():
    s4 = young_subgroup(YoungPair(4, 0))
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


def test_permutation_stores_its_images_as_a_tuple():
    # list images are stored as a tuple, so the permutation hashes and compares
    # like the one built from a tuple
    p = Permutation([2, 1])
    assert p.images == (2, 1) and type(p.images) is tuple
    assert p == Permutation((2, 1)) and hash(p) == hash(Permutation((2, 1)))
    assert repr(p) == "Permutation(2, 1)"
    assert {p: "swap"}[Permutation(iter((2, 1)))] == "swap"


def test_equal_images_give_equal_permutations_however_made():
    p = Permutation((2, 3, 1))
    made = [
        Permutation((3, 1, 2)) * Permutation((3, 1, 2)),
        Permutation((3, 1, 2)).inverse(),
        Permutation((2, 1, 3)) * Permutation((1, 3, 2)),
        pickle.loads(pickle.dumps(p)),
        copy.deepcopy(p),
    ]
    for q in made:
        assert type(q) is Permutation and q == p and not q != p and hash(q) == hash(p)
    assert len({p, *made}) == 1
    assert p != Permutation((1, 3, 2)) and p != Permutation((2, 3, 1, 4))


def test_permutation_is_never_equal_to_its_images():
    p = Permutation((2, 1))
    assert p != (2, 1) and (2, 1) != p and p != [2, 1]
    assert {(2, 1): "tuple"}.get(p) is None and {p: "perm"}.get((2, 1)) is None


def test_permutation_is_immutable():
    p = Permutation((2, 1))
    for name in ("images", "degree", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, (1, 2))
    with pytest.raises(AttributeError):
        del p.images
    assert p.images == (2, 1) and not hasattr(p, "__dict__")


def test_permutation_validates_checked_construction_and_products():
    # a float or bool image equals an int one, so it must be refused by type
    for images in ((1, 1), (0, 1), (1, 3), (2, 2, 1), (1.0, 2.0), [1.0, 2.0], (True, 2),
                   (2, True), (1, 2.0, 3)):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation(images)
    for p, q in ((Permutation((2, 1)), Permutation((1, 3, 2))),
                 (young_subgroup(YoungPair(3, 0))[3], young_subgroup(YoungPair(1, 0))[0])):
        with pytest.raises(ValueError, match="different degrees"):
            p * q
    assert repr(Permutation((3, 1, 2))) == "Permutation(3, 1, 2)"
    assert repr(Permutation.identity(1)) == "Permutation(1,)"


@pytest.mark.parametrize("n", range(1, 7))
def test_young_subgroup_lists_the_validated_permutations_in_lex_order(n):
    # built unchecked from itertools.permutations of each block, the elements equal
    # their validated rebuilds, in the same lexicographic order of one-line forms
    for i in range(n + 1):
        h = young_subgroup(YoungPair(n, i))
        rebuilt = [Permutation(g.images) for g in h]
        assert h == rebuilt
        assert [g.images for g in h] == sorted(g.images for g in h)
        assert all(type(g) is Permutation and type(g.images) is tuple for g in h)
        assert len(set(h)) == math.factorial(n - i) * math.factorial(i)


def test_permutation_rejects_points_outside_its_degree():
    p = Permutation((2, 3, 1))
    for k in (0, -1, 4, 1.0, 2.5, True, False, "1", None):
        with pytest.raises(ValueError, match="not a point"):
            p(k)
    with pytest.raises(ValueError, match="not a point"):
        natural_module(young_subgroup(YoungPair(3, 0)), 4)


def test_cycle_type_examples():
    assert cycle_type(Permutation.identity(4)) == (1, 1, 1, 1)
    assert cycle_type(Permutation((2, 1, 4, 3))) == (2, 2)
    assert cycle_type(Permutation((2, 3, 4, 5, 1))) == (5,)


def _transposition(a, b, n):
    images = list(range(1, n + 1))
    images[a - 1], images[b - 1] = b, a
    return Permutation(tuple(images))


def _word_element(word, n):
    element = Permutation.identity(n)
    for letter in word:
        element = element * Permutation(letter)
    return element


def test_orbit_is_the_set_of_points_reached():
    # the 2-subsets of {1..5} form one orbit under S_5 and three under S_3 x S_2
    # (both points in the first block, one in each, both in the second); the
    # cycles of (1 2)(4 5) are found by the same walk
    subsets = [frozenset(c) for c in itertools.combinations(range(1, 6), 2)]
    for pair, orbits in ((YoungPair(5, 0), 1), (YoungPair(5, 2), 3)):
        assert PermModule(young_subgroup(pair), subsets, _subset_act).orbit_count() == orbits
    assert cycle_type(Permutation((2, 1, 3, 5, 4))) == (2, 2, 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_young_subgroup_generators_are_a_transposition_and_a_cycle_per_block(n):
    # a module checks the adjacent transpositions (a a+1) of each block; they are the
    # conjugates c^j (lo lo+1) c^-j of the block's first transposition by powers of
    # its cycle c = (lo ... hi), so one transposition and one cycle per block (what
    # bench/workloads.py walks for its orbit oracle) generate the same Young subgroup
    for i in range(n + 1):
        pair = YoungPair(n, i)
        gens = trivial_module(young_subgroup(pair)).generators
        expected = []
        for block in pair.blocks:
            lo, hi = block[0], block[-1]
            cycle = Permutation(tuple(range(1, lo)) + tuple(range(lo + 1, hi + 1)) + (lo,)
                                + tuple(range(hi + 1, n + 1)))
            conjugate = _transposition(lo, lo + 1, n) if hi > lo else None
            for a in block[:-1]:
                assert conjugate == _transposition(a, a + 1, n)
                expected.append(conjugate)
                conjugate = cycle * conjugate * cycle.inverse()
        assert gens == expected
        assert len(gens) == n - len(pair.blocks)


def _act_calls(monkeypatch):
    """The list that every module built from now on logs each of its ``act`` calls' g to."""
    calls = []
    init = PermModule.__init__

    def counted(self, group, basis, act):
        def counting(g, b):
            calls.append(g)
            return act(g, b)

        init(self, group, basis, counting)

    monkeypatch.setattr(PermModule, "__init__", counted)
    return calls


def test_regular_module_acts_by_the_groups_own_elements():
    # act returns the listed element equal to g * b, so the basis index finds the
    # object it stores; a g outside the group leaves the basis, as g * b does.
    # S_1 is the degree where a getter of one index would return a scalar
    h = young_subgroup(YoungPair(4, 2))
    pairs = (YoungPair(1, 0), YoungPair(3, 0), YoungPair(3, 1))
    for group in (*map(young_subgroup, pairs), h):
        module = regular_module(group)
        for g in group:
            for b in group:
                product = module.act(g, b)
                assert product == g * b
                assert any(product is element for element in group)
    module = regular_module(h)
    for g in (g for g in young_subgroup(YoungPair(4, 0)) if g not in h):
        assert [module.act(g, b) for b in h] == [g * b for b in h]
        assert [module.act(b, g) for b in h] == [b * g for b in h]
    # a longer g would index into a valid tuple of h's degree without the check
    for other in (Permutation.identity(3), Permutation.identity(5), Permutation((2, 1, 3, 4, 5))):
        with pytest.raises(ValueError, match="different degrees"):
            module.act(other, h[0])


def test_natural_module_acts_by_calling_the_permutation():
    module = natural_module(young_subgroup(YoungPair(4, 2)), 4)
    assert module.act is Permutation.__call__
    with pytest.raises(ValueError, match="is not a point"):
        module.act(Permutation.identity(4), 5)


def test_young_pair_takes_integers_only():
    for n, i in ((True, 0), (2.0, 1), (2, 1.0), (3, False), ("3", 1), (None, 0)):
        with pytest.raises(ValueError, match="need integers n and i"):
            YoungPair(n, i)
    with pytest.raises(ValueError, match="need 0 <= i <= n"):
        YoungPair(2, 3)
    assert YoungPair(2, 1).blocks == ((1,), (2,))


def test_one_coset_induction_checks_the_relations_once(monkeypatch):
    # with one coset the induced tables are the module's generator tables, which
    # construction checked against the same relations; with more the check runs again
    checks = []
    check_relations = symgroup._check_relations

    def counted(gens, tables):
        checks.append(len(gens))
        check_relations(gens, tables)

    monkeypatch.setattr(symgroup, "_check_relations", counted)
    for (n, i), expected in (((4, 0), [3]), ((4, 4), [3]), ((4, 2), [2, 3])):
        checks.clear()
        pair = YoungPair(n, i)
        assert induction_invariance_check(pair, natural_module(young_subgroup(pair), n))
        assert checks == expected


def test_induction_check_rejects_tables_that_break_the_relations():
    # over S_2 x S_2, a (1 2) table of order 3 makes the induced tables break s^2 = 1
    pair = YoungPair(4, 2)
    module = natural_module(young_subgroup(pair), 4)
    module._tables[(2, 1, 3, 4)] = [1, 2, 0, 3]
    with pytest.raises(ValueError, match=r"it breaks Permutation\(2, 1, 3, 4\)\^2 = 1"):
        induction_invariance_check(pair, module)


@pytest.mark.parametrize("n, i, long_words", [(4, 2, 1), (6, 0, 11 - 2), (6, 3, 3 * 3 - 3)])
def test_construction_and_induction_check_read_each_act_value_once(monkeypatch, n, i, long_words):
    # construction reads the identity, then each adjacent transposition, on every
    # basis point; the induction check reads the tables it built, so only the
    # Burnside side calls act: once per basis point and class whose word has length
    # 2 or more.  S_2 x S_2 has one, (1 2)(3 4); of the p(6) = 11 classes of S_6 all
    # but the identity and (1 2); of the 3 * 3 of S_3 x S_3 all but the identity,
    # (1 2) and (4 5).  The walk of orbit_count reads the generators' tables only
    pair = YoungPair(n, i)
    h = young_subgroup(pair)
    assert sum(len(word) >= 2 for _, word, _ in symgroup.class_table(pair.blocks)) == long_words
    acted = [Permutation.identity(n)]
    acted += [_transposition(a, a + 1, n) for block in pair.blocks for a in block[:-1]]
    calls = _act_calls(monkeypatch)
    builders = {
        "trivial": lambda: trivial_module(h),
        "natural": lambda: natural_module(h, n),
        "regular": lambda: regular_module(h),
        "random-orbit": lambda: random_orbit_module(h, n, random.Random(3)),
    }
    for kind, build in builders.items():
        calls.clear()
        module = build()
        assert calls == [g for g in acted for _ in module.basis], kind
        calls.clear()
        report = induction_invariance_check(pair, module)
        assert report and len(calls) == long_words * len(module.basis), kind
        calls.clear()
        assert module.orbit_count() == report.induced_invariant_dim
        assert calls == [], kind


def test_invariant_dimension_rejects_a_group_list_that_is_not_a_group():
    # construction takes only a whole product of symmetric groups on the blocks
    # that the list's point images make, so invariant_dimension never sees another
    s3 = young_subgroup(YoungPair(3, 0))
    not_groups = [
        [Permutation.identity(3), Permutation((2, 3, 1))],  # not closed
        s3 + [s3[1]],  # a repeat
        s3[:-1] + [s3[1]],  # a repeat in place of a missing element: 3! elements, one block
        s3[1:],  # no identity
        [Permutation((2, 1))],  # its point images {2}, {1} miss their own points
    ]
    for group in not_groups:
        for basis, act in ((["*"], lambda g, b: b), ([1, 2, 3, 4][: group[0].degree], _point_act)):
            with pytest.raises(ValueError, match="not the product of the symmetric groups"):
                invariant_dimension(PermModule(group, basis, act))
    with pytest.raises(ValueError, match="mixed degrees"):
        trivial_module([Permutation.identity(3), Permutation.identity(4)])
    # Sym({1, 3}) x Sym({2}) is such a product, though not a Young subgroup
    module = natural_module([Permutation.identity(3), Permutation((3, 2, 1))], 3)
    assert module.blocks == ((1, 3), (2,))
    assert module.generators == [Permutation((3, 2, 1))]
    assert invariant_dimension(module) == 2


def _point_act(g, b):
    return g(b)


def test_invariant_dimension_rejects_a_class_table_that_is_not_the_groups(monkeypatch):
    # accepted tables are a genuine action, so only a wrong class table reaches the
    # sum.  Without the class of (1 2) (6 elements fixing 2 points each) the natural
    # module of S_4 sums to 24 - 12, which 24 does not divide; with every class size
    # doubled it sums to 48, which divides by 24, but the average 2 is not its 1 orbit
    table = symgroup.class_table
    wrong_tables = {
        "not an integer": lambda blocks: [c for c in table(blocks) if c[0] != ((2, 1, 1),)],
        "differs from the orbit count":
            lambda blocks: [(t, w, 2 * size) for t, w, size in table(blocks)],
    }
    module = natural_module(young_subgroup(YoungPair(4, 0)), 4)
    assert module.orbit_count() == 1
    for message, wrong_table in wrong_tables.items():
        monkeypatch.setattr(symgroup, "class_table", wrong_table)
        with pytest.raises(ValueError, match=message):
            invariant_dimension(module)


def test_perm_module_rejects_an_action_that_breaks_a_braid_relation():
    # (1 2) and (2 3) act by the involutions (a b) and (c d): each permutes the basis
    # and squares to 1, but their product has order 2, not 3
    s1, s2 = Permutation((2, 1, 3)), Permutation((1, 3, 2))
    swaps = {s1: {"a": "b", "b": "a"}, s2: {"c": "d", "d": "c"}}
    broken = r"breaks \(Permutation\(2, 1, 3\) Permutation\(1, 3, 2\)\)\^3 = 1"
    with pytest.raises(ValueError, match=broken):
        PermModule(young_subgroup(YoungPair(3, 0)), ["a", "b", "c", "d"],
                   lambda g, b: swaps.get(g, {}).get(b, b))
    # over S_2, (1 2) acting as the 4-cycle a -> b -> c -> d -> a permutes the basis
    # but has order 4: construction refuses it, before any invariant is counted
    cycle = dict(zip("abcd", "bcda"))
    with pytest.raises(ValueError, match=r"breaks Permutation\(2, 1\)\^2 = 1"):
        PermModule(young_subgroup(YoungPair(2, 0)), list("abcd"),
                   lambda g, b: cycle[b] if g.images == (2, 1) else b)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_relators_checked_on_a_module_present_the_symmetric_group(n):
    # Todd-Coxeter coset enumeration on the relators PermModule checks for S_n, bounded:
    # relators of an infinite group raise ValueError past 2,000 cosets instead of running on
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    free, *letters = free_group(" ".join(f"s{k}" for k in range(1, n)))
    gens = [g.images for g in trivial_module(young_subgroup(YoungPair(n, 0))).generators]
    relators = [(letters[j] * letters[k]) ** m for j, k, m in symgroup._coxeter_matrix(gens)]
    assert len(relators) == n * (n - 1) // 2
    table = FpGroup(free, relators).coset_enumeration([], max_cosets=2000)
    table.compress()
    assert len(table.table) == math.factorial(n)


def _subset_act(g, subset):
    return frozenset(g(k) for k in subset)


@pytest.mark.parametrize("n, i", [(3, 1), (4, 2), (5, 2)])
def test_perm_module_rejects_induced_action_wrong_on_n_cycle(n, i):
    # The permutation module on i-subsets is the trivial module of S_(n-i) x S_i
    # induced up to S_n.  Construction reads no n-cycle, but (1 2 ... n) is the
    # product of the word (1 2)(2 3)...(n-1 n) of its class, so the Burnside side
    # calls act on it and compares the value with the table composed along the word.
    group = young_subgroup(YoungPair(n, 0))
    subsets = [frozenset(c) for c in itertools.combinations(range(1, n + 1), i)]
    module = PermModule(group, subsets, _subset_act)
    pair = YoungPair(n, i)
    induced = induction_invariance_check(pair, trivial_module(young_subgroup(pair)))
    assert invariant_dimension(module) == induced.induced_invariant_dim == 1
    assert induced.induced_basis_size == len(subsets)
    cycle = Permutation(tuple(range(2, n + 1)) + (1,))

    def backwards_on_cycle(g, subset):
        return _subset_act(g.inverse() if g == cycle else g, subset)

    def collapses_on_cycle(g, subset):
        return subsets[0] if g == cycle else _subset_act(g, subset)

    for act in (backwards_on_cycle, collapses_on_cycle):
        with pytest.raises(ValueError, match="homomorphism"):
            invariant_dimension(PermModule(group, subsets, act))


def test_perm_module_rejects_anti_action_on_young_generators():
    # g acting by g^-1 agrees with the action on every involution, so the identity
    # and the adjacent transpositions of S_3 x S_2 pass with every relation; the
    # class word (1 2)(2 3) has product (1 2 3), on which act gives its inverse
    h = young_subgroup(YoungPair(5, 2))
    module = PermModule(h, list(range(1, 6)), lambda g, b: g.inverse()(b))
    with pytest.raises(ValueError, match="homomorphism"):
        invariant_dimension(module)


def test_act_corrupted_on_any_class_word_is_rejected():
    # construction compares act on the identity and the generators, the products of
    # the class words of length 0 and 1; the Burnside side compares act on every
    # longer word's product with its composed table.  act collapsing the basis on
    # one class word's product raises at one of the two
    late = 0
    for n in range(2, 6):
        for i in range(n + 1):
            pair = YoungPair(n, i)
            h, basis = young_subgroup(pair), list(range(1, n + 1))
            for _, word, _ in symgroup.class_table(pair.blocks):
                product = _word_element(word, n)

                def collapsed(g, b, product=product):
                    return 1 if g == product else g(b)

                if len(word) < 2:
                    with pytest.raises(ValueError, match="homomorphism|does not permute"):
                        PermModule(h, basis, collapsed)
                    continue
                module = PermModule(h, basis, collapsed)
                with pytest.raises(ValueError, match="not a homomorphism"):
                    invariant_dimension(module)
                late += 1
    assert late == 33


def _literal_burnside(module, subgroup):
    # every element of the group list, through act itself
    total = sum(module.act(h, b) == b for h in subgroup for b in module.basis)
    assert total % len(subgroup) == 0
    return total // len(subgroup)


def test_invariant_dimension_by_classes_equals_literal_burnside():
    rng = random.Random(3)
    for n in range(1, 6):
        for i in range(n + 1):
            pair = YoungPair(n, i)
            h = young_subgroup(pair)
            modules = [trivial_module(h), natural_module(h, n), regular_module(h)]
            modules += [random_orbit_module(h, n, rng) for _ in range(3)]
            for module in modules:
                assert invariant_dimension(module) == _literal_burnside(module, h)


@pytest.mark.parametrize("n", range(1, 8))
def test_class_sizes_are_the_block_cycle_type_counts_up_to_degree_7(n):
    # each class's word lies in its class, and its size, prod |B|!/z_lambda, is the
    # count of the subgroup's elements with its block cycle types
    for i in range(n + 1):
        pair = YoungPair(n, i)
        counts = collections.Counter(_block_cycle_types(g, pair) for g in young_subgroup(pair))
        classes = symgroup.class_table(pair.blocks)
        for types, word, size in classes:
            assert _block_cycle_types(_word_element(word, n), pair) == types
            assert counts[types] == size, (pair, types)
        assert len(classes) == len(counts)


def test_invariant_dimension_by_classes_on_groups_with_non_involution_generators():
    # a cyclic and an alternating group on {1, 2, 3, 4} have no generating set of
    # involutions of the kind the class table is built on: each has the one block
    # {1, 2, 3, 4} but not its 4! elements, so every module over them is refused
    # at construction.  S_4, the symmetric group on that block, is valued by classes.
    cycle = Permutation((2, 3, 4, 1))
    cyclic = [Permutation.identity(4), cycle, cycle * cycle, cycle * cycle * cycle]
    alternating = [p for p in young_subgroup(YoungPair(4, 0)) if (4 - len(cycle_type(p))) % 2 == 0]
    rng = random.Random(4)
    for h in (cyclic, alternating, young_subgroup(YoungPair(4, 0))):
        makers = [lambda: natural_module(h, 4), lambda: regular_module(h)]
        makers += [lambda: random_orbit_module(h, 4, rng)] * 3
        for make in makers:
            if len(h) < 24:
                with pytest.raises(ValueError, match="not the product of the symmetric groups"):
                    make()
            else:
                module = make()
                assert module.blocks == ((1, 2, 3, 4),)
                assert invariant_dimension(module) == _literal_burnside(module, h)


def _block_cycle_types(g, pair):
    # the cycle type of g on each block, which determines its class in the subgroup
    types = []
    for block in pair.blocks:
        position = {k: j for j, k in enumerate(block, start=1)}
        types.append(cycle_type(Permutation(tuple(position[g(k)] for k in block))))
    return tuple(types)


def _order_divides(table, m):
    power = table
    for _ in range(m - 1):
        power = [table[x] for x in power]
    return power == list(range(len(table)))


def _relations_hold(tables, gens):
    # (s t)^m = 1 with m = 1 for s = t, 3 for transpositions sharing a point, else 2
    for (s, ts), (t, tt) in itertools.product(zip(gens, tables), repeat=2):
        shared = len({*s} & {*t})
        m = 1 if s == t else 3 if shared else 2
        if not _order_divides([ts[x] for x in tt], m):
            return False
    return True


@pytest.mark.parametrize("n", range(2, 6))
def test_corrupted_generator_is_rejected_or_a_genuine_action(n):
    # swap the images of the first basis point and one other under one adjacent
    # transposition; the module and its check must raise, or the corrupted act must
    # be a genuine action (its tables satisfy every relation) whose invariants are
    # its orbits under the adjacent transpositions, counted here from act's images.
    # S_2 has no relation but s^2 = 1, which every swap keeps, so only n >= 3 rejects
    rejected = {"natural": 0, "regular": 0}
    for i in range(n + 1):
        pair = YoungPair(n, i)
        h = young_subgroup(pair)
        gens = [(a, a + 1) for block in pair.blocks for a in block[:-1]]
        perms = [_transposition(a, b, n) for a, b in gens]
        for kind, basis, act in (("natural", list(range(1, n + 1)), _point_act),
                                 ("regular", list(h), lambda g, b: g * b)):
            for s in perms:
                for other in basis[1:]:
                    swapped = {basis[0]: act(s, other), other: act(s, basis[0])}

                    def corrupted(g, b, s=s, swapped=swapped, act=act):
                        return swapped[b] if g == s and b in swapped else act(g, b)

                    try:
                        report = induction_invariance_check(
                            pair, PermModule(h, basis, corrupted))
                    except ValueError:
                        rejected[kind] += 1
                        continue
                    index = {b: k for k, b in enumerate(basis)}
                    tables = [[index[corrupted(g, b)] for b in basis] for g in perms]
                    assert _relations_hold(tables, gens)
                    assert report.ok
                    assert report.subgroup_invariant_dim == _act_orbits(basis, perms, corrupted)
    assert [kind for kind, count in rejected.items() if (count > 0) != (n > 2)] == [], rejected


def test_induction_check_rejects_wrong_group():
    for pair, n in ((YoungPair(4, 2), 4), (YoungPair(3, 1), 3)):
        with pytest.raises(ValueError):
            induction_invariance_check(pair, trivial_module(young_subgroup(YoungPair(n, 0))))



def test_induction_check_reuses_the_module_group(monkeypatch):
    # the S_6 regular-module operation: 1 validated permutation, the check's one
    # coset representative; the Young subgroup's elements, the module's identity,
    # generators and class-word products are built from known images, unchecked
    built = []
    post_init = Permutation.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Permutation, "__post_init__", counted)
    pair = YoungPair(6, 0)
    assert induction_invariance_check(pair, regular_module(young_subgroup(pair)))
    assert len(built) == 1


def test_induction_check_rejects_coset_representatives_that_are_not_minimal(monkeypatch):
    # (4 3 1 2) = (1 3 4 2) * (1 3) represents the coset of (1 3 4 2) with more
    # inversions, so a move through it needs h = (1 3), not a generator of S_3 x S_1
    pair = YoungPair(4, 1)
    reps = symgroup.young_coset_reps(pair)
    longer = {Permutation((1, 3, 4, 2)): Permutation((4, 3, 1, 2))}
    monkeypatch.setattr(symgroup, "young_coset_reps", lambda y: [longer.get(r, r) for r in reps])
    with pytest.raises(ValueError, match=r"h = Permutation\(3, 2, 1, 4\), which is neither 1 nor"):
        induction_invariance_check(pair, natural_module(young_subgroup(pair), 4))


def test_induction_check_reads_no_act_value_it_does_not_compare():
    # one element at a time outside the identity and the generators acts as the
    # identity; the Burnside side reads act on the product of each class word and
    # compares it with the table composed along the word, so a corrupted product
    # raises, and no side reads any other element
    outcomes = {"raised": 0, "unread": 0}
    for n in range(1, 5):
        for i in range(n + 1):
            pair = YoungPair(n, i)
            h = young_subgroup(pair)
            words = {_word_element(word, n) for _, word, _ in symgroup.class_table(pair.blocks)}
            natural = (list(range(1, n + 1)), _point_act)
            regular = (list(h), lambda g, b: g * b)
            for basis, act in (natural, regular):
                module = PermModule(h, basis, act)
                checked = {h[0], *module.generators}
                report = induction_invariance_check(pair, module)
                for wrong in (g for g in h if g not in checked):
                    corrupted = PermModule(
                        h, basis, lambda g, b, wrong=wrong, act=act: b if g == wrong else act(g, b))
                    try:
                        assert induction_invariance_check(pair, corrupted) == report
                        assert wrong not in words
                        outcomes["unread"] += 1
                    except ValueError as error:
                        assert "action is not a homomorphism" in str(error)
                        assert wrong in words
                        outcomes["raised"] += 1
    assert outcomes == {"raised": 22, "unread": 84}


def test_invariant_dimension_walks_no_second_closure(monkeypatch):
    # no code walks a group: construction reads the blocks off the list, and every
    # walk of the check counts orbits on basis positions through tables
    walks = []
    orbit = symgroup._orbit

    def recorded(start, tables):
        walks.append((start, tables))
        return orbit(start, tables)

    monkeypatch.setattr(symgroup, "_orbit", recorded)
    pair = YoungPair(5, 2)
    module = regular_module(young_subgroup(pair))
    assert walks == []
    assert induction_invariance_check(pair, module)
    assert invariant_dimension(module) == 1
    assert walks and all(type(start) is int and all(type(t) is list for t in tables)
                         for start, tables in walks)


def test_perm_module_rejects_a_basis_with_a_repeated_point():
    with pytest.raises(ValueError, match="duplicates"):
        PermModule(young_subgroup(YoungPair(3, 0)), [1, 1, 2, 3], lambda g, b: g(b))


def _act_orbits(basis, elements, act):
    # orbits of the listed elements acting, through act itself, on every point reached
    seen, orbits = set(), 0
    for start in basis:
        if start not in seen:
            orbits += 1
            seen.add(start)
            frontier = [start]
            while frontier:
                b = frontier.pop()
                for g in elements:
                    c = act(g, b)
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
                assert module.orbit_count() == _act_orbits(module.basis, module.group, module.act)

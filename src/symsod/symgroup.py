"""Symmetric-group bookkeeping: cycle types, Young cosets, induced modules.

Groups are handled at desk scale (degree <= 7, so at most 5040 elements)
and handed in as explicit element lists.  Every module is checked on the
Coxeter presentation of its group (Moore 1897; Coxeter-Moser, "Generators
and Relations for Discrete Groups", 1957) and summed over one word per
conjugacy class, so no code walks a group's closure or conjugates its
elements.  The centrepiece is :func:`induction_invariance_check`, a
decategorified Frobenius-reciprocity test: the dimension of the invariants
of a module induced from a Young subgroup, computed by direct orbit
counting, must equal the dimension of the subgroup invariants of the
original module, computed by the Burnside character average over the
conjugacy classes of the subgroup.  The two sides are computed by
deliberately different algorithms.

What is validated, and where:

- ``Permutation(images)`` stores ``tuple(images)`` and checks that it is a
  permutation of ``int`` images, and calling it checks that its argument
  is an ``int`` in 1..n (a float or bool would pass as the int it equals).
  Products and inverses of permutations skip the first check (a product of
  two permutations of equal degree always is one); the degree check stays.
  :func:`young_subgroup` skips it too: its elements are the
  ``itertools.permutations`` of each block, permutations by construction,
  and the module checks the list as a whole, as it checks any other.
- :class:`PermModule` accepts a group list only if it is exactly the
  product of the symmetric groups Sym(B) on its blocks B: the block of a
  point k is the set of its images g(k) over the list, the blocks must
  partition {1..n} with each point in its own block, and the list must
  hold prod |B|! distinct elements.  A cyclic or alternating group, a
  list that is not closed, and a list with a repeat are all refused.
- The module numbers its basis once (a repeated point is an error) and
  calls ``act`` on the identity, which must fix every point, and on the
  adjacent transpositions (b_k b_(k+1)) of each block, each of which must
  permute the basis.  Their tables (actions by basis position) must
  satisfy the Coxeter relations: s^2 = 1, (s t)^3 = 1 when s and t share
  a point, and (s t)^2 = 1 for every other pair, across blocks too.  These
  present prod Sym(B), so an accepted module's tables define a genuine
  action of its group.
- :func:`invariant_dimension` sums over :func:`class_table`: one word in
  the adjacent transpositions per class, of size prod |B|!/z_lambda
  (Macdonald, "Symmetric Functions and Hall Polynomials", 1995, ch. I).
  It calls ``act`` on the representative of each class whose word has
  length 2 or more and compares the result with the table composed along
  the word ("action is not a homomorphism").  The words of length 0 and 1
  are the identity and a generator, whose tables construction compared
  with ``act`` already, so their fixed points are read from those tables.
  Every ``act`` value the layer reads is thus compared with a table, once.
  The sum must divide by the group order, and the quotient must equal
  ``orbit_count()``, a walk over the generators' tables.
- :func:`induction_invariance_check` builds the induced module's tables
  for the n - 1 adjacent transpositions s of S_n straight from the
  module's generator tables: the coset representatives are minimal, so
  s * g_k = g_j * h with h the identity or an adjacent transposition of
  the subgroup, and any other h raises.  The induced tables must satisfy
  the Coxeter relations of S_n, which with one coset (i = 0 or i = n) they
  do already: they are then the module's generator tables, checked at
  construction.  Their orbits are counted by the same walk.

``Permutation`` is a ``Record`` of one field with its own hash.  Inside the
hot loops permutations are plain image tuples; ``Permutation`` objects
appear only where user code sees them: group lists, the arguments of ``act``
callables, and the basis of :func:`regular_module`.  That module's ``act``
applies one ``operator.itemgetter`` per listed b to the images of g and
returns the listed element g * b, so the basis index finds the very object
it stores.  Tables compose by ``_gather``, one ``operator.itemgetter`` (a
subscript list below two positions), and image tuples by ``map`` over a
``__getitem__`` that the coset moves bind once per generator and per inverse
coset representative: the per-element loops run in C builtins.  The
natural module's ``act`` is ``Permutation.__call__`` itself.  One walk,
``_orbit``, finds every orbit here, by subscript: module orbits and cycles.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Any, Callable, Iterable, Sequence

from ._record import Record, _set
from .partitions import partitions_of


# object's own allocator, bound once: a record refuses attribute assignment, so
# Permutation's unchecked constructors fill its slot through it and ``_set``
_new = object.__new__


class Permutation(Record):
    """A permutation of {1, ..., n} in one-line form: images[k-1] = image of k.

    A record of one field; its own hash, ``hash(images)``, is cheaper than the
    record's field getter.  ``Permutation(images)`` stores ``tuple(images)`` and
    calls ``__post_init__``, the one validating hook; ``_unchecked``, products
    and inverses skip it.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]) -> None:
        _set(self, "images", tuple(images))
        self.__post_init__()

    def __post_init__(self) -> None:
        images = self.images
        n = len(images)
        # a float or bool image would sort and compare like the int it equals
        if set(map(type, images)) - {int} or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """A permutation from an image tuple already known to be one; skips ``__post_init__``."""
        p = _new(cls)
        _set(p, "images", images)
        return p

    def __hash__(self) -> int:
        return hash(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        if type(k) is int and 1 <= k <= len(self.images):
            return self.images[k - 1]
        raise ValueError(f"{k!r} is not a point of 1..{len(self.images)}")

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self * other)(k) = self(other(k))."""
        a, b = self.images, other.images
        if len(a) != len(b):
            raise ValueError("cannot compose permutations of different degrees")
        return Permutation._unchecked(_compose(a, b))

    def inverse(self) -> "Permutation":
        return Permutation._unchecked(_inverse(self.images))

    def __repr__(self) -> str:
        return f"Permutation{self.images}"


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """One-line images of a * b, for image tuples of equal degree."""
    return tuple(map(((0,) + a).__getitem__, b))


def _gather(table: Sequence[int], positions: Sequence[int]) -> list[int]:
    """``[table[p] for p in positions]``, by one ``operator.itemgetter`` over the positions."""
    if len(positions) < 2:  # a getter of one index returns a scalar
        return [table[p] for p in positions]
    return list(operator.itemgetter(*positions)(table))


def _inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for k, img in enumerate(a, start=1):
        inv[img - 1] = k
    return tuple(inv)


def _orbit(start: int, tables: Sequence[Sequence[int]]) -> set[int]:
    """The orbit of ``start`` under the group that ``tables`` generate: every point reached.
    A table sends x to ``table[x]``, a plain subscript with no call per step."""
    orbit = {start}
    frontier = [start]
    for x in frontier:
        for table in tables:
            y = table[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def _orbits(points: Iterable[int], tables: Sequence[Sequence[int]]) -> list[set[int]]:
    """Each orbit that meets ``points``, in the order of ``points``."""
    seen: set = set()
    orbits = []
    for x in points:
        if x not in seen:
            orbit = _orbit(x, tables)
            seen |= orbit
            orbits.append(orbit)
    return orbits


def cycle_type(p: Permutation) -> tuple[int, ...]:
    """The cycle lengths of ``p``, weakly decreasing: a partition of its degree."""
    cycles = _orbits(range(1, p.degree + 1), [(0,) + p.images])
    return tuple(sorted(map(len, cycles), reverse=True))


class YoungPair(Record):
    """The block embedding S_{n-i} x S_i inside S_n.

    The first factor permutes {1, ..., n-i}, the second {n-i+1, ..., n}.
    """

    __slots__ = ("n", "i")

    def __init__(self, n: int, i: int) -> None:
        if type(n) is not int or type(i) is not int:
            raise ValueError(f"need integers n and i, got n={n!r}, i={i!r}")
        if not (0 <= i <= n):
            raise ValueError(f"need 0 <= i <= n, got n={n}, i={i}")
        Record.__init__(self, n, i)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The non-empty blocks {1..n-i} and {n-i+1..n}."""
        n, i = self.n, self.i
        return tuple(block for block in (tuple(range(1, n - i + 1)), tuple(range(n - i + 1, n + 1)))
                     if block)


def young_subgroup(y: YoungPair) -> list[Permutation]:
    """All elements of S_{n-i} x S_i as permutations of {1..n}, in lexicographic order.

    Filled through ``_new`` and ``_set``, as ``Permutation._unchecked`` is, with
    no Python call per element: each is a permutation of the first block
    followed by one of the second.
    """
    n, i = y.n, y.i
    second = list(itertools.permutations(range(n - i + 1, n + 1)))
    group = []
    for a in itertools.permutations(range(1, n - i + 1)):
        for b in second:
            p = _new(Permutation)
            _set(p, "images", a + b)
            group.append(p)
    return group


def young_coset_reps(y: YoungPair) -> list[Permutation]:
    """Lex-minimal representatives of the left cosets S_n / (S_{n-i} x S_i).

    A left coset is determined by where it sends the head block {1, ..., n-i};
    for each (n-i)-subset H the lex-minimal one-line form places H in
    increasing order on positions 1..n-i and the rest in increasing order on
    the remaining positions.  There are C(n, i) representatives; the identity
    represents its own coset.  The heads come in lexicographic order, so the
    list is sorted by one-line form.
    """
    universe = range(1, y.n + 1)
    return [
        Permutation(head + tuple(k for k in universe if k not in head))
        for head in itertools.combinations(universe, y.n - y.i)
    ]


def _blocks(group: Sequence[Permutation]) -> tuple[tuple[int, ...], ...]:
    """The blocks of a group list that is exactly a product of symmetric groups, else ValueError.

    The block of a point k is the set of its images g(k) over the list.  If
    each point lies in its own block and the blocks partition {1..n}, every
    listed element permutes each block; prod |B|! distinct elements are
    then all of prod Sym(B).  The blocks are returned sorted, each as its
    sorted points.
    """
    images = list(map(operator.attrgetter("images"), group))
    n = len(images[0])
    if set(map(len, images)) != {n}:
        raise ValueError("group elements have mixed degrees")
    columns = [frozenset(column) for column in zip(*images)]
    blocks = sorted({tuple(sorted(column)) for column in columns})
    if (
        any(k not in column for k, column in enumerate(columns, start=1))
        or sum(map(len, blocks)) != n
        or len(set(images)) != len(images)
        or len(images) != math.prod(math.factorial(len(block)) for block in blocks)
    ):
        raise ValueError("group list is not the product of the symmetric groups on its blocks")
    return tuple(blocks)


def _adjacent_transpositions(blocks: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The transpositions (b_k b_(k+1)) of consecutive points of each block, as image tuples."""
    n = sum(map(len, blocks))
    gens = []
    for block in blocks:
        for a, b in zip(block, block[1:]):
            images = list(range(1, n + 1))
            images[a - 1], images[b - 1] = b, a
            gens.append(tuple(images))
    return gens


def _coxeter_matrix(gens: Sequence[tuple[int, ...]]) -> list[tuple[int, int, int]]:
    """(j, k, m) for j <= k: the relation (s_j s_k)^m = 1 among adjacent transpositions.

    m is 1 for j = k (s^2 = 1), 3 when s_j and s_k share a point and 2
    otherwise; with these relations the adjacent transpositions of the
    blocks present the product of the symmetric groups on them.
    """
    moved = [{k for k, image in enumerate(g, start=1) if image != k} for g in gens]
    return [(j, k, 1 if j == k else 3 if moved[j] & moved[k] else 2)
            for j in range(len(gens)) for k in range(j, len(gens))]


def _check_relations(gens: Sequence[tuple[int, ...]], tables: Sequence[list[int]]) -> None:
    """Raise unless the tables of the adjacent transpositions ``gens`` satisfy their relations."""
    if not tables:
        return
    identity = list(range(len(tables[0])))
    for j, k, m in _coxeter_matrix(gens):
        product = _gather(tables[j], tables[k])
        power = product
        for _ in range(m - 1):
            power = _gather(product, power)
        if power != identity:
            relation = f"{Permutation(gens[j])!r}^2" if j == k else (
                f"({Permutation(gens[j])!r} {Permutation(gens[k])!r})^{m}")
            raise ValueError(f"action is not a homomorphism: it breaks {relation} = 1")


def class_table(
    blocks: Sequence[Sequence[int]],
) -> list[tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], int]]:
    """(cycle types, word, size) for each conjugacy class of the product of Sym(B) over ``blocks``.

    The cycle types are one partition per block; the word is a tuple of
    adjacent transpositions of the blocks (image tuples) whose product lies
    in the class; the size is prod |B|!/z_lambda, z_lambda = prod_k
    k^(m_k) m_k! for a partition with m_k parts k.  A part l takes the next
    l points p, q, ..., r of its block, and its cycle (p q ... r) is the
    product (p q)(q ...)...(... r) of the transpositions along it.
    """
    gens = iter(_adjacent_transpositions(blocks))
    per_block = []
    for block in blocks:
        letters = [next(gens) for _ in block[1:]]
        entries = []
        for shape in partitions_of(len(block)):
            word, start, z = [], 0, 1
            for j, part in enumerate(shape):
                word += letters[start:start + part - 1]
                start += part
                # equal parts are adjacent, so this is the run of parts equal to part so far
                z *= part * (j + 1 - shape.index(part))
            entries.append((shape, tuple(word), math.factorial(len(block)) // z))
        per_block.append(entries)
    return [
        (tuple(shape for shape, _, _ in combo), sum((word for _, word, _ in combo), ()),
         math.prod(size for _, _, size in combo))
        for combo in itertools.product(*per_block)
    ]


class PermModule:
    """A finite permutation module: a basis with a group acting on it.

    ``group`` lists every element of the acting group, which must be a
    product of symmetric groups on the blocks of {1..n} (``_blocks``), for
    instance a Young subgroup.  ``act(g, b)`` receives a ``Permutation`` of
    the group and a basis point and must return a basis point.  The basis
    must not repeat a point; ``_index`` numbers it.  ``generators`` are the
    adjacent transpositions of the blocks; construction calls ``act`` only
    on the identity and on them, and checks that

    - the identity fixes every basis point;
    - each generator maps the basis onto itself;
    - the generators' tables satisfy the Coxeter relations
      (``_coxeter_matrix``).

    ``_tables`` maps the images of the identity and of each generator to
    its table, its action as basis positions; nothing else is kept.
    """

    def __init__(
        self,
        group: Sequence[Permutation],
        basis: Sequence[Any],
        act: Callable[[Permutation, Any], Any],
    ):
        if not basis:
            raise ValueError("module basis must be non-empty")
        if not group:
            raise ValueError("module group must be non-empty")
        self.group = list(group)
        self.basis = list(basis)
        self._index = {b: k for k, b in enumerate(self.basis)}
        if len(self._index) != len(self.basis):
            raise ValueError("module basis contains duplicates")
        self.act = act
        self.blocks = _blocks(self.group)
        identity = Permutation._unchecked(tuple(range(1, self.group[0].degree + 1)))
        self._tables = {identity.images: self._checked(identity, list(range(len(self.basis))))}
        gens = _adjacent_transpositions(self.blocks)
        self.generators = [Permutation._unchecked(g) for g in gens]
        for g in self.generators:
            table = self._tables[g.images] = self._positions(g)
            if None in table or len(set(table)) != len(table):
                raise ValueError(f"{g!r} does not permute the basis")
        _check_relations(gens, [self._tables[g] for g in gens])

    def _positions(self, g: Permutation) -> list[int | None]:
        """``act``'s images of g as basis positions (None for a point outside the basis)."""
        index, act = self._index.get, self.act
        return [index(act(g, b)) for b in self.basis]

    def _checked(self, g: Permutation, table: list[int]) -> list[int]:
        """``table``, once ``act``'s images of g are found to agree with it."""
        if self._positions(g) != table:
            raise ValueError(f"action is not a homomorphism: act of {g!r} contradicts its table")
        return table

    def _word_fixed_points(self, word: Sequence[tuple[int, ...]]) -> int:
        """How many basis points the product of ``word`` fixes, read from the table composed
        along the word.  For a word of length 2 or more, ``act`` on the product must agree
        with it first; a shorter word is the identity or a generator, whose table
        construction compared with ``act``."""
        images = identity = tuple(range(1, self.group[0].degree + 1))
        table = self._tables[identity]
        for letter in word:
            images = _compose(images, letter)
            table = _gather(table, self._tables[letter])
        if len(word) > 1:
            table = self._checked(Permutation._unchecked(images), table)
        return sum(map(operator.eq, table, range(len(table))))

    def orbit_count(self) -> int:
        """Number of orbits of the group on the basis, walked on the generators' tables."""
        tables = [self._tables[g.images] for g in self.generators]
        return len(_orbits(range(len(self.basis)), tables))


def trivial_module(group: Sequence[Permutation]) -> PermModule:
    return PermModule(group, ["*"], lambda g, b: b)


def natural_module(group: Sequence[Permutation], n: int) -> PermModule:
    return PermModule(group, list(range(1, n + 1)), Permutation.__call__)


def regular_module(group: Sequence[Permutation]) -> PermModule:
    """The group acting on its own list by left multiplication, g . b = g * b.

    ``act`` returns the listed element whose images are those of g * b, so
    the basis index finds the very object it stores, with no ``Permutation``
    built and no ``__eq__`` call; a product outside the list (g or b not in
    the group, or of another degree) is ``g * b`` itself.
    """
    own = {h.images: h for h in group}.get
    # right multiplication by each listed h on image tuples: (g * h).images is
    # right(h.images)(g.images); below degree 2 h is the identity, and a getter
    # of one index would return a scalar
    right = {h.images: operator.itemgetter(*[j - 1 for j in h.images])
             if len(h.images) > 1 else tuple for h in group}.get

    def act(g: Permutation, b: Permutation) -> Permutation:
        a, images = g.images, b.images
        take = len(a) == len(images) and right(images)
        return take and own(take(a)) or g * b

    return PermModule(group, list(group), act)


_RANDOM_ORBIT_MAX_POINTS = 12


def random_orbit_module(group: Sequence[Permutation], n: int, rng) -> PermModule:
    """A random union of orbits of the group acting on small tuples over {1..n}.

    Orbits of coordinatewise actions on k-tuples (k <= 3) are accumulated
    while they fit under ``_RANDOM_ORBIT_MAX_POINTS`` points; singleton-block
    orbits always fit, so the result is never empty.
    """

    def tuple_act(g: Permutation, t: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(g(x) for x in t)

    points: set[tuple[int, ...]] = set()
    for _ in range(8):
        k = rng.randint(1, 3)
        seed = tuple(rng.randint(1, n) for _ in range(k))
        orbit = {tuple_act(g, seed) for g in group}
        if points | orbit == points:
            continue
        if len(points | orbit) <= _RANDOM_ORBIT_MAX_POINTS:
            points |= orbit
    if not points:
        seed = (rng.randint(1, n),)
        points = {tuple_act(g, seed) for g in group}
    return PermModule(group, sorted(points), tuple_act)


def invariant_dimension(m: PermModule) -> int:
    """Dimension of the invariants of the linearized module under its group H.

    Burnside: (1/|H|) * sum over h in H of the fixed-point count of h.  A
    fixed-point count is constant on each conjugacy class, so the sum runs
    over :func:`class_table`: class size times the fixed points of the
    class's word, read from the table composed along the word.  ``act`` on
    the product of each word of length 2 or more is checked against that
    table; the identity and the generators, the words of length 0 and 1,
    were checked at construction.  The sum must divide by |H|, and the
    quotient must equal ``m.orbit_count()``, the orbits walked on the
    generators' tables.
    """
    total = sum(size * m._word_fixed_points(word) for _, word, size in class_table(m.blocks))
    dim, remainder = divmod(total, len(m.group))
    if remainder:
        raise ValueError("fixed-point average is not an integer; not a group action?")
    if dim != m.orbit_count():
        raise ValueError("fixed-point average differs from the orbit count; not a group action?")
    return dim


class InductionReport(Record):
    """Outcome of the induced-invariants vs. subgroup-invariants comparison."""

    __slots__ = (
        "ok", "pair", "induced_invariant_dim", "subgroup_invariant_dim", "induced_basis_size"
    )

    def __bool__(self) -> bool:
        return self.ok


def induction_invariance_check(y: YoungPair, m: PermModule) -> InductionReport:
    """Frobenius reciprocity for the trivial character, made executable.

    The module ``m`` over H = S_{n-i} x S_i is induced up to G = S_n on the
    basis {(coset k, basis position b of m)}, numbered k * |basis| + b.  For
    each adjacent transposition s of G and each coset representative g_k,
    ``s * g_k = g_j * h`` carries (k, b) to (j, h.b).  The lex-minimal
    representatives are minimal in length, so h is the identity or an
    adjacent transposition of H, and h.b is read from m's table for it;
    any other h raises.  The induced tables must satisfy the Coxeter
    relations of G, and their orbits, the dimension of the G-invariants,
    are compared with the Burnside dimension of the H-invariants of ``m``.
    """
    if m.blocks != y.blocks:
        raise ValueError("module is not defined over the Young subgroup of the given pair")
    n, size = y.n, len(m.basis)
    reps = [r.images for r in young_coset_reps(y)]
    unrep = [((0,) + _inverse(r)).__getitem__ for r in reps]
    head = n - y.i  # a coset is read off the images of the tail block, positions head + 1..n
    coset = {frozenset(r[head:]): j for j, r in enumerate(reps)}.__getitem__
    gens = _adjacent_transpositions([range(1, n + 1)])
    tables = []
    for s in gens:
        move, table = ((0,) + s).__getitem__, []
        for r in reps:
            x = tuple(map(move, r))  # s * g_k = g_j * h
            j = coset(frozenset(x[head:]))
            h = tuple(map(unrep[j], x))  # g_j^-1 * x
            h_table = m._tables.get(h)
            if h_table is None:
                raise ValueError(f"s * g_k = g_j * h with h = {Permutation(h)!r}, "
                                 "which is neither 1 nor a generator of the subgroup")
            table += map((j * size).__add__, h_table)
        tables.append(table)
    if len(reps) > 1:
        # with one coset (i = 0 or i = n) the induced tables are m's generator
        # tables, which construction checked against these very relations
        _check_relations(gens, tables)
    induced_dim = len(_orbits(range(len(reps) * size), tables))
    subgroup_dim = invariant_dimension(m)
    return InductionReport(
        induced_dim == subgroup_dim, y, induced_dim, subgroup_dim, len(reps) * size
    )

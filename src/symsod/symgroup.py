"""Symmetric-group bookkeeping: cycle types, Young cosets, induced modules.

Groups are handled at desk scale (degree <= 7, so at most 5040 elements) and
always as explicit element lists; exhaustive verification beats generality
here.  The centrepiece is :func:`induction_invariance_check`, a
decategorified Frobenius-reciprocity test: the dimension of the invariants
of a module induced from a Young subgroup, computed by direct orbit
counting, must equal the dimension of the subgroup invariants of the
original module, computed by the Burnside character average over the
conjugacy classes of the subgroup.  The two sides are computed by
deliberately different algorithms.

What is validated, and where:

- ``Permutation(images)`` checks that the images are a permutation, and
  calling it checks that its argument lies in 1..n.  Products and inverses
  of permutations skip the first check (a product of two permutations of
  equal degree always is one); the degree check stays.
- :class:`PermModule` numbers its basis once (a repeated point is an
  error) and checks ``act`` on construction, on a small generating subset
  of its group list ((1 2) and (1 2 ... n) for S_n, at most such a pair
  per block of S_(n-i) x S_i): the identity, each generator and each
  ordered pair of generators, at most 1 + 4 + 16 calls per basis point.
- Every other element's table is composed from the generators' tables
  along its path in the module's one walk of its group, with no ``act``
  call.  Afterwards only ``fixed_points`` (the Burnside side) calls
  ``act``, and it compares each value with the composed table ("action is
  not a homomorphism" when they differ): every ``act`` value the layer
  reads is compared.  Relations among the generators beyond their pairwise
  products are not checked one by one; an action that breaks one but agrees
  with every composed table is left to :func:`invariant_dimension`, whose
  Burnside average must divide and must equal the orbit count.  A break
  that keeps both counts equal still passes.
- :func:`invariant_dimension` checks that the module's group list is a
  whole group: no duplicates, the identity present, and the same set as the
  module's walk of its generators (so it is closed).  It walks no closure.
- The induced module of :func:`induction_invariance_check` is checked on,
  and counts its orbits under, (1 2) and (1 2 ... n), which generate S_n.
  Its basis is (coset index, basis position), its action reads the composed
  tables of ``m``, and it needs no closure; ``orbit_count`` walks the
  generators' tables.

Inside the hot loops permutations are plain image tuples; ``Permutation``
objects appear only where user code sees them: group lists, the arguments
of ``act`` callables, and the basis of :func:`regular_module`.  One walk,
``_orbit``, finds every orbit here: group closures, conjugacy classes,
module orbits and cycles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in one-line form: images[k-1] = image of k."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """A permutation from images already known to be one; skips ``__post_init__``."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        if 1 <= k <= len(self.images):
            return self.images[k - 1]
        raise ValueError(f"{k} is not a point of 1..{len(self.images)}")

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self * other)(k) = self(other(k))."""
        if len(self.images) != len(other.images):
            raise ValueError("cannot compose permutations of different degrees")
        return Permutation._unchecked(_compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation._unchecked(_inverse(self.images))

    def __repr__(self) -> str:
        return f"Permutation{self.images}"


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """One-line images of a * b, for image tuples of equal degree."""
    return tuple([a[j - 1] for j in b])


def _inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for k, img in enumerate(a, start=1):
        inv[img - 1] = k
    return tuple(inv)


def _orbit(start: Any, gens: Sequence[Any], act: Callable[[Any, Any], Any]) -> dict:
    """The orbit of ``start`` under the group that ``gens`` generate, walked breadth first.

    Maps each point y to a pair (g, x), x reached before y, with
    ``act(g, x) == y``, and ``start`` to ``None``; so the path back from any
    point to ``start`` is no longer than the diameter of the Schreier graph.
    """
    orbit: dict = {start: None}
    frontier = [start]
    for x in frontier:
        for g in gens:
            y = act(g, x)
            if y not in orbit:
                orbit[y] = (g, x)
                frontier.append(y)
    return orbit


def _orbits(
    points: Iterable[Any], gens: Sequence[Any], act: Callable[[Any, Any], Any]
) -> list[tuple[Any, dict]]:
    """(first point, orbit) for each orbit that meets ``points``, in the order of ``points``."""
    seen: set = set()
    orbits = []
    for x in points:
        if x not in seen:
            orbit = _orbit(x, gens, act)
            seen.update(orbit)
            orbits.append((x, orbit))
    return orbits


def cycle_type(p: Permutation) -> tuple[int, ...]:
    """The cycle lengths of ``p``, weakly decreasing: a partition of its degree."""
    cycles = _orbits(range(1, p.degree + 1), [p], Permutation.__call__)
    return tuple(sorted((len(cycle) for _, cycle in cycles), reverse=True))


@dataclass(frozen=True)
class YoungPair:
    """The block embedding S_{n-i} x S_i inside S_n.

    The first factor permutes {1, ..., n-i}, the second {n-i+1, ..., n}.
    """

    n: int
    i: int

    def __post_init__(self) -> None:
        if not (0 <= self.i <= self.n):
            raise ValueError(f"need 0 <= i <= n, got n={self.n}, i={self.i}")


def _young_images(y: YoungPair) -> list[tuple[int, ...]]:
    """The one-line forms of the elements of S_{n-i} x S_i."""
    n, i = y.n, y.i
    first = list(itertools.permutations(range(1, n - i + 1)))
    second = list(itertools.permutations(range(n - i + 1, n + 1)))
    return [a + b for a in first for b in second]


def young_subgroup(y: YoungPair) -> list[Permutation]:
    """All elements of S_{n-i} x S_i as permutations of {1..n}, in lexicographic order."""
    return [Permutation(images) for images in _young_images(y)]


def symmetric_group(n: int) -> list[Permutation]:
    """All of S_n in lexicographic one-line order (n <= 7 intended)."""
    return young_subgroup(YoungPair(n, 0))


def young_coset_reps(y: YoungPair) -> list[Permutation]:
    """Lex-minimal representatives of the left cosets S_n / (S_{n-i} x S_i).

    A left coset is determined by where it sends the top block
    {n-i+1, ..., n}; for each i-subset T the lex-minimal one-line form places
    the complement of T in increasing order on positions 1..n-i and T in
    increasing order on the remaining positions.  There are C(n, i)
    representatives; the identity represents its own coset.  The list is
    sorted by one-line form.
    """
    n, i = y.n, y.i
    universe = range(1, n + 1)
    reps = []
    for subset in itertools.combinations(universe, i):
        chosen = set(subset)
        complement = tuple(k for k in universe if k not in chosen)
        reps.append(Permutation(complement + subset))
    reps.sort(key=lambda p: p.images)
    return reps


def _swap_and_cycle(points: Iterable[int], n: int) -> list[tuple[int, ...]]:
    """The transposition of the two smallest ``points`` and their increasing cycle, on 1..n.

    The two generate the full symmetric group on ``points``; there is one
    element for two points and none for fewer.
    """
    points = sorted(points)
    if len(points) < 2:
        return []
    swap, cycle = list(range(1, n + 1)), list(range(1, n + 1))
    swap[points[0] - 1], swap[points[1] - 1] = points[1], points[0]
    for k, image in zip(points, points[1:] + points[:1]):
        cycle[k - 1] = image
    return list(dict.fromkeys((tuple(swap), tuple(cycle))))


def _generating_subset(elements: Sequence[Permutation]) -> tuple[list[Permutation], dict | None]:
    """A small generating subset of a (purported) subgroup given as a list, and its closure.

    For each orbit of the listed elements on {1..n}, the seeds are
    ``_swap_and_cycle`` of the orbit, wherever the list holds them (they are
    looked up in the list, not built), so a product of full symmetric groups
    on its orbits, such as S_n or a Young subgroup, gets at most two
    generators per orbit.  It keeps the seeds, then scans the list in order
    and keeps each element that the ones kept before it do not generate.
    The closure of the kept elements (an ``_orbit`` of the identity under
    ``_compose``) is recomputed only when an element not yet kept has to be
    tested against it, so a list whose seeds generate it costs one closure,
    and a list of seeds alone none.  The last closure is returned if it is
    still the closure of the kept elements, and ``None`` otherwise.
    """
    n = elements[0].degree
    if any(p.degree != n for p in elements):
        raise ValueError("group elements have mixed degrees")
    identity = tuple(range(1, n + 1))
    by_images = {p.images: p for p in elements}
    gens: dict[tuple[int, ...], Permutation] = {}
    for _, orbit in _orbits(range(1, n + 1), list(by_images), lambda g, k: g[k - 1]):
        for g in _swap_and_cycle(orbit, n):
            if g in by_images:
                gens[g] = by_images[g]
    closure: dict = {identity: None}
    stale = bool(gens)
    for x in elements:
        if x.images in gens:
            continue
        if stale:
            closure = _orbit(identity, list(gens), _compose)
            stale = False
        if x.images not in closure:
            gens[x.images] = x
            stale = True
    return list(gens.values()), None if stale else closure


def _conjugate(
    pair: tuple[tuple[int, ...], tuple[int, ...]], x: tuple[int, ...]
) -> tuple[int, ...]:
    """g * x * g^-1 for the pair (g, g^-1) of image tuples."""
    g, g_inv = pair
    return tuple([g[x[j - 1] - 1] for j in g_inv])


def _conjugacy_classes(
    by_images: dict[tuple[int, ...], Permutation], gens: Sequence[Permutation]
) -> list[tuple[Permutation, int]]:
    """(representative, size) for each conjugacy class of a group keyed by image tuples.

    ``gens`` must generate the group.  The classes are the orbits of the
    group on itself under conjugation by the generators; each representative
    is the first element of its class in key order.
    """
    conjugators = [(g.images, _inverse(g.images)) for g in gens]
    return [(by_images[h], len(cls)) for h, cls in _orbits(by_images, conjugators, _conjugate)]


class PermModule:
    """A finite permutation module: a basis with a group acting on it.

    ``group`` lists elements of the acting group: all of them, or any list
    that generates the group (:func:`invariant_dimension` needs all of them).
    ``act(g, b)`` receives a ``Permutation`` of the group and a basis point
    and must return a basis point.  ``generators`` is a small generating
    subset of ``group`` (``_generating_subset``), for a Young subgroup at
    most one transposition and one cycle per block.  The basis must not
    repeat a point; ``_index`` numbers it.  Construction checks ``act`` on
    the generators:

    - the identity fixes every basis point;
    - each generator maps the basis onto itself;
    - ``act(g * h, b) == act(g, act(h, b))`` for every ordered pair (g, h) of
      generators and every basis point b.

    ``_table(images)`` is an element's action as basis positions: the
    generators' tables come from ``act``, every other table is composed along
    the element's path in the closure of the generators (the one walk of the
    group, handed over by ``_generating_subset`` or made when first needed).
    ``fixed_points``, the Burnside side, is the only later caller of ``act``
    and compares every value it gets with the composed table.
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
        self._tables: dict[tuple[int, ...], list[int]] = {}
        self.generators, self._closure = _generating_subset(self.group)
        self._validate()

    def _checked(self, g: Permutation, table: list[int]) -> list[int | None]:
        """``act``'s images of g as basis positions, checked against ``table``, which is kept."""
        positions = [self._index.get(self.act(g, b)) for b in self.basis]
        if positions != table:
            raise ValueError(f"action is not a homomorphism: act of {g!r} contradicts its table")
        self._tables[g.images] = table
        return positions

    def _group_closure(self) -> dict:
        """The ``_orbit`` of the identity under the generators and ``_compose``, made once."""
        if self._closure is None:
            identity = tuple(range(1, self.group[0].degree + 1))
            self._closure = _orbit(identity, [g.images for g in self.generators], _compose)
        return self._closure

    def _table(self, images: tuple[int, ...]) -> list[int]:
        """The action of the element with these images as basis positions, calling no ``act``.

        A table not yet kept is composed from the generators' tables along
        the element's path in the closure, and only the result is kept.
        """
        tables = self._tables
        if images in tables:
            return tables[images]
        path, x = [], images
        while x not in tables:
            step = self._group_closure().get(x)
            if step is None:
                raise ValueError(f"Permutation{images} is not in the module's group")
            path.append(tables[step[0]])
            x = step[1]
        table = tables[x]
        for generator in reversed(path):
            table = [generator[k] for k in table]
        tables[images] = table
        return table

    def _validate(self) -> None:
        self._checked(Permutation.identity(self.group[0].degree), list(range(len(self.basis))))
        for g in self.generators:
            table = self._tables[g.images] = [self._index.get(self.act(g, b)) for b in self.basis]
            if None in table or len(set(table)) != len(table):
                raise ValueError(f"{g!r} does not permute the basis")
        for g, h in itertools.product(self.generators, repeat=2):
            tg, th = self._tables[g.images], self._tables[h.images]
            self._checked(g * h, [tg[k] for k in th])

    def fixed_points(self, g: Permutation) -> int:
        """How many basis points ``act`` says g fixes, each image compared with g's table first."""
        positions = self._checked(g, self._table(g.images))
        return sum(1 for k, position in enumerate(positions) if position == k)

    def orbit_count(self) -> int:
        """Number of orbits of the group on the basis, walked on the generators' tables."""
        tables = [self._table(g.images) for g in self.generators]
        return len(_orbits(range(len(self.basis)), tables, list.__getitem__))


def trivial_module(group: Sequence[Permutation]) -> PermModule:
    return PermModule(group, ["*"], lambda g, b: b)


def natural_module(group: Sequence[Permutation], n: int) -> PermModule:
    return PermModule(group, list(range(1, n + 1)), lambda g, b: g(b))


def regular_module(group: Sequence[Permutation]) -> PermModule:
    return PermModule(group, list(group), lambda g, b: g * b)


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
    """Dimension of the invariants of the linearized module under its group.

    Burnside: (1/|H|) * sum over h in H of the fixed-point count of h, for
    H = ``m.group``, which must be a whole group: no duplicates, the
    identity present, and the same set as the module's closure of
    ``m.generators``.  A fixed-point count is constant on each conjugacy
    class of H, so the sum runs over the classes (the orbits of H on itself
    under conjugation by ``m.generators``): class size times the fixed
    points of one representative, each ``act`` value checked against its
    composed table.  The sum must divide by |H|, and the quotient must equal
    ``m.orbit_count()``, the orbits walked on the generators' tables: an
    action that breaks a relation among the generators while agreeing with
    every composed table fails one of the two, unless it keeps both counts
    equal, which still passes.
    """
    by_images = {h.images: h for h in m.group}
    if len(by_images) != len(m.group):
        raise ValueError("group element list contains duplicates")
    identity = tuple(range(1, m.group[0].degree + 1))
    if identity not in by_images:
        raise ValueError("group element list must contain the identity")
    if m._group_closure().keys() != by_images.keys():
        raise ValueError("group element list is not closed under composition/inverse")
    classes = _conjugacy_classes(by_images, m.generators)
    total = sum(size * m.fixed_points(rep) for rep, size in classes)
    dim, remainder = divmod(total, len(m.group))
    if remainder:
        raise ValueError("fixed-point average is not an integer; not a group action?")
    if dim != m.orbit_count():
        raise ValueError("fixed-point average differs from the orbit count; not a group action?")
    return dim


@dataclass(frozen=True)
class InductionReport:
    """Outcome of the induced-invariants vs. subgroup-invariants comparison."""

    ok: bool
    pair: YoungPair
    induced_invariant_dim: int
    subgroup_invariant_dim: int
    induced_basis_size: int

    def __bool__(self) -> bool:
        return self.ok


def induction_invariance_check(y: YoungPair, m: PermModule) -> InductionReport:
    """Frobenius reciprocity for the trivial character, made executable.

    The module ``m`` over H = S_{n-i} x S_i is induced up to G = S_n on the
    basis {(coset j, basis position b of m)}: for g in G and each summand
    index k, the element h in H and rep index j with ``g * g_k = g_j * h``
    carry (k, b) to (j, h.b).  The move (j, h) is found once per (g, k), and
    h.b is read from h's table in ``m``.  The induced module is validated
    on, and its orbits are counted under, the transposition (1 2) and the
    n-cycle (1 2 ... n), which generate G.  The number of orbits, the
    dimension of the G-invariants, is compared with the Burnside dimension
    of the H-invariants of ``m``.
    """
    n = y.n
    if {h.images for h in m.group} != set(_young_images(y)):
        raise ValueError("module is not defined over the Young subgroup of the given pair")

    reps = [r.images for r in young_coset_reps(y)]
    rep_inverses = [_inverse(r) for r in reps]
    top = range(n - y.i + 1, n + 1)
    rep_index = {frozenset(r[t - 1] for t in top): j for j, r in enumerate(reps)}
    moves: dict[tuple[tuple[int, ...], int], tuple[int, list[int]]] = {}

    def induced_act(g: Permutation, point: tuple[int, int]) -> tuple[int, int]:
        k, b = point
        move = moves.get((g.images, k))
        if move is None:
            x = _compose(g.images, reps[k])  # g * g_k = g_j * h
            j = rep_index[frozenset(x[t - 1] for t in top)]
            move = moves[g.images, k] = (j, m._table(_compose(rep_inverses[j], x)))
        j, table = move
        return (j, table[b])

    induced_basis = [(j, b) for j in range(len(reps)) for b in range(len(m.basis))]
    gens = [Permutation(g) for g in _swap_and_cycle(range(1, n + 1), n)]
    induced = PermModule(gens or [Permutation.identity(n)], induced_basis, induced_act)
    induced_dim = induced.orbit_count()
    subgroup_dim = invariant_dimension(m)
    return InductionReport(
        ok=induced_dim == subgroup_dim,
        pair=y,
        induced_invariant_dim=induced_dim,
        subgroup_invariant_dim=subgroup_dim,
        induced_basis_size=len(induced_basis),
    )

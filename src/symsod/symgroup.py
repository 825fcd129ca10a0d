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

- ``Permutation(images)`` checks that the images are a permutation.  Products
  and inverses of permutations skip that check (a product of two
  permutations of equal degree always is one); the degree check stays.
- :func:`validate_subgroup` checks that an element list is exactly the group
  generated by a greedily chosen subset of it, and returns that subset.
- :class:`PermModule` checks the action on the greedy generating subset of
  the group list it is given: the identity fixes every basis point, each
  generator maps the basis onto itself, and the homomorphism identity holds
  for every ordered pair of generators on every basis point.
- The induced module of :func:`induction_invariance_check` is given the
  transposition (1 2) and the n-cycle (1 2 ... n), which generate S_n, so it
  is checked on exactly those two, the generators its orbits are counted
  under.

Inside the hot loops permutations are plain image tuples; ``Permutation``
objects appear only where user code sees them: group lists, the arguments
of ``act`` callables, and the basis of :func:`regular_module`.
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
        return self.images[k - 1]

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


def cycle_type(p: Permutation) -> tuple[int, ...]:
    """The cycle lengths of ``p``, weakly decreasing: a partition of its degree."""
    seen = [False] * p.degree
    lengths = []
    for start in range(1, p.degree + 1):
        if seen[start - 1]:
            continue
        length = 0
        k = start
        while not seen[k - 1]:
            seen[k - 1] = True
            k = p(k)
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def symmetric_group(n: int) -> list[Permutation]:
    """All of S_n in lexicographic one-line order (n <= 7 intended)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return [Permutation(imgs) for imgs in itertools.permutations(range(1, n + 1))]


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
    """All elements of S_{n-i} x S_i as permutations of {1..n}."""
    return [Permutation(images) for images in _young_images(y)]


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


def _generating_subset(elements: Sequence[Permutation]) -> list[Permutation]:
    """A small generating subset of a (purported) subgroup given as a list.

    Scans the list in order and keeps each element that the ones kept before
    it do not generate.  The closure of the kept elements is recomputed only
    when the next element has to be tested against it.
    """
    if not elements:
        return []
    n = elements[0].degree
    if any(p.degree != n for p in elements):
        raise ValueError("group elements have mixed degrees")
    identity = tuple(range(1, n + 1))
    gens: list[Permutation] = []
    closure = {identity}
    stale = False
    for x in elements:
        if stale:
            closure = _mulclose([g.images for g in gens], identity)
            stale = False
        if x.images not in closure:
            gens.append(x)
            stale = True
    return gens


def _mulclose(gens: Sequence[tuple[int, ...]], identity: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The group generated by ``gens``, as image tuples."""
    closure = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = _compose(g, x)
                if y not in closure:
                    closure.add(y)
                    new.append(y)
        frontier = new
    return closure


def validate_subgroup(elements: Sequence[Permutation]) -> list[Permutation]:
    """Raise ValueError unless ``elements`` is exactly a subgroup of S_n.

    Checks that the set equals the group generated by a greedily chosen
    generating subset; this implies closure under composition and inverse
    without the quadratic all-pairs scan.  Returns that generating subset.
    """
    if not elements:
        raise ValueError("empty element list is not a subgroup")
    as_set = {p.images for p in elements}
    if len(as_set) != len(elements):
        raise ValueError("subgroup element list contains duplicates")
    gens = _generating_subset(elements)
    identity = tuple(range(1, elements[0].degree + 1))
    if identity not in as_set:
        raise ValueError("subgroup must contain the identity")
    if _mulclose([g.images for g in gens], identity) != as_set:
        raise ValueError("element list is not closed under composition/inverse")
    return gens


def _conjugacy_classes(
    elements: Sequence[Permutation], gens: Sequence[Permutation]
) -> list[tuple[Permutation, int]]:
    """(representative, size) for each conjugacy class of the group ``elements``.

    ``gens`` must generate the group.  The classes are the orbits of the
    group on itself under conjugation by the generators; each representative
    is the first element of its class in list order.
    """
    conjugators = [(g.images, _inverse(g.images)) for g in gens]
    seen: set[tuple[int, ...]] = set()
    classes = []
    for h in elements:
        if h.images in seen:
            continue
        orbit = {h.images}
        frontier = [h.images]
        while frontier:
            x = frontier.pop()
            for g, g_inv in conjugators:
                y = tuple([g[x[j - 1] - 1] for j in g_inv])  # g * x * g^-1
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        classes.append((h, len(orbit)))
    return classes


class PermModule:
    """A finite permutation module: a basis with a group acting on it.

    ``group`` lists elements of the acting group: all of them, or any list
    that generates the group.  ``act(g, b)`` receives a ``Permutation`` of
    the group and a basis point and must return a basis point.  The module
    is validated once, on construction, on the greedy generating subset of
    ``group`` (``_generating_subset``):

    - the identity fixes every basis point;
    - each generator maps the basis onto itself;
    - ``act(g * h, b) == act(g, act(h, b))`` for every ordered pair (g, h) of
      generators and every basis point b.

    Elements other than the identity, the generators and their pairwise
    products are trusted to act consistently with them.
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
        self.act = act
        self._validate()

    def _validate(self) -> None:
        identity = Permutation.identity(self.group[0].degree)
        basis_set = set(self.basis)
        for b in self.basis:
            if self.act(identity, b) != b:
                raise ValueError(f"identity does not fix basis point {b!r}")
        gens = _generating_subset(self.group)
        images = []
        for g in gens:
            image = [self.act(g, b) for b in self.basis]
            if set(image) != basis_set:
                raise ValueError(f"{g!r} does not permute the basis")
            images.append(dict(zip(self.basis, image)))
        for g, g_image in zip(gens, images):
            for h, h_image in zip(gens, images):
                gh = g * h
                for b in self.basis:
                    if self.act(gh, b) != g_image[h_image[b]]:
                        raise ValueError("action is not a homomorphism on generators")

    def fixed_points(self, g: Permutation) -> int:
        return sum(1 for b in self.basis if self.act(g, b) == b)

    def orbit_count(self, generators: Iterable[Permutation]) -> int:
        """Number of orbits on the basis under the group generated by ``generators``."""
        gens = list(generators)
        remaining = set(self.basis)
        orbits = 0
        while remaining:
            seed = remaining.pop()
            frontier = [seed]
            while frontier:
                x = frontier.pop()
                for g in gens:
                    y = self.act(g, x)
                    if y in remaining:
                        remaining.remove(y)
                        frontier.append(y)
            orbits += 1
        return orbits


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


def invariant_dimension(m: PermModule, subgroup: Sequence[Permutation]) -> int:
    """Dimension of the subgroup invariants of the linearized module.

    Burnside: (1/|H|) * sum over h in H of the fixed-point count of h.  The
    subgroup is validated first (it must be exactly the group generated by
    its greedy generating subset).  A fixed-point count is constant on each
    conjugacy class of H, so the sum runs over the classes instead of the
    elements: class size times the fixed points of one representative.  The
    classes are the orbits of H on itself under conjugation by the
    generating subset that :func:`validate_subgroup` returns.  The sum must
    divide by |H|.
    """
    gens = validate_subgroup(subgroup)
    total = sum(size * m.fixed_points(rep) for rep, size in _conjugacy_classes(subgroup, gens))
    dim, remainder = divmod(total, len(subgroup))
    if remainder:
        raise ValueError("fixed-point average is not an integer; not a group action?")
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
    basis {(coset j, b)}: for g in G and each summand index k, the elements
    h in H and rep index j with ``g * g_k = g_j * h`` carry (k, b) to
    (j, h.b).  The induced module is validated on, and its orbits are
    counted under, the transposition (1 2) and the n-cycle (1 2 ... n),
    which generate G.  The number of orbits, the dimension of the
    G-invariants, is compared with the Burnside dimension of the
    H-invariants of ``m``.
    """
    n = y.n
    h_by_images = {h.images: h for h in m.group}
    if h_by_images.keys() != set(_young_images(y)):
        raise ValueError("module is not defined over the Young subgroup of the given pair")

    reps = [r.images for r in young_coset_reps(y)]
    rep_inverses = [_inverse(r) for r in reps]
    top = range(n - y.i + 1, n + 1)
    rep_index = {frozenset(r[t - 1] for t in top): j for j, r in enumerate(reps)}
    moves: dict[tuple[tuple[int, ...], int], tuple[int, Permutation]] = {}

    def induced_act(g: Permutation, point: tuple[int, Any]) -> tuple[int, Any]:
        k, b = point
        move = moves.get((g.images, k))
        if move is None:
            x = _compose(g.images, reps[k])  # g * g_k = g_j * h
            j = rep_index[frozenset(x[t - 1] for t in top)]
            move = moves[g.images, k] = (j, h_by_images[_compose(rep_inverses[j], x)])
        j, h = move
        return (j, m.act(h, b))

    induced_basis = [(j, b) for j in range(len(reps)) for b in m.basis]

    # generators of S_n: a transposition and an n-cycle (n-dependent edge cases)
    if n <= 1:
        gens = [Permutation.identity(n)]
    else:
        gens = [Permutation((2, 1) + tuple(range(3, n + 1)))]
        if n > 2:
            gens.append(Permutation(tuple(range(2, n + 1)) + (1,)))

    induced = PermModule(gens, induced_basis, induced_act)
    induced_dim = induced.orbit_count(gens)
    subgroup_dim = invariant_dimension(m, m.group)
    return InductionReport(
        ok=induced_dim == subgroup_dim,
        pair=y,
        induced_invariant_dim=induced_dim,
        subgroup_invariant_dim=subgroup_dim,
        induced_basis_size=len(induced_basis),
    )

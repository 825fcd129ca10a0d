"""The expansion engine: rewrite expressions into lists of atomic components.

Rules, applied until every component is a product of atoms:

* R1  sym(n, sod(A_1..A_l)) has one block per weak composition (i_1..i_l)
      of n, the product of the sym(i_j, A_j); head-first, i_1 = n..0 varies
      slowest: the t^n coefficient of the product over the parts of
      Z_A(t) = sum_m [sym^m A] t^m.  One expand call keeps a powers row
      sym(0..m, A) per distinct part A, extended on demand to the largest n an
      R1 node asks for: the unit, A itself, then R2, R3 or R7 at each m >= 2.
      No Sym node is built per arity, and each sym(m, sod(A_j..A_l)) is one
      list comprehension over its blocks; head-first builds the answer from
      the top two parts and sym(0..n, sod(A_3..A_l)) in one comprehension,
      tail-first keeps the chain as the reference.
* R2  sym(n, pt) is p(n) completely orthogonal copies of the point,
      aggregated into a single entry with multiplicity p(n).
* R3  sym(n, curve(g)) gives one component per multiplicity vector
      (a_i) with sum(i * a_i) = n, namely the product of the symmetric
      powers sym^(a_i)(curve(g)) over the indices with a_i > 0.
* R4  the base of sym(n, -) is read as the flat list of its SOD parts, in one
      walk: nested SODs flatten, and a bullet distributes over its factors'
      parts, the first factor varying slowest.  Nested sym(k >= 2, -) nodes
      are left alone.
* R5  sym(0, X) is the point, anywhere in a base.
* R6  sym(1, X) is X, anywhere in a base.
* R7  sym(n, -) of a single part that is a bullet, phantom, surface, opaque
      leaf or nested sym(k >= 2, -) stays an opaque sym-power atom carrying
      its arity.  Its base keeps its shape: R5, R6 and the point unit of a
      bullet apply at every level, then canonical form; nothing distributes.

The walk works on interned atom ids: one expand call numbers each distinct atom
the first time it meets it (a leaf, a curve power of R3, a sym-power atom of
R7), so an entry's key is a sorted tuple of small ints, or 0 for the point.  At
the end each distinct key is numbered in first-seen order and an entry becomes
(that number, multiplicity); :class:`ComponentList` lays out the atoms in id
order and the numbered keys (0 read as ()) as its table and components.  A walk
that interned no atom keyed every entry 0, which is already the point's number
in a one-component list: its entries go to :class:`ComponentList` unnumbered.

Everything is pure and deterministic.
"""

from __future__ import annotations

import itertools
from functools import partial, reduce
from typing import Callable

from .expr import (
    Atom,
    Bullet,
    CatExpr,
    ComponentList,
    Curve,
    POINT,
    Point,
    Sod,
    Sym,
    SymCurve,
    SymPower,
    canonicalize,
)
from .partitions import multiplicity_vectors, partition_count


def bullet_of(factors: tuple[CatExpr, ...]) -> CatExpr:
    """A canonical bullet product with point units dropped and singletons unwrapped."""
    kept = tuple(f for f in factors if not isinstance(f, Point))
    return canonicalize(Bullet(kept)) if kept else POINT


def _parts(e: CatExpr) -> list[CatExpr]:
    """R4-R6 as one flat walk: the SOD parts of ``e``, none of them an SOD, a bullet
    over an SOD, or a sym of arity <= 1 outside a nested sym(k >= 2, -)."""
    if isinstance(e, Sym) and e.arity <= 1:
        return [POINT] if e.arity == 0 else _parts(e.inner)
    if isinstance(e, Sod):
        return [q for p in e.parts for q in _parts(p)]
    if isinstance(e, Bullet):
        return [bullet_of(fs) for fs in itertools.product(*map(_parts, e.factors))]
    return [e]


def _reduced(e: CatExpr) -> CatExpr:
    """``e`` with R5, R6 and the bullet's point unit applied at every level, in
    canonical form; unlike :func:`_parts` it distributes nothing."""
    if isinstance(e, Sym):
        if e.arity <= 1:
            return POINT if e.arity == 0 else _reduced(e.inner)
        return Sym(e.arity, _reduced(e.inner))
    if isinstance(e, Sod):
        return canonicalize(Sod(tuple(map(_reduced, e.parts))))
    if isinstance(e, Bullet):
        return bullet_of(tuple(map(_reduced, e.factors)))
    return e


# Engine entries: (key, multiplicity), the key a component as a sorted tuple of
# atom ids, or 0 for the point, falsy like the empty product.  An id numbers an
# atom of one expand call; _components maps it back.
Key = tuple[int, ...] | int
Entries = list[tuple[Key, int]]


def _product(left: Entries, right: Entries) -> Entries:
    """Every product of an entry of ``left`` with one of ``right``; left varies
    slowest: the single block of :func:`_blocks` at m = 0, which holds the join."""
    return _blocks([left], [right], 0)


class _Expansion:
    """One expand call: its bracketing, its atom ids and one powers row per SOD
    part that an R1 node read."""

    def __init__(self, split_head: bool) -> None:
        self.split_head = split_head
        self.rows: dict[CatExpr, list[Entries]] = {}  # part -> sym(0..m, part)
        self.ids: dict[Atom, int] = {}  # in id order: the atom of id i is the i-th key

    def _id(self, atom: Atom) -> int:
        ids = self.ids
        return ids.setdefault(atom, len(ids))

    def expand(self, e: CatExpr) -> Entries:
        if isinstance(e, Atom):
            return [(0, 1)] if isinstance(e, Point) else [((self._id(e),), 1)]

        if isinstance(e, Sod):
            return [entry for part in e.parts for entry in self.expand(part)]

        if isinstance(e, Bullet):
            return reduce(_product, [self.expand(f) for f in e.factors])

        if isinstance(e, Sym):
            return self._sym(e.arity, e.inner)

        raise TypeError(f"not a CatExpr: {e!r}")

    def _power(self, part: CatExpr) -> Callable[[int], Entries]:
        """sym(m, part) as a function of m >= 2, for a single SOD part: R2 for the
        point, R3 for a curve, R7 for the rest, whose reduced base is built once."""
        if isinstance(part, Point):
            return lambda m: [(0, partition_count(m))]  # R2
        if isinstance(part, Curve):
            return partial(self._curve_power, part.genus)  # R3
        base = _reduced(part)  # R7
        return lambda m: [((self._id(SymPower(m, base)),), 1)]

    def _curve_power(self, g: int, n: int) -> Entries:
        """R3: one component per multiplicity vector of weight n, the all-ones
        vector (the top power) first; sym^a(curve(g)) is interned once per degree a."""
        vectors = multiplicity_vectors(n)[::-1]
        degrees = {a for vec in vectors for _, a in vec}
        ids = {a: self._id(Curve(g) if a == 1 else SymCurve(g, a)) for a in degrees}
        return [(tuple(sorted([ids[a] for _, a in vec])), 1) for vec in vectors]

    def _row(self, part: CatExpr, n: int) -> list[Entries]:
        """The powers sym(0..m, part), m >= n, of one SOD part: the unit, the part
        itself, then the single-part rule at each m >= 2; built once per walk and
        extended when an R1 node asks for a larger n."""
        row = self.rows.get(part)
        if row is None:
            row = self.rows[part] = [[(0, 1)], self.expand(part)]  # R5, R6
        if len(row) <= n:
            row.extend(map(self._power(part), range(len(row), n + 1)))
        return row

    def _sym(self, n: int, inner: CatExpr) -> Entries:
        if n == 0:
            return [(0, 1)]  # R5: the unit
        if n == 1:
            return self.expand(inner)  # R6
        parts = _parts(inner)
        if len(parts) == 1:
            return self._power(parts[0])(n)

        # R1: split off the parts from one end (head-first the first, tail-first
        # the last), then build the powers of each rest from the far end; each
        # distinct part's row is read in first-seen order, so atom ids are too;
        # head-first stops at level 2 and joins the top two parts in one pass
        ends = parts if self.split_head else parts[::-1]
        powers = [self._row(p, n) for p in ends]
        fused = self.split_head and len(ends) > 2
        acc = powers[-1]
        for k in range(len(ends) - 2, 1 if fused else -1, -1):
            first, second = (powers[k], acc) if self.split_head else (acc, powers[k])
            arities = range(n + 1) if k else (n,)
            acc = [_blocks(first, second, m) for m in arities]
        return _top_blocks(powers[0], powers[1], acc, n) if fused else acc[-1]


def _blocks(first: list[Entries], second: list[Entries], m: int) -> Entries:
    """sym(m) of a two-term SOD from its terms' powers, as one comprehension:
    block i is first[m-i] * second[i], i = 0..m, and within a block the entries
    of first vary slowest; the keys are joined inline, the point's 0 the unit."""
    return [(b if not a else a if not b else tuple(sorted(a + b)), mult_a * mult_b)
            for i in range(m + 1)
            for a, mult_a in first[m - i]
            for b, mult_b in second[i]]


def _top_blocks(head: list[Entries], first: list[Entries], second: list[Entries],
                n: int) -> Entries:
    """``_blocks(head, [_blocks(first, second, m) for m in 0..n], n)``, entry for
    entry, with no list per m; a head and a first entry are joined once."""
    return [(c if not ab else ab if not c else tuple(sorted(ab + c)), mult_ab * mult_c)
            for i in range(n + 1)
            for a, mult_a in head[n - i]
            for j in range(i + 1)
            for b, mult_b in first[i - j]
            for ab, mult_ab in [(b if not a else a if not b else tuple(sorted(a + b)),
                                 mult_a * mult_b)]
            for c, mult_c in second[j]]


def _components(e: CatExpr, split_head: bool) -> ComponentList:
    """The engine's entries as a :class:`ComponentList`: each distinct key
    numbered once, in first-seen order, over the atoms in id order; with no
    atom every key is 0, the point's number, and there is nothing to number."""
    walk = _Expansion(split_head)
    entries = walk.expand(canonicalize(e))
    if not walk.ids:  # no atom: nothing to number
        return ComponentList((), ((),), tuple(entries))
    numbers: dict[Key, int] = {}
    pairs = tuple([(numbers.setdefault(ids, len(numbers)), mult) for ids, mult in entries])
    return ComponentList(tuple(walk.ids), tuple([ids or () for ids in numbers]), pairs)


def expand(e: CatExpr) -> ComponentList:
    """Fully expand an expression into an ordered list of atomic components.

    Never fails: subterms with no applicable rule become opaque sym-power
    atoms.  The completely orthogonal points of R2 aggregate into one
    multiplicity; blocks that are only semi-orthogonal stay as separate
    entries even when their components coincide.
    """
    return _components(e, split_head=True)


def expand_tail_first(e: CatExpr) -> ComponentList:
    """Like :func:`expand` but bracketing long SODs tail-first.

    Exists so verification can confirm that the two bracketings agree up to
    reordering (they are not required to agree as ordered lists).
    """
    return _components(e, split_head=False)

"""The expansion engine: rewrite expressions into lists of atomic components.

Rules, applied until every component is a product of atoms:

* R1  sym(n, sod(A, rest...)) splits into the n+1 blocks
      ``bullet(sym(n-i, A), sym(i, sod(rest...)))`` for i = 0..n; longer
      SODs are bracketed head-first and handled by induction on the length.
* R2  sym(n, pt) is p(n) completely orthogonal copies of the point,
      aggregated into a single entry with multiplicity p(n).
* R3  sym(n, curve(g)) gives one component per multiplicity vector
      (a_i) with sum(i * a_i) = n, namely the product of the symmetric
      powers sym^(a_i)(curve(g)) over the indices with a_i > 0.
* R4  bullet distributes over sod slot by slot, preserving SOD order.
* R5  sym(0, X) is the point.
* R6  sym(1, X) is X.
* R7  sym(n, -) of a bullet, phantom, surface, or opaque leaf stays an
      opaque sym-power atom carrying its arity.

Everything is pure and deterministic; an optional trace records, for each
R1 block, its count C(n, i) of upstairs summands (one per coset of the
Young subgroup) so that verification can compare the engine's binomials
against the coset enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .expr import (
    Bullet,
    CatExpr,
    Component,
    ComponentList,
    Curve,
    POINT,
    Point,
    Sod,
    Sym,
    SymCurve,
    SymPower,
    canonicalize,
    is_atom,
)
from .partitions import multiplicity_vectors, partition_count


@dataclass(frozen=True)
class BlockTrace:
    """One R1 block: arity n, block index i, and its C(n, i) summand count."""

    arity: int
    block: int
    summands: int


def bullet_of(factors: list[CatExpr]) -> CatExpr:
    """A bullet product with point units dropped and singletons unwrapped."""
    kept = [f for f in factors if not isinstance(f, Point)]
    if not kept:
        return POINT
    if len(kept) == 1:
        return kept[0]
    return canonicalize(Bullet(tuple(kept)))


def _simplify_sym(n: int, inner: CatExpr) -> CatExpr:
    if n == 0:
        return POINT
    if n == 1:
        return inner
    return Sym(n, inner)


def _distribute(e: CatExpr) -> CatExpr:
    """R4 closure: after this, no bullet product retains an SOD slot."""
    if is_atom(e):
        return e
    if isinstance(e, Sym):
        return Sym(e.arity, _distribute(e.inner))
    if isinstance(e, Sod):
        return canonicalize(Sod(tuple(_distribute(p) for p in e.parts), e.orthogonal))
    if isinstance(e, Bullet):
        factors = [_distribute(f) for f in e.factors]
        for idx, f in enumerate(factors):
            if isinstance(f, Sod):
                parts = tuple(
                    _distribute(bullet_of(factors[:idx] + [p] + factors[idx + 1 :]))
                    for p in f.parts
                )
                return Sod(parts, f.orthogonal)
        return bullet_of(factors)
    raise TypeError(f"not a CatExpr: {e!r}")


def sym_of_sod(a: CatExpr, b: CatExpr, n: int) -> list[CatExpr]:
    """The n+1 expression blocks of the symmetric power of a two-term SOD.

    Block i (for i = 0..n) is ``bullet(sym(n-i, A), sym(i, B))``, returned
    with sym(0, -) and sym(1, -) already simplified and point units dropped.
    """
    if n < 0:
        raise ValueError(f"arity must be >= 0, got {n}")
    a = canonicalize(a)
    b = canonicalize(b)
    return [
        bullet_of([_simplify_sym(n - i, a), _simplify_sym(i, b)])
        for i in range(n + 1)
    ]


def _entries_product(
    lists: list[tuple[tuple[Component, int], ...]]
) -> list[tuple[Component, int]]:
    """Cartesian product of component lists; left factors vary slowest."""
    result: list[tuple[Component, int]] = [(Component.of([]), 1)]
    for entries in lists:
        result = [
            (comp.merge(comp2), mult * mult2)
            for comp, mult in result
            for comp2, mult2 in entries
        ]
    return result


def _merge_equal(entries: list[tuple[Component, int]]) -> list[tuple[Component, int]]:
    order: list[Component] = []
    counts: dict[Component, int] = {}
    for comp, mult in entries:
        if comp not in counts:
            order.append(comp)
            counts[comp] = 0
        counts[comp] += mult
    return [(comp, counts[comp]) for comp in order]


def _expand(
    e: CatExpr, trace: Optional[list[BlockTrace]], split_head: bool
) -> list[tuple[Component, int]]:
    if is_atom(e):
        return [(Component.of([e]), 1)]

    if isinstance(e, Sod):
        entries: list[tuple[Component, int]] = []
        for part in e.parts:
            entries.extend(_expand(part, trace, split_head))
        if e.orthogonal:
            entries = _merge_equal(entries)
        return entries

    if isinstance(e, Bullet):
        factor_lists = [tuple(_expand(f, trace, split_head)) for f in e.factors]
        return _entries_product(factor_lists)

    if isinstance(e, Sym):
        n, inner = e.arity, e.inner
        while isinstance(inner, Sym) and inner.arity <= 1:
            inner = POINT if inner.arity == 0 else inner.inner
        if n == 0:
            return [(Component.of([]), 1)]  # R5: the unit
        if n == 1:
            return _expand(inner, trace, split_head)  # R6
        inner = _distribute(inner)
        if isinstance(inner, Point):
            return [(Component.of([]), partition_count(n))]  # R2
        if isinstance(inner, Curve):
            # R3: one component per multiplicity vector of weight n,
            # ordered with the all-ones vector (the top symmetric power) first
            out = []
            for vec in reversed(multiplicity_vectors(n)):
                factors = [
                    Curve(inner.genus) if a == 1 else SymCurve(inner.genus, a)
                    for _, a in vec
                ]
                out.append((Component.of(factors), 1))
            return out
        if isinstance(inner, Sod):
            return _expand_sym_of_sod(n, inner, trace, split_head)
        # R7: bullet bases and the remaining atoms stay opaque sym powers
        return [(Component.of([SymPower(n, inner)]), 1)]

    raise TypeError(f"not a CatExpr: {e!r}")


def _expand_sym_of_sod(
    n: int, sod: Sod, trace: Optional[list[BlockTrace]], split_head: bool
) -> list[tuple[Component, int]]:
    """R1 with the chosen bracketing of SODs longer than two terms."""
    if split_head:
        first, rest = sod.parts[0], sod.parts[1:]
    else:
        first, rest = sod.parts[-1], sod.parts[:-1]
    rest_expr: CatExpr = rest[0] if len(rest) == 1 else Sod(rest, sod.orthogonal)

    entries: list[tuple[Component, int]] = []
    for i in range(n + 1):
        if trace is not None:
            trace.append(BlockTrace(arity=n, block=i, summands=math.comb(n, i)))
        if split_head:
            block = Bullet((Sym(n - i, first), Sym(i, rest_expr)))
        else:
            block = Bullet((Sym(n - i, rest_expr), Sym(i, first)))
        block_entries = _expand(block, trace, split_head)
        if sod.orthogonal:
            block_entries = _merge_equal(block_entries)
        entries.extend(block_entries)
    if sod.orthogonal:
        entries = _merge_equal(entries)
    return entries


def expand(e: CatExpr, trace: Optional[list[BlockTrace]] = None) -> ComponentList:
    """Fully expand an expression into an ordered list of atomic components.

    Never fails: subterms with no applicable rule become opaque sym-power
    atoms.  Completely orthogonal repetitions aggregate into multiplicities;
    blocks that are only semi-orthogonal stay as separate entries even when
    their components coincide.
    """
    return ComponentList(tuple(_expand(canonicalize(e), trace, split_head=True)))


def expand_tail_first(e: CatExpr, trace: Optional[list[BlockTrace]] = None) -> ComponentList:
    """Like :func:`expand` but bracketing long SODs tail-first.

    Exists so verification can confirm that the two bracketings agree up to
    reordering (they are not required to agree as ordered lists).
    """
    return ComponentList(tuple(_expand(canonicalize(e), trace, split_head=False)))


def component_count(e: CatExpr) -> int:
    """Total multiplicity of the full expansion."""
    return expand(e).total_multiplicity()

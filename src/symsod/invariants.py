"""Numerical invariants of expressions and the quasi-phantom audit.

The Euler characteristic and the total Hochschild dimension of an
expression are the sums over its expanded components (with multiplicity) of
the products over atomic factors.  One report values each atom of the
expansion's table (``ComponentList.atoms``) once, and each distinct
component once, as the product of the values at its positions; the totals
are summed over the distinct components, each value times that component's
total multiplicity, and the expansion is purely exceptional when its table
is the point alone.  No atom is hashed.  The atoms sym^n(S) over surfaces S
with one pair h+ = b0 + b2 + b4, h- = b1 + b3 read one evaluation of the
invariant law (:func:`series.sym_power_totals`, Euler's divisor-sum
recurrence), to order the largest such n; Goettsche's series at z = -1 and
z = 1, built by the binomial kernel and Miller's recurrence, stays its
independent check.  The phantom audit sets that series against q(n; l)
(:func:`partitions.q_length`, the same recurrence).
Atom values:

====================  ===========================  =========================
atom                  euler                        hh_total
====================  ===========================  =========================
pt                    1                            1
curve(g)              2 - 2g                       2g + 2
sym^a(curve(g))       Macdonald at z = -1          Macdonald at z = 1
surface               alternating Betti sum        total Betti sum
phantom               0                            0
sym^n(surface)        law: Euler product, t^n      law: HH product, t^n
sym^n(phantom)        0                            0
opaque                declared value or unknown    declared value or unknown
====================  ===========================  =========================

``unknown`` (None) is a first-class result and absorbs through sums and
products; opaque leaves are legitimate.  Hochschild dimensions combine
additively over SOD components and multiplicatively over products
(Kuenneth, standard for smooth projective factors; imported, not derived).
Hochschild homology is tracked as a total dimension only -- Betti data does
not determine its grading in general, and nothing here needs it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

from ._record import Record
from .expr import (
    Atom,
    CatExpr,
    ComponentList,
    Curve,
    InternalInvariantError,
    Opaque,
    POINT,
    Phantom,
    Point,
    Surface,
    SymCurve,
    SymPower,
    fake_plane_betti,
)
from .partitions import q_length
from .rewrite import expand
from .series import (
    BettiVector,
    gottsche_series,
    macdonald_poincare,
    poly_eval,
    sym_power_totals,
)


# (euler, hh_total) of an atom or a component; None is unknown
_Values = tuple[Optional[int], Optional[int]]


@lru_cache(maxsize=None)
def _hilb_poincare_value(h_plus: int, h_minus: int, top: int) -> tuple[_Values, ...]:
    """(euler, total Betti) of Hilb^n S for n = 0..top, from the invariant law at
    h+ = b0 + b2 + b4 and h- = b1 + b3; ``invariants:goettsche-two-path``
    checks it against Goettsche's series.

    The law reads only the pair, so the key is three ints and hashes no Betti
    vector.  A report asks once per pair, with ``top`` the largest n of its
    sym^n(S) atoms over surfaces S with that pair; its other sym^n(S) atoms are
    cache hits.
    """
    return sym_power_totals(h_plus, h_minus, top)


def _law_pair(betti: BettiVector) -> tuple[int, int]:
    """(h+, h-) of a surface: the even and the odd Betti sums."""
    return betti.b0 + betti.b2 + betti.b4, betti.b1 + betti.b3


def _atom_value(atom: Atom, tops: dict[tuple[int, int], int]) -> _Values:
    """(euler, hh_total) of an atom; ``tops`` holds the ``top`` of each (h+, h-)."""
    if isinstance(atom, Point):
        return 1, 1
    if isinstance(atom, Curve):
        return 2 - 2 * atom.genus, 2 * atom.genus + 2
    if isinstance(atom, SymCurve):
        poly = macdonald_poincare(atom.genus, atom.degree)
        return poly_eval(poly, -1), poly_eval(poly, 1)
    if isinstance(atom, Surface):
        return atom.betti.euler(), atom.betti.total()
    if isinstance(atom, Phantom):
        return 0, 0
    if isinstance(atom, Opaque):
        return atom.euler, atom.hh
    if isinstance(atom, SymPower):
        if isinstance(atom.base, Surface):
            pair = _law_pair(atom.base.betti)
            return _hilb_poincare_value(*pair, tops[pair])[atom.arity]
        return (0, 0) if isinstance(atom.base, Phantom) else (None, None)
    raise InternalInvariantError(f"not an atom: {atom!r}")


def _known(fold: Callable[[Sequence[int]], int], values: Sequence[Optional[int]]) -> Optional[int]:
    """``fold(values)``, or None when any value is unknown."""
    return None if None in values else fold(values)


def _component_values(expansion: ComponentList) -> tuple[_Values, ...]:
    """(euler, hh_total) of each distinct component, in order: each atom of the
    table valued once, each component the product over its positions."""
    atoms = expansion.atoms
    # ComponentList sorts its table by sort_key, so sym^n(S) atoms come in order
    # of n and the last one per (h+, h-) is its top
    tops = {_law_pair(a.base.betti): a.arity for a in atoms
            if isinstance(a, SymPower) and isinstance(a.base, Surface)}
    values = [_atom_value(atom, tops) for atom in atoms]
    products = []
    for comp in expansion.components:
        eulers, hhs = zip(*map(values.__getitem__, comp))
        products.append((_known(math.prod, eulers), _known(math.prod, hhs)))
    return tuple(products)


def _weighted_sum(terms: Iterable[tuple[Optional[int], int]]) -> Optional[int]:
    """The sum of value * multiplicity over the terms, or None when a value is unknown."""
    return _known(sum, [None if value is None else value * mult for value, mult in terms])


class InvariantReport(Record):
    """Invariants of an expression, its expansion, and the (euler, hh_total) of
    each of the expansion's distinct components, aligned with ``distinct``."""

    __slots__ = ("euler", "hh_total", "exceptional_length", "expansion", "values")

    def __init__(
        self,
        euler: Optional[int],
        hh_total: Optional[int],
        exceptional_length: Optional[int],
        expansion: ComponentList,
        values: tuple[_Values, ...],
    ) -> None:
        if exceptional_length is not None:
            if exceptional_length != euler or exceptional_length != hh_total:
                raise InternalInvariantError(
                    "exceptional length must match euler and hh totals: "
                    f"{exceptional_length} vs {euler} vs {hh_total}"
                )
        Record.__init__(self, euler, hh_total, exceptional_length, expansion, values)

    def to_json_dict(self) -> dict:
        return {
            "euler": self.euler,
            "hh_total": self.hh_total,
            "exceptional_length": self.exceptional_length,
        }


def invariant_report(e: CatExpr) -> InvariantReport:
    """Expand ``e``; value and total each distinct component once."""
    expansion = expand(e)
    values = _component_values(expansion)
    counts = expansion.counts
    return InvariantReport(
        euler=_weighted_sum((euler, mult) for (euler, _), mult in zip(values, counts)),
        hh_total=_weighted_sum((hh, mult) for (_, hh), mult in zip(values, counts)),
        exceptional_length=sum(counts) if expansion.atoms == (POINT,) else None,
        expansion=expansion,
        values=values,
    )


class PhantomAuditRow(Record):
    __slots__ = ("n", "hilb_total_betti", "q_value")

    @property
    def equal(self) -> bool:
        return self.hilb_total_betti == self.q_value


class PhantomAuditReport(Record):
    """Outcome of the quasi-phantom counting audit for one surface family.

    For the surface with Betti numbers (1, 0, l, 0, 1) and decomposition
    <(l+2) points, phantom>, the total Betti number of its n-th Hilbert
    scheme (Goettsche, then HKR) is compared with q(n; l+2), the Hochschild
    contribution of the point blocks alone.  Equality for every n up to the
    bound forces, block by block, the total Hochschild dimension of every
    sym^i(phantom) piece (i >= 1) to vanish: the pieces are phantoms too.
    """

    __slots__ = ("l", "n_max", "rows")

    @property
    def all_equal(self) -> bool:
        return all(row.equal for row in self.rows)

    def __bool__(self) -> bool:
        return self.all_equal


def phantom_audit(l: int, n_max: int) -> PhantomAuditReport:
    """Run the counting audit for the fake-plane family with parameter l."""
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    betti = fake_plane_betti(l)
    polys = gottsche_series(betti, n_max)
    rows = tuple(
        PhantomAuditRow(n, poly_eval(polys[n], 1), q_length(n, l + 2)) for n in range(1, n_max + 1)
    )
    return PhantomAuditReport(l, n_max, rows)

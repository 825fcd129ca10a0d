"""Numerical invariants of expressions and the quasi-phantom audit.

Invariants are computed on the full expansion: the Euler characteristic and
the total Hochschild dimension of an expression are the sums over its
expanded components (with multiplicity) of the products over atomic
factors.  Atom values:

====================  ===========================  =========================
atom                  euler                        hh_total
====================  ===========================  =========================
pt                    1                            1
curve(g)              2 - 2g                       2g + 2
sym^a(curve(g))       Macdonald at z = -1          Macdonald at z = 1
surface               alternating Betti sum        total Betti sum
phantom               0                            0
sym^n(surface)        Goettsche q^n at z = -1      Goettsche q^n at z = 1
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

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .expr import (
    Atom,
    CatExpr,
    Component,
    ComponentList,
    Curve,
    InternalInvariantError,
    Opaque,
    Phantom,
    Point,
    Surface,
    SymCurve,
    SymPower,
    fake_plane_betti,
)
from .partitions import q_length
from .rewrite import expand
from .series import BettiVector, LaurentPoly, gottsche_series, macdonald_poincare, poly_eval


# The Macdonald polynomial of each sym^a(curve(g)) met so far, by (g, a); each
# top-level call owns one, so the series runs once per (g, a) per call
_CurvePowers = dict[tuple[int, int], LaurentPoly]


@lru_cache(maxsize=None)
def _hilb_poincare_value(betti: BettiVector, n: int, z: int) -> int:
    """Poincare polynomial of Hilb^n evaluated at z, via Goettsche's formula."""
    if n == 0:
        return 1
    series = gottsche_series(betti, n)
    return series.q_coefficient_at(n, z)


def _atom_value(atom: Atom, z: int, curve_powers: _CurvePowers) -> Optional[int]:
    """Euler characteristic (z = -1) or total HH dimension (z = 1) of an atom."""
    if isinstance(atom, Point):
        return 1
    if isinstance(atom, Curve):
        return 2 - 2 * atom.genus if z == -1 else 2 * atom.genus + 2
    if isinstance(atom, SymCurve):
        key = (atom.genus, atom.degree)
        if key not in curve_powers:
            curve_powers[key] = macdonald_poincare(*key)
        return poly_eval(curve_powers[key], z)
    if isinstance(atom, Surface):
        return atom.betti.euler() if z == -1 else atom.betti.total()
    if isinstance(atom, Phantom):
        return 0
    if isinstance(atom, Opaque):
        return atom.euler if z == -1 else atom.hh
    if isinstance(atom, SymPower):
        if isinstance(atom.base, Surface):
            return _hilb_poincare_value(atom.base.betti, atom.arity, z)
        if isinstance(atom.base, Phantom):
            return 0
        return None
    raise InternalInvariantError(f"not an atom: {atom!r}")


def _component_value(comp: Component, z: int, curve_powers: _CurvePowers) -> Optional[int]:
    product = 1
    for atom in comp.factors:
        v = _atom_value(atom, z, curve_powers)
        if v is None:
            return None
        product *= v
    return product


def _total_value(components: ComponentList, z: int, curve_powers: _CurvePowers) -> Optional[int]:
    total = 0
    for comp, mult in components:
        v = _component_value(comp, z, curve_powers)
        if v is None:
            return None
        total += mult * v
    return total


def euler_char(e: CatExpr) -> Optional[int]:
    """Euler characteristic: additive over SODs, multiplicative over products.

    None means unknown (an opaque leaf with no declared value was hit).
    """
    return _total_value(expand(e), -1, {})


def hh_total_dim(e: CatExpr) -> Optional[int]:
    """Total Hochschild dimension, or None when an opaque leaf absorbs it."""
    return _total_value(expand(e), 1, {})


@dataclass(frozen=True)
class ComponentInvariants:
    component: Component
    multiplicity: int
    euler: Optional[int]
    hh_total: Optional[int]


@dataclass(frozen=True)
class InvariantReport:
    """Invariants of an expression together with the per-component breakdown."""

    euler: Optional[int]
    hh_total: Optional[int]
    exceptional_length: Optional[int]
    components: tuple[ComponentInvariants, ...]

    def __post_init__(self) -> None:
        if self.exceptional_length is not None:
            if self.exceptional_length != self.euler or self.exceptional_length != self.hh_total:
                raise InternalInvariantError(
                    "exceptional length must match euler and hh totals: "
                    f"{self.exceptional_length} vs {self.euler} vs {self.hh_total}"
                )

    def to_json_dict(self) -> dict:
        return {
            "euler": self.euler,
            "hh_total": self.hh_total,
            "exceptional_length": self.exceptional_length,
        }


def invariant_report(e: CatExpr) -> InvariantReport:
    components = expand(e)
    curve_powers: _CurvePowers = {}
    rows = tuple(
        ComponentInvariants(
            component=comp,
            multiplicity=mult,
            euler=_component_value(comp, -1, curve_powers),
            hh_total=_component_value(comp, 1, curve_powers),
        )
        for comp, mult in components
    )
    return InvariantReport(
        euler=_total_value(components, -1, curve_powers),
        hh_total=_total_value(components, 1, curve_powers),
        exceptional_length=(
            components.total_multiplicity() if components.is_purely_exceptional() else None
        ),
        components=rows,
    )


@dataclass(frozen=True)
class PhantomAuditRow:
    n: int
    hilb_total_betti: int
    q_value: int

    @property
    def equal(self) -> bool:
        return self.hilb_total_betti == self.q_value


@dataclass(frozen=True)
class PhantomAuditReport:
    """Outcome of the quasi-phantom counting audit for one surface family.

    For the surface with Betti numbers (1, 0, l, 0, 1) and decomposition
    <(l+2) points, phantom>, the total Betti number of its n-th Hilbert
    scheme (Goettsche, then HKR) is compared with q(n; l+2), the Hochschild
    contribution of the point blocks alone.  Equality for every n up to the
    bound forces, block by block, the total Hochschild dimension of every
    sym^i(phantom) piece (i >= 1) to vanish: the pieces are phantoms too.
    """

    l: int
    n_max: int
    rows: tuple[PhantomAuditRow, ...]

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
    series = gottsche_series(betti, n_max)
    rows = tuple(
        PhantomAuditRow(
            n=n,
            hilb_total_betti=series.q_coefficient_at(n, 1),
            q_value=q_length(n, l + 2),
        )
        for n in range(1, n_max + 1)
    )
    return PhantomAuditReport(l=l, n_max=n_max, rows=rows)

"""Expression trees for categories: atoms, SODs, bullet products, Sym nodes.

The leaves are category atoms -- a point, a curve of given genus, a
symmetric power of a curve, a surface with known Betti numbers, a phantom
(all Hochschild homology zero by declaration), or an opaque named category.
``SymPower`` atoms are unexpandable Sym leaves produced by the rewrite
engine; they keep their arity and base so the invariants module can still
evaluate them.

Composite nodes:

* ``Sod(parts)`` -- an ordered semi-orthogonal decomposition,
* ``Bullet(factors)`` -- the product of categories (commutative for
  canonical display),
* ``Sym(arity, inner)`` -- a symmetric power, kept structural until the
  rewrite engine runs.

Canonicalization flattens nested bullets and nested SODs, unwraps
singletons, and sorts bullet factors by a fixed total order; SOD order is
always preserved.  ``render_text`` is the one text form of an expression;
``str(e)`` returns it.

``CONSTRUCTORS`` names every constructor of the text grammar with its
argument kinds and builder; ``make_preset`` builds and validates any of them,
and the parser in ``symsod.grammar`` reads nothing else about them.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ._record import InternalInvariantError, Record, _set
from .series import BettiVector


class _Rendered(Record):
    """Base of the expression classes: ``str(e)`` is ``render_text(e)``."""

    __slots__ = ()

    def __str__(self) -> str:
        return render_text(self)


class Point(_Rendered):
    """The point: one exceptional object, and the unit of the bullet product."""

    __slots__ = ()


class Curve(_Rendered):
    __slots__ = ("genus",)

    def __init__(self, genus: int) -> None:
        if type(genus) is not int or genus < 0:
            raise ValueError(f"genus must be an integer >= 0, got {genus!r}")
        _set(self, "genus", genus)


class SymCurve(_Rendered):
    """Fully expanded curve power: the a-th symmetric power of a genus-g curve.

    For degree >= genus these categories are known to refine further into
    pieces built from the Jacobian; they deliberately stay atomic here, and
    invariants are evaluated through Macdonald's series instead.
    """

    __slots__ = ("genus", "degree")

    def __init__(self, genus: int, degree: int) -> None:
        g, a = genus, degree
        if type(g) is not int or type(a) is not int or g < 0 or a < 0:
            raise ValueError(f"need integers genus >= 0 and degree >= 0, got {g!r} and {a!r}")
        _set(self, "genus", g)
        _set(self, "degree", a)


class Surface(_Rendered):
    """A surface atom with known Betti numbers.

    Atoms produced by collapsing a surface-like SOD are named by their Betti
    literal so that the canonical text stays inside the grammar.
    """

    __slots__ = ("name", "betti")

    def __init__(self, name: str, betti: BettiVector) -> None:
        if not name or type(betti) is not BettiVector:
            raise ValueError(f"surface atom needs a name and Betti vector, got {name!r}, {betti!r}")
        _set(self, "name", name)
        _set(self, "betti", betti)


class Phantom(_Rendered):
    """An admissible piece with vanishing total Hochschild homology."""

    __slots__ = ()


class Opaque(_Rendered):
    """A named category we know nothing about beyond optionally declared invariants.

    Declared values are ``int`` or None, and must be some category's: hh >= |euler|,
    of the same parity.
    """

    __slots__ = ("name", "euler", "hh")

    def __init__(self, name: str, euler: Optional[int] = None, hh: Optional[int] = None) -> None:
        if not name:
            raise ValueError("opaque atom needs a non-empty name")
        e, h = euler, hh
        if {type(e), type(h)} - {int, type(None)}:
            raise ValueError(f"opaque atom {name}: euler={e!r} and hh={h!r} must be integers")
        if h is not None and (h < abs(e or 0) or (e is not None and (h - e) % 2)):
            raise ValueError(f"opaque atom {name}: no category has euler={e} and hh={h}")
        _set(self, "name", name)
        _set(self, "euler", euler)
        _set(self, "hh", hh)


class SymPower(_Rendered):
    """An unexpanded symmetric power kept as an opaque leaf, arity attached."""

    __slots__ = ("arity", "base")

    def __init__(self, arity: int, base: "CatExpr") -> None:
        if type(arity) is not int:
            raise ValueError(f"sym-power arity must be an integer, got {arity!r}")
        if arity < 2:
            raise ValueError("sym powers of arity < 2 should have been simplified away")
        _set(self, "arity", arity)
        _set(self, "base", base)


class Sod(_Rendered):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple["CatExpr", ...]) -> None:
        if not parts:
            raise ValueError("SOD must have at least one component")
        _set(self, "parts", parts)


class Bullet(_Rendered):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple["CatExpr", ...]) -> None:
        if not factors:
            raise ValueError("bullet product must have at least one factor")
        _set(self, "factors", factors)


class Sym(_Rendered):
    __slots__ = ("arity", "inner")

    def __init__(self, arity: int, inner: "CatExpr") -> None:
        if type(arity) is not int or arity < 0:
            raise ValueError(f"sym arity must be an integer >= 0, got {arity!r}")
        _set(self, "arity", arity)
        _set(self, "inner", inner)


Atom = Point | Curve | SymCurve | Surface | Phantom | Opaque | SymPower
CatExpr = Atom | Sod | Bullet | Sym

POINT = Point()
PHANTOM = Phantom()


def sort_key(e: CatExpr) -> tuple:
    """Total order on expressions: atoms first (point < curve < sym-curve <
    surface < phantom < opaque < sym-power), then composites by kind and
    children.  One dispatch on the class; anything else raises ``TypeError``."""
    key = _SORT_KEYS.get(type(e))
    if key is None:
        raise TypeError(f"not a CatExpr: {e!r}")
    return key(e)


# Each expression class's key; its first element is the class's kind, 0..9.
_SORT_KEYS = {
    Point: lambda e: (0,),
    Curve: lambda e: (1, e.genus),
    SymCurve: lambda e: (2, e.genus, e.degree),
    Surface: lambda e: (3, e.name),
    Phantom: lambda e: (4,),
    Opaque: lambda e: (5, e.name),
    SymPower: lambda e: (6, e.arity, sort_key(e.base)),
    Sod: lambda e: (7, tuple(map(sort_key, e.parts))),
    Bullet: lambda e: (8, tuple(map(sort_key, e.factors))),
    Sym: lambda e: (9, e.arity, sort_key(e.inner)),
}


def canonicalize(e: CatExpr) -> CatExpr:
    """Canonical form: flatten, sort bullet factors, unwrap singletons.

    Nested bullets and nested SODs are flattened.  Bullet factors are sorted
    by the fixed total order; SOD order is preserved.  Idempotent by
    construction.  No evaluation happens here: sym(0, -) and sym(1, -) are
    left alone for the rewrite engine.
    """
    if isinstance(e, Atom):
        return e
    if isinstance(e, Sym):
        return Sym(e.arity, canonicalize(e.inner))
    if isinstance(e, Bullet):
        factors: list[CatExpr] = []
        for f in e.factors:
            cf = canonicalize(f)
            if isinstance(cf, Bullet):
                factors.extend(cf.factors)
            else:
                factors.append(cf)
        factors.sort(key=sort_key)
        if len(factors) == 1:
            return factors[0]
        return Bullet(tuple(factors))
    if isinstance(e, Sod):
        parts: list[CatExpr] = []
        for p in e.parts:
            cp = canonicalize(p)
            if isinstance(cp, Sod):
                parts.extend(cp.parts)
            else:
                parts.append(cp)
        if len(parts) == 1:
            return parts[0]
        return Sod(tuple(parts))
    raise TypeError(f"not a CatExpr: {e!r}")


# ---------------------------------------------------------------------------
# Rendering


def render_text(e: CatExpr) -> str:
    """Canonical text form; re-parses to the identical canonical expression.

    Preset shapes render under their preset names.  Expansion-only atoms
    (``sym^a(curve(g))`` and opaque sym powers) render in a caret display
    form outside the grammar.
    """
    if isinstance(e, Point):
        return "pt"
    if isinstance(e, Phantom):
        return "phantom"
    if isinstance(e, Curve):
        return f"curve({e.genus})"
    if isinstance(e, SymCurve):
        return f"sym^{e.degree}(curve({e.genus}))"
    if isinstance(e, Surface):
        return e.name
    if isinstance(e, Opaque):
        return e.name
    if isinstance(e, SymPower):
        return f"sym^{e.arity}({render_text(e.base)})"
    if isinstance(e, Sod):
        preset = _preset_shape(e)[0]
        return preset or "sod(" + ", ".join(render_text(p) for p in e.parts) + ")"
    if isinstance(e, Bullet):
        return "bullet(" + ", ".join(render_text(f) for f in e.factors) + ")"
    if isinstance(e, Sym):
        return f"sym({e.arity}, {render_text(e.inner)})"
    raise TypeError(f"not a CatExpr: {e!r}")


# ---------------------------------------------------------------------------
# Fully expanded components


class Component(Record):
    """A product of atoms, stored as a sorted tuple (a canonical multiset).

    Point factors are the unit of the product: they are dropped when other
    atoms are present, and a pure-point product collapses to a single point.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Atom, ...]) -> None:
        _set(self, "factors", factors)

    @classmethod
    def of(cls, atoms: Iterable[Atom]) -> "Component":
        kept = [a for a in atoms if not isinstance(a, Point)]
        for a in kept:
            if not isinstance(a, Atom):
                raise InternalInvariantError(f"component factor is not an atom: {a!r}")
        if not kept:
            return cls((POINT,))
        if len(kept) > 1:
            kept.sort(key=sort_key)
        return cls(tuple(kept))

    def __str__(self) -> str:
        return " * ".join(str(a) for a in self.factors)


class ComponentList(Record, derived=("distinct", "counts")):
    """An expansion: its atom table, its distinct components, and its ordered
    entries pointing at them.

    The constructor owns the layout.  It takes the atoms in any order, each
    component as a tuple of indices into them, and () as the point, the empty
    product.  It computes each atom's ``sort_key`` once and sorts the table
    stably, so ties keep the order given, with the point appended when ()
    occurs; it then maps each component to the non-decreasing tuple of its
    atoms' positions in the sorted table.  So ``atoms`` holds each distinct
    atom once, in ``sort_key`` order, and ``components`` each distinct
    component once, in the order given; the point's position, 0, appears only
    alone, and building a list again from its own fields changes nothing.
    ``pairs`` are the entries as (index into ``components``, multiplicity).
    Multiplicity > 1 records completely orthogonal repetitions of the same
    component: the p(n) points of sym(n, pt), and products with them.  Distinct
    entries may point at the same component when the blocks they came from are
    only semi-orthogonal.  The constructor also builds ``distinct`` (the
    components as :class:`Component` values, aligned with ``components``) and
    sums ``counts``, the multiplicity of each distinct component; no check
    hashes an atom.  Iterating yields the entries as (component, multiplicity).
    """

    __slots__ = ("atoms", "components", "pairs", "distinct", "counts")

    def __init__(
        self,
        atoms: tuple[Atom, ...] = (),
        components: tuple[tuple[int, ...], ...] = (),
        pairs: tuple[tuple[int, int], ...] = (),
    ) -> None:
        given = atoms + (POINT,) if () in components else atoms
        keys = []
        for atom in given:
            if not isinstance(atom, Atom):
                raise InternalInvariantError(f"atom table entry is not an atom: {atom!r}")
            keys.append(sort_key(atom))
        order = sorted(range(len(given)), key=keys.__getitem__)  # stable: ties keep their order
        table = tuple([given[i] for i in order])
        rank = [0] * len(given)
        for position, i in enumerate(order):
            rank[i] = position
        keys = [keys[i] for i in order]
        run = 0  # first position of the current run of equal keys
        for i in range(1, len(keys)):
            if keys[i] != keys[i - 1]:
                run = i
            elif table[i] in table[run:i]:  # equal atoms have equal keys: compare the run only
                raise InternalInvariantError(f"atom {table[i]} repeats in the table")
        point = 0 if table and isinstance(table[0], Point) else None  # the least key
        laid = []
        for comp in components:
            if comp and (min(comp) < 0 or max(comp) >= len(atoms)):
                raise InternalInvariantError(f"component {comp} outside 0..{len(atoms) - 1}")
            # () is the appended point, at 0: its key is the least
            positions = tuple(sorted(map(rank.__getitem__, comp))) if comp else (0,)
            if positions[0] == point and len(positions) > 1:
                raise InternalInvariantError(f"component {comp} holds the point with other atoms")
            laid.append(positions)
        components = tuple(laid)
        if len(set(components)) < len(components):
            raise InternalInvariantError("a distinct component repeats")
        distinct = tuple([Component.of(map(table.__getitem__, comp)) for comp in components])
        counts = [0] * len(distinct)
        for index, mult in pairs:
            if not 0 <= index < len(distinct):
                raise InternalInvariantError(f"entry index {index} outside 0..{len(counts) - 1}")
            if mult < 1:
                comp = distinct[index]
                raise InternalInvariantError(f"multiplicity must be >= 1: {comp} x {mult}")
            counts[index] += mult
        if 0 in counts:
            raise InternalInvariantError(f"no entry uses {distinct[counts.index(0)]}")
        _set(self, "atoms", table)
        _set(self, "components", components)
        _set(self, "pairs", pairs)
        _set(self, "distinct", distinct)
        _set(self, "counts", tuple(counts))

    def total_multiplicity(self) -> int:
        return sum(self.counts)

    def as_multiset(self) -> dict[Component, int]:
        return dict(zip(self.distinct, self.counts))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        distinct = self.distinct
        return iter([(distinct[index], mult) for index, mult in self.pairs])

    def __str__(self) -> str:
        return "; ".join(f"{comp} x{mult}" for comp, mult in self)


# ---------------------------------------------------------------------------
# Geometric presets


def ruled_betti(genus: int) -> BettiVector:
    # P^1-bundle over a genus-g curve: b1 = 2g, b2 = 2 (fiber + section)
    return BettiVector(1, 2 * genus, 2, 2 * genus, 1)


def fake_plane_betti(l: int) -> BettiVector:
    return BettiVector(1, 0, l, 0, 1)


P2_BETTI = BettiVector(1, 0, 1, 0, 1)


def surface_literal(b: BettiVector) -> Surface:
    name = "surface({},{},{},{},{})".format(*b.as_tuple())
    return Surface(name, b)


def _preset_shape(e: Sod) -> tuple[Optional[str], Optional[BettiVector]]:
    """The preset an SOD's shape spells, and its Betti vector when determined.

    Recognized shapes (post-canonicalization):
    ``sod(pt, pt)`` (P1, a curve: no Betti vector); ``sod(pt, pt, pt)`` (the
    plane); ``sod(curve(g), curve(g))`` (ruled); the blow-up shape
    ``sod(S, pt)`` with S a surface or opaque atom (b2 goes up by one, unknown
    for opaque S); and ``sod(pt, ..., pt, phantom)`` with at least three
    points (a fake plane).  Anything else is ``(None, None)``.
    """
    parts = e.parts
    if all(isinstance(p, Point) for p in parts) and len(parts) in (2, 3):
        return ("P1", None) if len(parts) == 2 else ("P2", P2_BETTI)
    if len(parts) == 2:
        head, tail = parts
        if isinstance(head, Curve) and isinstance(tail, Curve) and head.genus == tail.genus:
            return f"ruled({head.genus})", ruled_betti(head.genus)
        if isinstance(head, (Surface, Opaque)) and isinstance(tail, Point):
            b = betti_of(head)  # None for an opaque S
            return f"blowup({head.name})", b and BettiVector(b.b0, b.b1, b.b2 + 1, b.b3, b.b4)
    if len(parts) >= 4 and isinstance(parts[-1], Phantom):
        if all(isinstance(p, Point) for p in parts[:-1]):
            return f"fakeP2({len(parts) - 3})", fake_plane_betti(len(parts) - 3)
    return None, None


def betti_of(e: CatExpr) -> Optional[BettiVector]:
    """Betti vector of a surface atom or a surface-shaped SOD, if it is determined."""
    if isinstance(e, Surface):
        return e.betti
    return _preset_shape(e)[1] if isinstance(e, Sod) else None


def is_surface_like(e: CatExpr) -> bool:
    """Shapes accepted as the surface argument of a Hilbert-scheme power:
    a surface atom, or any preset shape but P1 (a blow-up's base may be opaque)."""
    if isinstance(e, Surface):
        return True
    return isinstance(e, Sod) and _preset_shape(e)[0] not in (None, "P1")


def blowup(e: CatExpr) -> Sod:
    """The blow-up at a point: ``sod(S, pt)``, with S the surface or opaque atom
    ``e`` or the surface literal of a surface-shaped SOD ``e``."""
    e = canonicalize(e)
    if not isinstance(e, (Surface, Opaque)):
        b = betti_of(e)
        if b is None:
            raise ValueError(f"blowup needs a surface-like argument, got {render_text(e)}")
        e = surface_literal(b)
    return Sod((e, POINT))


def _fake_plane(l: int) -> Sod:
    if l < 1:
        raise ValueError(f"fakeP2 needs l >= 1, got {l}")
    return Sod((POINT,) * (l + 2) + (PHANTOM,))


def _hilb(n: int, e: CatExpr) -> Sym:
    inner = canonicalize(e)
    if not is_surface_like(inner):
        raise ValueError(f"hilb needs a surface-like argument, got {render_text(inner)}")
    return Sym(n, inner)


# Argument kinds: a natural number, an expression, or two or more expressions
# (EXPRS, always the only kind of its constructor).
NAT, EXPR, EXPRS = "nat", "expr", "exprs"

# Every constructor of the grammar: name -> (argument kinds, builder).
CONSTRUCTORS = {
    "pt": ((), lambda: POINT),
    "phantom": ((), lambda: PHANTOM),
    "P1": ((), lambda: Sod((POINT, POINT))),
    "P2": ((), lambda: Sod((POINT, POINT, POINT))),
    "curve": ((NAT,), Curve),
    "fakeP2": ((NAT,), _fake_plane),
    "ruled": ((NAT,), lambda g: Sod((Curve(g), Curve(g)))),
    "surface": ((NAT,) * 5, lambda *b: surface_literal(BettiVector(*b))),
    "blowup": ((EXPR,), blowup),
    "sod": ((EXPRS,), lambda *parts: Sod(parts)),
    "bullet": ((EXPRS,), lambda *factors: Bullet(factors)),
    "sym": ((NAT, EXPR), Sym),
    "hilb": ((NAT, EXPR), _hilb),
}


def make_preset(name: str, *args) -> CatExpr:
    """Build any constructor of the grammar, by name, from its arguments.

    The geometric presets: ``P1`` -> sod(pt, pt); ``P2`` -> sod(pt, pt, pt);
    ``fakeP2(l)`` -> sod(pt x (l+2), phantom) for l >= 1;
    ``ruled(g)`` -> sod(curve(g), curve(g));
    ``surface(b0..b4)`` -> a surface atom (must be Poincare-dual);
    ``blowup(e)`` -> sod(surface-atom-of-e, pt);
    ``hilb(n, e)`` -> sym(n, e) for surface-like e.
    Invalid arguments raise ``ValueError`` with the message the CLI prints.
    """
    if name not in CONSTRUCTORS:
        raise ValueError(f"unknown preset: {name!r}")
    kinds, build = CONSTRUCTORS[name]
    variadic = kinds == (EXPRS,)
    if (len(args) < 2) if variadic else (len(args) != len(kinds)):
        wanted = "at least 2" if variadic else len(kinds)
        raise ValueError(f"preset {name!r} takes {wanted} argument(s), got {len(args)}")
    for kind, value in zip(kinds, args):
        if kind == NAT and (not isinstance(value, int) or isinstance(value, bool) or value < 0):
            raise ValueError(f"preset {name!r} needs a non-negative integer, got {value!r}")
    return build(*args)

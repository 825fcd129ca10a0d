"""Named verification suites behind ``symsod verify``: the one home of each law.

``SUITES`` maps a suite name to its checks by name: enumeration counts, series
identities, coset bookkeeping, Frobenius reciprocity, canonical-form laws,
expansion laws, invariant cross-checks and the parser round trip.  A check
is a body ``(max_n, seed) -> (detail, cases)`` registered once with
``@_check(suite, name, unit)``, which also fixes its place in ``SUITES``.
``max_n`` caps its exhaustive ranges (None keeps the full ranges);
randomized checks draw from ``seed``, and the others ignore it.  The body
returns the detail of its success and the number of cases it examined, or
raises ``_Failed(detail)`` on the first broken case.  The registered
function returns a ``CheckResult``; a check that examined no case fails.
Checks are deterministic.  The test suite runs every check once at its
full ranges with seed 0.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Callable, Optional

from . import grammar, invariants, rewrite, symgroup
from ._record import Record
from .expr import (
    Bullet,
    CatExpr,
    Component,
    Curve,
    Opaque,
    PHANTOM,
    POINT,
    Sod,
    Sym,
    SymCurve,
    SymPower,
    betti_of,
    canonicalize,
    make_preset,
    surface_literal,
)
from .partitions import (
    multiplicity_vectors,
    partition_count,
    partitions_of,
    q_length,
)
from .series import (
    BettiVector,
    euler_product_power,
    gottsche_series,
    poly_eval,
)


class CheckResult(Record):
    """Outcome of one check."""

    __slots__ = ("suite", "name", "ok", "detail")


Check = Callable[[Optional[int], int], CheckResult]

SUITES: dict[str, dict[str, Check]] = {}


class _Failed(Exception):
    """Raised by a check body on its first broken case; the message is the detail."""


def _check(suite: str, name: str, unit: str = "case") -> Callable[[Callable], Check]:
    """Register a check body under ``suite:name``, in definition order.

    A success that examined no ``unit`` becomes a failure: a law checked
    over an empty range shows nothing.  Any other exception raised by the
    body fails the check with its type and message as the detail.
    """

    def register(body: Callable[[Optional[int], int], tuple[str, int]]) -> Check:
        @functools.wraps(body)
        def check(max_n: Optional[int], seed: int) -> CheckResult:
            try:
                detail, cases = body(max_n, seed)
            except _Failed as failure:
                return CheckResult(suite, name, False, str(failure))
            except Exception as exc:  # a crashing check is a failed check, not a usage error
                return CheckResult(suite, name, False, f"{type(exc).__name__}: {exc}")
            if cases < 1:
                return CheckResult(suite, name, False, f"no {unit} examined ({detail})")
            return CheckResult(suite, name, True, detail)

        SUITES.setdefault(suite, {})[name] = check
        return check

    return register


def _bound(default: int, max_n: Optional[int]) -> int:
    return default if max_n is None else min(default, max_n)


# ---------------------------------------------------------------------------
# combinatorics


@_check("combinatorics", "partition-counts")
def _check_partition_counts(max_n: Optional[int], _seed: int) -> tuple[str, int]:
    top = _bound(30, max_n)
    for n in range(top + 1):
        enum = partitions_of(n)
        vectors = multiplicity_vectors(n)
        if not (len(enum) == partition_count(n) == len(vectors)):
            raise _Failed(
                f"mismatch at n={n}: {len(enum)} vs {partition_count(n)} vs {len(vectors)}"
            )
        for vec, part in zip(vectors, enum):
            if tuple(i for i, a in reversed(vec) for _ in range(a)) != part:
                raise _Failed(f"vector/partition bijection broken at n={n}")
    return (
        f"enumeration, pentagonal recurrence, and vector encoding agree for n <= {top}",
        top + 1,
    )


@_check("combinatorics", "q-recurrence")
def _check_q_recurrence(max_n: Optional[int], _seed: int) -> tuple[str, int]:
    top = _bound(20, max_n)
    for l in range(1, 7):
        for n in range(top + 1):
            lhs = q_length(n, l + 1)
            rhs = sum(partition_count(i) * q_length(n - i, l) for i in range(n + 1))
            if lhs != rhs:
                raise _Failed(f"q({n};{l + 1}) = {lhs} but convolution gives {rhs}")
    return f"q(n;l+1) = sum p(i) q(n-i;l) for n <= {top}, l <= 6", 6 * (top + 1)


@_check("combinatorics", "exact-integers")
def _check_exact_integers(_max_n: Optional[int], _seed: int) -> tuple[str, int]:
    if partition_count(100) != 190569292:
        raise _Failed("p(100) wrong")
    return "p(100) = 190569292 computed exactly", 1


# ---------------------------------------------------------------------------
# series


@_check("series", "eta-euler-product")
def _check_eta_euler_product(max_n: Optional[int], _seed: int) -> tuple[str, int]:
    top = _bound(20, max_n)
    for l in range(0, 7):
        for n, coeff in enumerate(euler_product_power(l, top)):
            expected = q_length(n, l) if l >= 1 else (1 if n == 0 else 0)
            if coeff != expected:
                raise _Failed(
                    f"coefficient q^{n} of product with l={l} is {coeff}, expected {expected}"
                )
    return f"prod (1-q^m)^(-l) coefficients equal q(n;l) for n <= {top}, l <= 6", 7 * (top + 1)


_SUITE_BETTIS = (
    BettiVector(1, 0, 1, 0, 1),
    BettiVector(1, 0, 2, 0, 1),
    BettiVector(1, 0, 3, 0, 1),
    BettiVector(1, 2, 2, 2, 1),
    BettiVector(1, 4, 2, 4, 1),
)


@_check("series", "gottsche-euler")
def _check_gottsche_euler(max_n: Optional[int], _seed: int) -> tuple[str, int]:
    top = _bound(12, max_n)
    for b in _SUITE_BETTIS:
        hilb = gottsche_series(b, top)
        chi = euler_product_power(b.euler(), top)
        for n in range(top + 1):
            if poly_eval(hilb[n], -1) != chi[n]:
                raise _Failed(f"z=-1 specialization fails for betti {b.as_tuple()} at n={n}")
    return (
        f"z=-1 specialization matches prod (1-q^m)^(-chi) for n <= {top}",
        len(_SUITE_BETTIS) * (top + 1),
    )


@_check("series", "gottsche-palindromic")
def _check_gottsche_palindromic(max_n: Optional[int], _seed: int) -> tuple[str, int]:
    top = _bound(8, max_n)
    for b in _SUITE_BETTIS:
        for n, row in enumerate(gottsche_series(b, top)):
            if len(row) != 4 * n + 1 or row != row[::-1]:
                raise _Failed(f"q^{n} coefficient not palindromic for betti {b.as_tuple()}")
    return (
        f"each q^n coefficient is z-palindromic about 2n for n <= {top}",
        len(_SUITE_BETTIS) * (top + 1),
    )


# ---------------------------------------------------------------------------
# symgroup


@_check("symgroup", "class-counts")
def _check_class_counts(max_n: Optional[int], _seed: int) -> tuple[str, int]:
    top = _bound(7, max_n)
    for n in range(1, top + 1):
        classes = symgroup.class_table([tuple(range(1, n + 1))])
        types = set()
        for (shape,), word, _ in classes:
            element = symgroup.Permutation.identity(n)
            for letter in word:
                element = element * symgroup.Permutation(letter)
            if symgroup.cycle_type(element) != shape:
                raise _Failed(f"the word of the {shape} class of S_{n} has cycle type "
                              f"{symgroup.cycle_type(element)}")
            types.add(shape)
        if len(classes) != len(types) or len(types) != partition_count(n):
            raise _Failed(f"the class table of S_{n} has {len(classes)} classes")
        if sum(size for _, _, size in classes) != math.factorial(n):
            raise _Failed(f"the class sizes of S_{n} do not sum to {n}!")
    return (
        f"Burnside's class table of S_n has one word per cycle type, with sizes summing "
        f"to n!, for n <= {top}",
        top,
    )


@_check("symgroup", "coset-reps")
def _check_coset_reps(max_n: Optional[int], _seed: int) -> tuple[str, int]:
    top = _bound(7, max_n)
    cases = 0
    for n in range(1, top + 1):
        for i in range(n + 1):
            cases += 1
            pair = symgroup.YoungPair(n, i)
            reps = symgroup.young_coset_reps(pair)
            if len(reps) != math.comb(n, i):
                raise _Failed(f"|reps({n},{i})| = {len(reps)} != C({n},{i})")
            if reps[0] != symgroup.Permutation.identity(n):
                raise _Failed(f"first rep {reps[0]} of ({n},{i}) is not the identity")
            images = {frozenset(r(k) for k in range(n - i + 1, n + 1)) for r in reps}
            if len(images) != len(reps):
                raise _Failed(f"top-block images not distinct for ({n},{i})")
            subgroup = set(symgroup.young_subgroup(pair))
            for j, a in enumerate(reps):
                for b in reps[j + 1 :]:
                    if a.inverse() * b in subgroup:
                        raise _Failed(f"reps {a} and {b} share a coset for ({n},{i})")
            for rep in reps:
                best = min((rep * h).images for h in subgroup)
                if best != rep.images:
                    raise _Failed(f"rep {rep} is not lex-minimal in its coset for ({n},{i})")
    return (
        f"C(n,i) pairwise-distinct lex-minimal representatives, with distinct "
        f"top-block images, for n <= {top}",
        cases,
    )


_RANDOM_MODULES_PER_PAIR = 20


@_check("frobenius", "induction-invariance", unit="module")
def frobenius_battery(max_n: Optional[int], seed: int) -> tuple[str, int]:
    """Induced-invariants equality over the full module battery."""
    top = _bound(6, max_n)
    rng = random.Random(seed)
    checked = 0
    for n in range(1, top + 1):
        for i in range(n + 1):
            pair = symgroup.YoungPair(n, i)
            subgroup = symgroup.young_subgroup(pair)
            battery = [
                symgroup.trivial_module(subgroup),
                symgroup.natural_module(subgroup, n),
                symgroup.regular_module(subgroup),
            ]
            battery.extend(
                symgroup.random_orbit_module(subgroup, n, rng)
                for _ in range(_RANDOM_MODULES_PER_PAIR)
            )
            for module in battery:
                report = symgroup.induction_invariance_check(pair, module)
                checked += 1
                if not report:
                    raise _Failed(
                        f"({n},{i}): induced {report.induced_invariant_dim} != "
                        f"restricted {report.subgroup_invariant_dim}"
                    )
    return f"{checked} induced/restricted invariant comparisons agree (n <= {top})", checked


# ---------------------------------------------------------------------------
# catexpr


_OPAQUE_NAMES = ("A", "B", "C", "S", "T", "U", "X1", "Y2")


def gen_random_expr(rng: random.Random, depth: int = 5) -> CatExpr:
    """A random expression reachable from the grammar (pre-canonicalization)."""
    def random_surface() -> CatExpr:
        odd = 2 * rng.randint(0, 2)
        return surface_literal(BettiVector(1, odd, rng.randint(0, 3), odd, 1))

    atoms: list[Callable[[], CatExpr]] = [
        lambda: POINT,
        lambda: PHANTOM,
        lambda: Curve(rng.randint(0, 3)),
        lambda: Opaque(rng.choice(_OPAQUE_NAMES)),
        random_surface,
        lambda: make_preset("P1"),
        lambda: make_preset("P2"),
        lambda: make_preset("fakeP2", rng.randint(1, 3)),
        lambda: make_preset("ruled", rng.randint(0, 3)),
    ]
    if depth <= 0:
        pick = rng.randrange(5)
        return atoms[pick]()

    roll = rng.random()
    if roll < 0.35:
        pick = rng.randrange(len(atoms))
        return atoms[pick]()
    if roll < 0.55:
        parts = tuple(gen_random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3)))
        return Sod(parts)
    if roll < 0.72:
        factors = tuple(gen_random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3)))
        return Bullet(factors)
    if roll < 0.92:
        return Sym(rng.randint(0, 4), gen_random_expr(rng, depth - 1))
    base = rng.choice(
        [make_preset("P2"), make_preset("fakeP2", rng.randint(1, 2)),
         make_preset("ruled", rng.randint(0, 2)),
         surface_literal(BettiVector(1, 0, rng.randint(0, 3), 0, 1)),
         Opaque(rng.choice(_OPAQUE_NAMES))]
    )
    return make_preset("blowup", base)


def _shuffled_bullets(e: CatExpr, rng: random.Random) -> CatExpr:
    if isinstance(e, Bullet):
        factors = [_shuffled_bullets(f, rng) for f in e.factors]
        rng.shuffle(factors)
        return Bullet(tuple(factors))
    if isinstance(e, Sod):
        return Sod(tuple(_shuffled_bullets(p, rng) for p in e.parts))
    if isinstance(e, Sym):
        return Sym(e.arity, _shuffled_bullets(e.inner, rng))
    return e


@_check("catexpr", "canonical-idempotent")
def _check_canonical_idempotent(_max_n: Optional[int], seed: int) -> tuple[str, int]:
    rng = random.Random(seed)
    for _ in range(300):
        e = gen_random_expr(rng)
        c = canonicalize(e)
        if canonicalize(c) != c:
            raise _Failed(f"not idempotent on {c}")
    return "canonicalize twice = once on 300 random trees", 300


@_check("catexpr", "bullet-shuffle")
def _check_bullet_shuffle(_max_n: Optional[int], seed: int) -> tuple[str, int]:
    rng = random.Random(seed + 1)
    for _ in range(300):
        e = gen_random_expr(rng)
        if canonicalize(e) != canonicalize(_shuffled_bullets(e, rng)):
            raise _Failed(f"order-dependent canonical form on {e}")
    return "canonical form unchanged under 300 random factor shuffles", 300


@_check("catexpr", "preset-betti")
def _check_preset_betti(_max_n: Optional[int], _seed: int) -> tuple[str, int]:
    presets: list[CatExpr] = [
        make_preset("P2"),
        make_preset("fakeP2", 1),
        make_preset("fakeP2", 4),
        make_preset("ruled", 0),
        make_preset("ruled", 2),
    ]
    for base in presets:
        b = betti_of(base)
        if b is None or not (b.b0 == b.b4 and b.b1 == b.b3):
            raise _Failed(f"bad Betti for {base}")
        bb = betti_of(make_preset("blowup", base))
        if bb is None or bb.euler() != b.euler() + 1:
            raise _Failed(f"blow-up Euler increment failed on {base}")
    return "preset Betti vectors Poincare-dual; chi(blowup) = chi + 1", len(presets)


# ---------------------------------------------------------------------------
# rewrite


@_check("rewrite", "count-law")
def _check_count_law(max_n: Optional[int], _seed: int) -> tuple[str, int]:
    top = _bound(12, max_n)
    # (kind, parts, base): l points; ruled(g) = sod(curve(g), curve(g)); and
    # fakeP2(l) = sod(pt x (l+2), phantom), whose phantom powers each count once
    bases = [("points", l, Sod((POINT,) * l) if l > 1 else POINT) for l in range(1, 6)]
    bases += [("curves", 2, make_preset("ruled", g)) for g in range(3)]
    bases += [("fake", l + 2, make_preset("fakeP2", l)) for l in range(1, 4)]
    for kind, parts, base in bases:
        for n in range(top + 1):
            e = Sym(n, base)
            components = rewrite.expand(e)
            if kind == "fake":
                expected = sum(q_length(n - k, parts) for k in range(n + 1))
            else:
                expected = q_length(n, parts)
                factors = [f for comp, _ in components for f in comp.factors]
                if not all(isinstance(f, (Curve, SymCurve)) or f == POINT for f in factors):
                    raise _Failed(f"non-curve-power factor in {e}")
            if components.total_multiplicity() != expected:
                raise _Failed(f"{e}: count {components.total_multiplicity()} != {expected}")
            if kind == "points":
                report = invariants.invariant_report(e)
                lengths = (report.exceptional_length, report.euler, report.hh_total)
                if lengths != (expected,) * 3:
                    raise _Failed(f"{e}: length, euler, hh {lengths} != {expected}")
    return (
        f"sym(n, -) has q(n;l) points (= length = euler = hh) for l <= 5 points, q(n;2) "
        f"curve powers for ruled(0..2), sum q(n-k;l+2) components for fakeP2(1..3), n <= {top}",
        len(bases) * (top + 1),
    )


def _power(k: int, x: CatExpr) -> tuple[list[CatExpr], int]:
    """sym^k(x) as (factors, multiplicity): p(k) points for x = pt, else one power of x."""
    if x == POINT:
        return [], partition_count(k)
    return ([] if k == 0 else [x] if k == 1 else [SymPower(k, x)]), 1


@_check("rewrite", "block-law")
def _check_block_law(max_n: Optional[int], _seed: int) -> tuple[str, int]:
    top = _bound(10, max_n)
    a, b = Opaque("A"), Opaque("B")
    # sod(A, B); P1 = sod(pt, pt); the blow-up sod(A, pt) of an opaque surface
    bases = ((a, b), (POINT, POINT), (a, POINT))
    arities = range(2, top + 1)  # sym(0, -) and sym(1, -) are R5 and R6, not R1
    for x, y in bases:
        for n in arities:
            components = rewrite.expand(Sym(n, Sod((x, y))))
            blocks = []
            for i in range(n + 1):
                (head, mult_head), (tail, mult_tail) = _power(n - i, x), _power(i, y)
                blocks.append((Component.of(head + tail), mult_head * mult_tail))
            if tuple(components) != tuple(blocks):
                raise _Failed(f"sym({n}, sod({x}, {y})) = {components}")
    return (
        f"sym(n, sod(X, Y)) is the blocks sym^(n-i)X . sym^i Y, i = 0..n, with sym^k pt "
        f"= p(k) points, for (X, Y) = (A, B), (pt, pt), (A, pt) and 2 <= n <= {top}",
        len(bases) * len(arities),
    )


_BRACKETING_TRIPLES = (
    (POINT, POINT, POINT),
    (Opaque("A"), POINT, Curve(1)),
    (Curve(0), Opaque("S"), POINT),
    (PHANTOM, POINT, Curve(2)),
    (Opaque("A"), Opaque("B"), Opaque("C")),
    (POINT, Opaque("A"), Curve(1)),
    (PHANTOM, POINT, Curve(0)),
)


@_check("rewrite", "bracketing-independence")
def _check_bracketing_independence(max_n: Optional[int], _seed: int) -> tuple[str, int]:
    top = _bound(6, max_n)
    for triple in _BRACKETING_TRIPLES:
        sod = Sod(triple)
        for n in range(top + 1):
            head = rewrite.expand(Sym(n, sod))
            tail = rewrite.expand_tail_first(Sym(n, sod))
            if head.as_multiset() != tail.as_multiset():
                raise _Failed(f"bracketings disagree for n={n}, atoms {triple}")
            if head.total_multiplicity() != tail.total_multiplicity():
                raise _Failed(f"total multiplicity differs for n={n}")
    return (
        f"head-first and tail-first expansions multiset-equal for n <= {top}",
        len(_BRACKETING_TRIPLES) * (top + 1),
    )


# ---------------------------------------------------------------------------
# invariants


_LAW_SURFACES = (BettiVector(1, 0, 10, 0, 1), BettiVector(1, 2, 6, 2, 1))


def _law_surfaces(rng: random.Random) -> list[BettiVector]:
    """Two Betti vectors with e < 0 (b1 > b0 + b2 / 2) and two with b2 up to 1000."""
    drawn = []
    for _ in range(2):
        b0 = rng.randint(1, 3)
        b1 = rng.randint(b0 + 1, 12)
        drawn.append(BettiVector(b0, b1, rng.randint(0, 2 * (b1 - b0) - 1), b1, b0))
        b0 = rng.randint(1, 3)
        b1 = rng.randint(0, 12)
        drawn.append(BettiVector(b0, b1, rng.randint(0, 1000), b1, b0))
    return drawn


@_check("invariants", "goettsche-two-path")
def _check_goettsche_two_path(max_n: Optional[int], seed: int) -> tuple[str, int]:
    top = _bound(10, max_n)
    bases = [make_preset("P2"), make_preset("blowup", make_preset("P2"))]
    bases += [make_preset("ruled", g) for g in range(3)]
    bases += [make_preset("fakeP2", l) for l in range(1, 4)]
    surfaces = [surface_literal(b) for b in _LAW_SURFACES]
    bases += surfaces + [make_preset("blowup", surfaces[1])]
    bases += [surface_literal(b) for b in _law_surfaces(random.Random(seed))]
    for base in bases:
        polys = gottsche_series(betti_of(base), top)
        for n in range(1, top + 1):
            e = Sym(n, base)
            report = invariants.invariant_report(e)
            expanded = (report.euler, report.hh_total)
            analytic = (poly_eval(polys[n], -1), poly_eval(polys[n], 1))
            if expanded != analytic:
                raise _Failed(f"{e}: expansion (euler, hh) {expanded} != Goettsche {analytic}")
    return (
        f"expansion euler and hh = Goettsche at z=-1 and z=1 for P2, blowup(P2), "
        f"ruled(0..2), fakeP2(1..3), {surfaces[0]}, {surfaces[1]}, blowup({surfaces[1]}) "
        f"and 4 seeded surfaces (2 with e < 0, 2 with b2 <= 1000), n <= {top}",
        len(bases) * top,
    )


@_check("invariants", "phantom-audit")
def _check_phantom_audit(max_n: Optional[int], _seed: int) -> tuple[str, int]:
    top = _bound(10, max_n)
    cases = 0
    for l in range(1, 5):
        report = invariants.phantom_audit(l, top)
        cases += len(report.rows)
        if not report.all_equal:
            bad = next(row for row in report.rows if not row.equal)
            raise _Failed(f"l={l}, n={bad.n}: {bad.hilb_total_betti} != {bad.q_value}")
    return (
        f"Hilbert total Betti equals q(n; l+2) for l = 1..4, n <= {top}; "
        "phantom sym-powers certified",
        cases,
    )


# ---------------------------------------------------------------------------
# parser round trip


_ROUNDTRIP_EXPRESSIONS = 1000


@_check("roundtrip", "parse-render")
def _check_parse_render(_max_n: Optional[int], seed: int) -> tuple[str, int]:
    rng = random.Random(seed)
    for k in range(_ROUNDTRIP_EXPRESSIONS):
        e = canonicalize(gen_random_expr(rng))
        text = grammar.render_text(e)
        if grammar.parse_expr(text) != e:
            raise _Failed(f"expression #{k}: {text!r} reparsed differently")
    return (
        f"parse(render(e)) = e on {_ROUNDTRIP_EXPRESSIONS} random canonical expressions",
        _ROUNDTRIP_EXPRESSIONS,
    )


def run_suites(name: str = "all", max_n: Optional[int] = None, seed: int = 0) -> list[CheckResult]:
    """Run one named suite, or all of them in a fixed order.

    ``max_n`` caps the exhaustive ranges and must be an ``int`` (not ``bool``)
    of at least 1: a smaller cap would leave checks with no case to examine.
    """
    if max_n is not None and (type(max_n) is not int or max_n < 1):
        raise ValueError(f"max_n must be >= 1, got {max_n!r}")
    if name == "all":
        checks = [check for suite in SUITES.values() for check in suite.values()]
    elif name in SUITES:
        checks = list(SUITES[name].values())
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
    return [check(max_n, seed) for check in checks]

"""Named verification suites behind ``symsod verify``: the one home of each law.

``SUITES`` maps a suite name to its checks: enumeration counts, series
identities, coset bookkeeping, Frobenius reciprocity, canonical-form laws,
expansion laws, invariant cross-checks and the parser round trip.  Every
check is a function ``(max_n, seed) -> CheckResult``.  ``max_n`` caps its
exhaustive ranges (None keeps the full ranges); randomized checks draw from
``seed``, and the others ignore it.  Checks are deterministic.  Each check
counts the cases it examined, and a check that examined none fails.  The
test suite runs every check once at its full ranges with seed 0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from . import grammar, invariants, rewrite, symgroup
from .expr import (
    Bullet,
    CatExpr,
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
    ruled_betti,
    surface_literal,
)
from .partitions import (
    multiplicity_vectors,
    partition_count,
    partitions_of,
    q_length,
    weak_compositions,
)
from .series import (
    BettiVector,
    TruncatedSeries,
    eta_inverse_power,
    euler_product_power,
    gottsche_series,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check; ``cases`` counts what it examined, in ``unit``s.

    A result that claims success without a single examined case is turned
    into a failure: a law checked over an empty range shows nothing.
    """

    suite: str
    name: str
    ok: bool
    detail: str = ""
    cases: int = 0
    unit: str = "case"

    def __post_init__(self) -> None:
        if self.ok and self.cases < 1:
            object.__setattr__(self, "ok", False)
            object.__setattr__(self, "detail", f"no {self.unit} examined ({self.detail})")


Check = Callable[[Optional[int], int], CheckResult]


def _bound(default: int, max_n: Optional[int]) -> int:
    return default if max_n is None else min(default, max_n)


# ---------------------------------------------------------------------------
# combinatorics


def _check_partition_counts(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(30, max_n)
    for n in range(top + 1):
        enum = partitions_of(n)
        vectors = multiplicity_vectors(n)
        if not (len(enum) == partition_count(n) == len(vectors)):
            return CheckResult(
                "combinatorics", "partition-counts", False,
                f"mismatch at n={n}: {len(enum)} vs {partition_count(n)} vs {len(vectors)}",
            )
        for vec, part in zip(vectors, enum):
            if tuple(i for i, a in reversed(vec) for _ in range(a)) != part:
                return CheckResult(
                    "combinatorics", "partition-counts", False,
                    f"vector/partition bijection broken at n={n}",
                )
    return CheckResult(
        "combinatorics", "partition-counts", True,
        f"enumeration, pentagonal recurrence, and vector encoding agree for n <= {top}",
        cases=top + 1,
    )


def _check_q_recurrence(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(20, max_n)
    for l in range(1, 7):
        for n in range(top + 1):
            lhs = q_length(n, l + 1)
            rhs = sum(partition_count(i) * q_length(n - i, l) for i in range(n + 1))
            if lhs != rhs:
                return CheckResult(
                    "combinatorics", "q-recurrence", False,
                    f"q({n};{l + 1}) = {lhs} but convolution gives {rhs}",
                )
    return CheckResult(
        "combinatorics", "q-recurrence", True,
        f"q(n;l+1) = sum p(i) q(n-i;l) for n <= {top}, l <= 6",
        cases=6 * (top + 1),
    )


def _check_weak_composition_counts(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(15, max_n)
    for n in range(top + 1):
        for l in range(1, 7):
            count = len(weak_compositions(n, l))
            expected = math.comb(n + l - 1, l - 1)
            if count != expected:
                return CheckResult(
                    "combinatorics", "weak-composition-counts", False,
                    f"({n},{l}): {count} != C({n + l - 1},{l - 1}) = {expected}",
                )
    return CheckResult(
        "combinatorics", "weak-composition-counts", True,
        f"|compositions(n,l)| = C(n+l-1,l-1) for n <= {top}, l <= 6",
        cases=6 * (top + 1),
    )


def _check_exact_integers(_max_n: Optional[int], _seed: int) -> CheckResult:
    ok = partition_count(100) == 190569292
    return CheckResult(
        "combinatorics", "exact-integers", ok,
        "p(100) = 190569292 computed exactly" if ok else "p(100) wrong",
        cases=1,
    )


# ---------------------------------------------------------------------------
# series


def _random_series(rng: random.Random, trunc: int) -> TruncatedSeries:
    coeffs = {}
    for n in range(trunc + 1):
        if rng.random() < 0.7:
            coeffs[n] = {
                rng.randint(-3, 4): rng.randint(-5, 5) for _ in range(rng.randint(1, 3))
            }
    return TruncatedSeries(trunc, coeffs)


def _check_ring_axioms(_max_n: Optional[int], seed: int) -> CheckResult:
    rng = random.Random(seed)
    for _ in range(40):
        trunc = rng.randint(1, 6)
        a, b, c = (_random_series(rng, trunc) for _ in range(3))
        if a * b != b * a:
            return CheckResult("series", "ring-axioms", False, "commutativity failed")
        if (a * b) * c != a * (b * c):
            return CheckResult("series", "ring-axioms", False, "associativity failed")
        if a * (b + c) != a * b + a * c:
            return CheckResult("series", "ring-axioms", False, "distributivity failed")
        if a * TruncatedSeries.one(trunc) != a:
            return CheckResult("series", "ring-axioms", False, "unit failed")
    return CheckResult(
        "series", "ring-axioms", True,
        "commutativity, associativity, distributivity, unit on 40 random series",
        cases=40,
    )


def _check_eta_euler_product(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(20, max_n)
    for l in range(0, 7):
        series = eta_inverse_power(l, max(top, 1))
        for n in range(top + 1):
            coeff = series.q_coefficient_at(n, 1)
            expected = q_length(n, l) if l >= 1 else (1 if n == 0 else 0)
            if coeff != expected:
                return CheckResult(
                    "series", "eta-euler-product", False,
                    f"coefficient q^{n} of product with l={l} is {coeff}, expected {expected}",
                )
    return CheckResult(
        "series", "eta-euler-product", True,
        f"prod (1-q^m)^(-l) coefficients equal q(n;l) for n <= {top}, l <= 6",
        cases=7 * (top + 1),
    )


_SUITE_BETTIS = (
    BettiVector(1, 0, 1, 0, 1),
    BettiVector(1, 0, 2, 0, 1),
    BettiVector(1, 0, 3, 0, 1),
    BettiVector(1, 2, 2, 2, 1),
    BettiVector(1, 4, 2, 4, 1),
)


def _check_gottsche_euler(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(12, max_n)
    for b in _SUITE_BETTIS:
        hilb = gottsche_series(b, top)
        chi = euler_product_power(b.euler(), top)
        for n in range(top + 1):
            if hilb.q_coefficient_at(n, -1) != chi.q_coefficient_at(n, 1):
                return CheckResult(
                    "series", "gottsche-euler", False,
                    f"z=-1 specialization fails for betti {b.as_tuple()} at n={n}",
                )
    return CheckResult(
        "series", "gottsche-euler", True,
        f"z=-1 specialization matches prod (1-q^m)^(-chi) for n <= {top}",
        cases=len(_SUITE_BETTIS) * (top + 1),
    )


def _check_gottsche_palindromic(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(8, max_n)
    for b in _SUITE_BETTIS:
        series = gottsche_series(b, top)
        for n in range(top + 1):
            poly = series.q_coefficient(n)
            if any(poly.get(e, 0) != poly.get(4 * n - e, 0) for e in range(0, 4 * n + 1)):
                return CheckResult(
                    "series", "gottsche-palindromic", False,
                    f"q^{n} coefficient not palindromic for betti {b.as_tuple()}",
                )
    return CheckResult(
        "series", "gottsche-palindromic", True,
        f"each q^n coefficient is z-palindromic about 2n for n <= {top}",
        cases=len(_SUITE_BETTIS) * (top + 1),
    )


# ---------------------------------------------------------------------------
# symgroup


def _check_class_counts(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(7, max_n)
    for n in range(1, top + 1):
        types = {symgroup.cycle_type(p) for p in symgroup.symmetric_group(n)}
        if len(types) != partition_count(n):
            return CheckResult(
                "symgroup", "class-counts", False,
                f"exhaustive classification of S_{n} found {len(types)} types",
            )
    return CheckResult(
        "symgroup", "class-counts", True,
        f"S_n has p(n) cycle types by exhaustive classification for n <= {top}",
        cases=top,
    )


def _check_coset_reps(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(7, max_n)
    cases = 0
    for n in range(1, top + 1):
        for i in range(n + 1):
            cases += 1
            pair = symgroup.YoungPair(n, i)
            reps = symgroup.young_coset_reps(pair)
            if len(reps) != math.comb(n, i):
                return CheckResult(
                    "symgroup", "coset-reps", False,
                    f"|reps({n},{i})| = {len(reps)} != C({n},{i})",
                )
            if reps[0] != symgroup.Permutation.identity(n):
                return CheckResult(
                    "symgroup", "coset-reps", False,
                    f"first rep {reps[0]} of ({n},{i}) is not the identity",
                )
            subgroup = set(symgroup.young_subgroup(pair))
            for j, a in enumerate(reps):
                for b in reps[j + 1 :]:
                    if a.inverse() * b in subgroup:
                        return CheckResult(
                            "symgroup", "coset-reps", False,
                            f"reps {a} and {b} share a coset for ({n},{i})",
                        )
            for rep in reps:
                best = min((rep * h).images for h in subgroup)
                if best != rep.images:
                    return CheckResult(
                        "symgroup", "coset-reps", False,
                        f"rep {rep} is not lex-minimal in its coset for ({n},{i})",
                    )
    return CheckResult(
        "symgroup", "coset-reps", True,
        f"C(n,i) pairwise-distinct lex-minimal representatives for n <= {top}",
        cases=cases,
    )


def _check_subset_bijection(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(7, max_n)
    cases = 0
    for n in range(1, top + 1):
        for i in range(n + 1):
            cases += 1
            reps = symgroup.young_coset_reps(symgroup.YoungPair(n, i))
            images = {frozenset(r(k) for k in range(n - i + 1, n + 1)) for r in reps}
            if len(images) != math.comb(n, i):
                return CheckResult(
                    "symgroup", "subset-bijection", False,
                    f"top-block images not distinct for ({n},{i})",
                )
    return CheckResult(
        "symgroup", "subset-bijection", True,
        f"rep -> image of top block is a bijection onto i-subsets for n <= {top}",
        cases=cases,
    )


_RANDOM_MODULES_PER_PAIR = 20


def frobenius_battery(max_n: Optional[int], seed: int) -> CheckResult:
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
                    return CheckResult(
                        "frobenius", "induction-invariance", False,
                        f"({n},{i}): induced {report.induced_invariant_dim} != "
                        f"restricted {report.subgroup_invariant_dim}",
                    )
    return CheckResult(
        "frobenius", "induction-invariance", True,
        f"{checked} induced/restricted invariant comparisons agree (n <= {top})",
        cases=checked, unit="module",
    )


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
        return Sod(tuple(_shuffled_bullets(p, rng) for p in e.parts), e.orthogonal)
    if isinstance(e, Sym):
        return Sym(e.arity, _shuffled_bullets(e.inner, rng))
    return e


def _check_canonical_idempotent(_max_n: Optional[int], seed: int) -> CheckResult:
    rng = random.Random(seed)
    for _ in range(300):
        e = gen_random_expr(rng)
        c = canonicalize(e)
        if canonicalize(c) != c:
            return CheckResult(
                "catexpr", "canonical-idempotent", False, f"not idempotent on {c}"
            )
    return CheckResult(
        "catexpr", "canonical-idempotent", True, "canonicalize twice = once on 300 random trees",
        cases=300,
    )


def _check_bullet_shuffle(_max_n: Optional[int], seed: int) -> CheckResult:
    rng = random.Random(seed + 1)
    for _ in range(300):
        e = gen_random_expr(rng)
        if canonicalize(e) != canonicalize(_shuffled_bullets(e, rng)):
            return CheckResult(
                "catexpr", "bullet-shuffle", False, f"order-dependent canonical form on {e}"
            )
    return CheckResult(
        "catexpr", "bullet-shuffle", True,
        "canonical form unchanged under 300 random factor shuffles",
        cases=300,
    )


def _check_preset_betti(_max_n: Optional[int], _seed: int) -> CheckResult:
    presets: list[CatExpr] = [
        make_preset("P2"),
        make_preset("fakeP2", 1),
        make_preset("fakeP2", 4),
        make_preset("ruled", 0),
        make_preset("ruled", 2),
    ]
    for base in list(presets):
        b = betti_of(base)
        if b is None or not (b.b0 == b.b4 and b.b1 == b.b3):
            return CheckResult("catexpr", "preset-betti", False, f"bad Betti for {base}")
        blown = make_preset("blowup", base)
        bb = betti_of(blown)
        if bb is None or bb.euler() != b.euler() + 1:
            return CheckResult(
                "catexpr", "preset-betti", False,
                f"blow-up Euler increment failed on {base}",
            )
    return CheckResult(
        "catexpr", "preset-betti", True,
        "preset Betti vectors Poincare-dual; chi(blowup) = chi + 1",
        cases=len(presets),
    )


# ---------------------------------------------------------------------------
# rewrite


def _check_exceptional_count_law(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(12, max_n)
    for l in range(1, 6):
        sod = Sod(tuple([POINT] * l)) if l >= 2 else POINT
        for n in range(top + 1):
            components = rewrite.expand(Sym(n, sod))
            if not components.is_purely_exceptional():
                return CheckResult(
                    "rewrite", "exceptional-count-law", False,
                    f"non-point component for n={n}, l={l}",
                )
            if components.total_multiplicity() != q_length(n, l):
                return CheckResult(
                    "rewrite", "exceptional-count-law", False,
                    f"count {components.total_multiplicity()} != q({n};{l})",
                )
    return CheckResult(
        "rewrite", "exceptional-count-law", True,
        f"sym(n, l points) has exactly q(n;l) point components for n <= {top}, l <= 5",
        cases=5 * (top + 1),
    )


def _check_order_law(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(8, max_n)
    a, b = Opaque("A"), Opaque("B")
    arities = range(2, top + 1)
    for n in arities:
        entries = rewrite.expand(Sym(n, Sod((a, b)))).entries
        first, last = entries[0][0], entries[-1][0]
        if first.factors != (SymPower(n, a),) or last.factors != (SymPower(n, b),):
            return CheckResult(
                "rewrite", "order-law", False,
                f"blocks out of order for n={n}: {first} ... {last}",
            )
    return CheckResult(
        "rewrite", "order-law", True,
        f"pure-A block first and pure-B block last for n <= {top}",
        cases=len(arities),
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


def _check_bracketing_independence(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(6, max_n)
    for triple in _BRACKETING_TRIPLES:
        sod = Sod(triple)
        for n in range(top + 1):
            head = rewrite.expand(Sym(n, sod))
            tail = rewrite.expand_tail_first(Sym(n, sod))
            if head.as_multiset() != tail.as_multiset():
                return CheckResult(
                    "rewrite", "bracketing-independence", False,
                    f"bracketings disagree for n={n}, atoms {triple}",
                )
            if head.total_multiplicity() != tail.total_multiplicity():
                return CheckResult(
                    "rewrite", "bracketing-independence", False,
                    f"total multiplicity differs for n={n}",
                )
    return CheckResult(
        "rewrite", "bracketing-independence", True,
        f"head-first and tail-first expansions multiset-equal for n <= {top}",
        cases=len(_BRACKETING_TRIPLES) * (top + 1),
    )


def _check_coset_count_shadow(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(7, max_n)
    a, b = Opaque("A"), Opaque("B")
    # n = 1 never reaches the block rule (sym(1, -) is the identity), so its
    # coset counts C(1, i) = 1 are checked against the enumeration directly.
    for i in (0, 1):
        if len(symgroup.young_coset_reps(symgroup.YoungPair(1, i))) != 1:
            return CheckResult(
                "rewrite", "coset-count-shadow", False, f"C(1,{i}) cosets != 1"
            )
    arities = range(2, top + 1)
    for n in arities:
        trace: list[rewrite.BlockTrace] = []
        rewrite.expand(Sym(n, Sod((a, b))), trace)
        top_level = [t for t in trace if t.arity == n]
        if len(top_level) != n + 1:
            return CheckResult(
                "rewrite", "coset-count-shadow", False, f"expected {n + 1} blocks at n={n}"
            )
        for record in top_level:
            reps = symgroup.young_coset_reps(symgroup.YoungPair(n, record.block))
            if record.summands != len(reps):
                return CheckResult(
                    "rewrite", "coset-count-shadow", False,
                    f"block {record.block} of n={n}: {record.summands} != {len(reps)} cosets",
                )
    return CheckResult(
        "rewrite", "coset-count-shadow", True,
        f"per-block summand counts match the coset enumeration for n <= {top}",
        cases=2 + len(arities),
    )


def _check_ruled_law(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(8, max_n)
    for g in (0, 1, 2):
        ruled = make_preset("ruled", g)
        for n in range(1, top + 1):
            components = rewrite.expand(Sym(n, ruled))
            expected = sum(
                partition_count(n - i) * partition_count(i) for i in range(n + 1)
            )
            if components.total_multiplicity() != expected:
                return CheckResult(
                    "rewrite", "ruled-law", False,
                    f"count {components.total_multiplicity()} != {expected} for g={g}, n={n}",
                )
            for comp, _ in components:
                if not all(isinstance(f, (Curve, SymCurve)) or f == POINT for f in comp.factors):
                    return CheckResult(
                        "rewrite", "ruled-law", False,
                        f"non-curve-power factor in {comp} for g={g}, n={n}",
                    )
    return CheckResult(
        "rewrite", "ruled-law", True,
        f"sym(n, ruled(g)) has sum p(n-i)p(i) curve-power components for n <= {top}",
        cases=3 * top,
    )


# ---------------------------------------------------------------------------
# invariants


def _check_euler_two_path(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(10, max_n)
    p2 = make_preset("P2")
    betti = BettiVector(1, 0, 1, 0, 1)
    series = gottsche_series(betti, top)
    for n in range(1, top + 1):
        expanded = invariants.euler_char(Sym(n, p2))
        analytic = series.q_coefficient_at(n, -1)
        if expanded != analytic:
            return CheckResult(
                "invariants", "euler-two-path", False,
                f"n={n}: expansion {expanded} != Goettsche {analytic}",
            )
    return CheckResult(
        "invariants", "euler-two-path", True,
        f"expansion Euler = Goettsche z=-1 for the plane, n <= {top}",
        cases=top,
    )


def _check_hh_two_path(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(8, max_n)
    for g in (0, 1, 2):
        ruled = make_preset("ruled", g)
        series = gottsche_series(ruled_betti(g), top)
        for n in range(1, top + 1):
            expanded = invariants.hh_total_dim(Sym(n, ruled))
            analytic = series.q_coefficient_at(n, 1)
            if expanded != analytic:
                return CheckResult(
                    "invariants", "hh-two-path", False,
                    f"g={g}, n={n}: curve-power pipeline {expanded} != Goettsche {analytic}",
                )
    return CheckResult(
        "invariants", "hh-two-path", True,
        f"curve-power + Macdonald HH = Goettsche z=1 for ruled(0..2), n <= {top}",
        cases=3 * top,
    )


def _check_exceptional_equalities(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(6, max_n)
    corpus: list[CatExpr] = [make_preset("P1"), make_preset("P2"), Sod((POINT, POINT, POINT, POINT))]
    corpus.extend(Sym(n, make_preset("P1")) for n in range(top + 1))
    corpus.extend(Sym(n, make_preset("P2")) for n in range(top + 1))
    for e in corpus:
        report = invariants.invariant_report(e)
        if report.exceptional_length is None:
            return CheckResult(
                "invariants", "exceptional-equalities", False, f"{e} should be exceptional"
            )
        if not (report.exceptional_length == report.euler == report.hh_total):
            return CheckResult(
                "invariants", "exceptional-equalities", False,
                f"{e}: {report.exceptional_length} / {report.euler} / {report.hh_total}",
            )
    return CheckResult(
        "invariants", "exceptional-equalities", True,
        "length = euler = hh on the purely exceptional corpus",
        cases=len(corpus),
    )


def _check_blowup_formula(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(8, max_n)
    blown = gottsche_series(BettiVector(1, 0, 2, 0, 1), max(top, 1))
    blowup_sod = make_preset("blowup", make_preset("P2"))
    for n in range(1, top + 1):
        e = Sym(n, blowup_sod)
        if invariants.hh_total_dim(e) != blown.q_coefficient_at(n, 1):
            return CheckResult(
                "invariants", "blowup-formula", False, f"hh mismatch at n={n}"
            )
        if invariants.euler_char(e) != blown.q_coefficient_at(n, -1):
            return CheckResult(
                "invariants", "blowup-formula", False, f"euler mismatch at n={n}"
            )
    return CheckResult(
        "invariants", "blowup-formula", True,
        f"block-sum invariants of hilb(n, blowup(P2)) match the blown-up surface "
        f"series for n <= {top}",
        cases=top,
    )


def _check_phantom_audit(max_n: Optional[int], _seed: int) -> CheckResult:
    top = _bound(10, max_n)
    cases = 0
    for l in range(1, 5):
        report = invariants.phantom_audit(l, top)
        cases += len(report.rows)
        if not report.all_equal:
            bad = next(row for row in report.rows if not row.equal)
            return CheckResult(
                "invariants", "phantom-audit", False,
                f"l={l}, n={bad.n}: {bad.hilb_total_betti} != {bad.q_value}",
            )
    return CheckResult(
        "invariants", "phantom-audit", True,
        f"Hilbert total Betti equals q(n; l+2) for l = 1..4, n <= {top}; "
        "phantom sym-powers certified",
        cases=cases,
    )


# ---------------------------------------------------------------------------
# parser round trip


_ROUNDTRIP_EXPRESSIONS = 1000


def _check_parse_render(_max_n: Optional[int], seed: int) -> CheckResult:
    rng = random.Random(seed)
    for k in range(_ROUNDTRIP_EXPRESSIONS):
        e = canonicalize(gen_random_expr(rng))
        text = grammar.render_text(e)
        back = grammar.parse_expr(text)
        if back != e:
            return CheckResult(
                "roundtrip", "parse-render", False,
                f"expression #{k}: {text!r} reparsed differently",
            )
    return CheckResult(
        "roundtrip", "parse-render", True,
        f"parse(render(e)) = e on {_ROUNDTRIP_EXPRESSIONS} random canonical expressions",
        cases=_ROUNDTRIP_EXPRESSIONS,
    )


SUITES: dict[str, tuple[Check, ...]] = {
    "combinatorics": (
        _check_partition_counts,
        _check_q_recurrence,
        _check_weak_composition_counts,
        _check_exact_integers,
    ),
    "series": (
        _check_ring_axioms,
        _check_eta_euler_product,
        _check_gottsche_euler,
        _check_gottsche_palindromic,
    ),
    "symgroup": (_check_class_counts, _check_coset_reps, _check_subset_bijection),
    "frobenius": (frobenius_battery,),
    "catexpr": (_check_canonical_idempotent, _check_bullet_shuffle, _check_preset_betti),
    "rewrite": (
        _check_exceptional_count_law,
        _check_order_law,
        _check_bracketing_independence,
        _check_coset_count_shadow,
        _check_ruled_law,
    ),
    "invariants": (
        _check_euler_two_path,
        _check_hh_two_path,
        _check_exceptional_equalities,
        _check_blowup_formula,
        _check_phantom_audit,
    ),
    "roundtrip": (_check_parse_render,),
}


def run_suites(name: str = "all", max_n: Optional[int] = None, seed: int = 0) -> list[CheckResult]:
    """Run one named suite, or all of them in a fixed order.

    ``max_n`` caps the exhaustive ranges and must be at least 1: a smaller
    cap would leave checks with no case to examine.
    """
    if max_n is not None and max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if name == "all":
        checks = [check for suite in SUITES.values() for check in suite]
    elif name in SUITES:
        checks = SUITES[name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
    return [check(max_n, seed) for check in checks]

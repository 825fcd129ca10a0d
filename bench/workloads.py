"""The four workloads: seeded operation rounds, how one operation runs, how it is checked.

A round is a fixed grid of operation families and sizes; the seed draws the
free parameters of every cell (Betti numbers, genera, SOD lengths, sizes
within a narrow band, module draws) and the order of the round.  Round ``r``
of seed ``s`` is always the same list, so two runs with one seed do the same
work in the same order.  Every operation is checked against ``oracle`` (plain
integer code) or against a property the method must have.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import oracle

# Nested symmetric powers: fixed inputs, independent of the seed.  The engine
# turns sym(a, sym(b, X)) with b >= 2 into an opaque sym^a(...) atom (rule R7
# in rewrite._expand), so euler and hh come back unknown; the correct answer
# is q(a; q(b; l)) points for X made of l points.  (a, b, l, text)
NESTED = [
    (2, 2, 1, "sym(2, sym(2, pt))"),
    (3, 2, 2, "sym(3, sym(2, P1))"),
]


@dataclass(frozen=True)
class Op:
    family: str
    params: tuple
    argv: tuple[str, ...] = ()
    known_fault: bool = False


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def _betti(rng: random.Random, odd: bool) -> tuple[int, int, int, int, int]:
    b1 = rng.randint(1, 3) if odd else 0
    return (1, b1, rng.randint(1, 60), b1, 1)


def _surface_text(b: tuple[int, ...]) -> str:
    return "surface({},{},{},{},{})".format(*b)


# ---------------------------------------------------------------------------
# hilbert-invariants


def hilbert_round(seed: int, r: int) -> list[Op]:
    rng = _rng("hilbert-invariants", seed, r)
    ops = []
    for n, odd in itertools.product((6, 9, 12, 15), (False, True)):
        b = _betti(rng, odd)
        ops.append(Op("hilb-surface", (n, b), ("invariants", f"hilb({n}, {_surface_text(b)})")))
    for n, odd in itertools.product((5, 8, 11), (False, True)):
        b, k = _betti(rng, odd), rng.randint(1, 3)
        text = _surface_text(b)
        for _ in range(k):
            text = f"blowup({text})"
        eff = (b[0], b[1], b[2] + k, b[3], b[4])
        ops.append(Op("hilb-blowup", (n, eff), ("invariants", f"hilb({n}, {text})")))
    for n in (6, 9, 12, 15):
        g = rng.randint(0, 4)
        ops.append(Op("curve-power", (n, g), ("invariants", f"sym({n}, curve({g}))")))
    for n in (4, 6, 8):
        g = rng.randint(0, 3)
        ops.append(Op("ruled-power", (n, g), ("invariants", f"sym({n}, ruled({g}))")))
    for a, b, l, text in NESTED:
        ops.append(Op("nested", (a, b, l), ("invariants", text), known_fault=True))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# exceptional-decompose


def exceptional_round(seed: int, r: int) -> list[Op]:
    rng = _rng("exceptional-decompose", seed, r)
    ops = []
    # narrow bands: one step in n changes the cost of the longer SODs by 20-40 %
    for l, lo, hi in ((4, 15, 16), (5, 10, 10), (6, 7, 7)):
        n = rng.randint(lo, hi)
        pts = ", ".join(["pt"] * l)
        ops.append(Op("points", (n, l), ("decompose", f"sym({n}, sod({pts}))")))
    for lo, hi in ((32, 34), (44, 46)):
        n = rng.randint(lo, hi)
        ops.append(Op("points", (n, 3), ("decompose", f"sym({n}, P2)")))
    for l, lo, hi in ((1, 15, 16), (2, 10, 10), (3, 7, 7)):
        n = rng.randint(lo, hi)
        ops.append(Op("fake-plane", (n, l), ("decompose", f"sym({n}, fakeP2({l}))")))
    for (lo, hi), (mlo, mhi) in (((9, 11), (7, 8)), ((15, 17), (3, 4))):
        n, m = rng.randint(lo, hi), rng.randint(mlo, mhi)
        ops.append(Op("product", (n, m), ("decompose", f"bullet(sym({n}, P2), sym({m}, P1))")))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# oracle-tables

# l -> band of --n that keeps the literal composition sum well under a second
# (20 to 100 ms each); the bands are narrow because the cost grows like C(n + l, l)
Q_BANDS = {3: (56, 60), 4: (31, 33), 5: (22, 23), 6: (17, 17)}


def tables_round(seed: int, r: int) -> list[Op]:
    rng = _rng("oracle-tables", seed, r)
    ops = []
    for l, (lo, hi) in Q_BANDS.items():
        n = rng.randint(lo, hi)
        ops.append(Op("table-q", (n, l), ("table", "q", "--l", str(l), "--n", str(n))))
    for top, odd in itertools.product(range(10, 25, 2), (False, True)):
        b = _betti(rng, odd)
        argv = ("table", "gottsche", "--betti", ",".join(map(str, b)), "--n", str(top))
        ops.append(Op("table-gottsche", (top, b), argv))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# frobenius-battery

FROBENIUS_MAX_N = 6
# (basis size aimed at, tuple length) of the two seeded orbit unions per pair
RANDOM_MODULES = ((12, 2), (4, 1))


def young_generators(n: int, i: int) -> list[tuple[int, ...]]:
    """A transposition and a cycle for each block of S_(n-i) x S_i, in one-line form."""
    gens = []
    for lo, hi in ((1, n - i), (n - i + 1, n)):
        if hi > lo:
            swap = list(range(1, n + 1))
            swap[lo - 1], swap[lo] = swap[lo], swap[lo - 1]
            cycle = list(range(1, n + 1))
            cycle[lo - 1:hi] = list(range(lo + 1, hi + 1)) + [lo]
            gens += [tuple(swap), tuple(cycle)]
    return gens


def _orbit(point: tuple[int, ...], gens: list[tuple[int, ...]]) -> set:
    orbit, frontier = {point}, [point]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple(g[k - 1] for k in x)
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def orbit_union(n: int, i: int, rng: random.Random, target: int, length: int) -> tuple:
    """A seeded union of orbits of S_(n-i) x S_i on ``length``-tuples over {1..n}.

    Orbits are added while the union stays within ``target`` points.  With
    the tuple length fixed, the basis size, and with it the cost of the
    operation, varies little from seed to seed.
    """
    gens = young_generators(n, i)
    points: set = set()
    for _ in range(32):
        union = points | _orbit(tuple(rng.randint(1, n) for _ in range(length)), gens)
        if len(union) <= target:
            points = union
        if len(points) == target:
            break
    return tuple(sorted(points or _orbit((n,) * length, gens)))


def frobenius_round(seed: int, r: int) -> list[Op]:
    rng = _rng("frobenius-battery", seed, r)
    ops = []
    for n in range(1, FROBENIUS_MAX_N + 1):
        for i in range(n + 1):
            for kind in ("trivial", "natural", "regular"):
                ops.append(Op("module", (n, i, kind, ())))
            for target, length in RANDOM_MODULES:
                points = orbit_union(n, i, rng, target, length)
                ops.append(Op("module", (n, i, "random", points)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# running one operation


def run_cli(symsod, op: Op) -> tuple[int, str]:
    """``symsod.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = symsod.cli.main([*op.argv, "--format", "json"])
    return code, out.getvalue()


def run_module(symsod, op: Op) -> tuple[Any, Any]:
    """Build the module over the Young subgroup and run the Frobenius check on it."""
    sg = symsod.symgroup
    n, i, kind, points = op.params
    pair = sg.YoungPair(n, i)
    subgroup = sg.young_subgroup(pair)
    if kind == "trivial":
        module = sg.trivial_module(subgroup)
    elif kind == "natural":
        module = sg.natural_module(subgroup, n)
    elif kind == "regular":
        module = sg.regular_module(subgroup)
    else:
        module = sg.PermModule(subgroup, list(points), _tuple_act)
    return module, sg.induction_invariance_check(pair, module)


def _tuple_act(g, point: tuple) -> tuple:
    return tuple(g(x) for x in point)


def digest(output: Any) -> str:
    """A digest of what an operation printed (CLI) or reported (Frobenius)."""
    if isinstance(output[1], str):
        text = output[1]
    else:
        report = output[1]
        text = repr((report.ok, report.pair.n, report.pair.i, report.induced_invariant_dim,
                     report.subgroup_invariant_dim, report.induced_basis_size))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# checks


def _check_invariants(op: Op, doc: dict) -> bool:
    inv = doc["invariants"]
    comps = doc["components"]
    total = sum(c["multiplicity"] for c in comps)
    if op.family in ("hilb-surface", "hilb-blowup"):
        n, b = op.params
        expected = (oracle.hilb_euler(b, n), oracle.hilb_total_betti(b, n))
        if (inv["euler"], inv["hh_total"]) != expected:
            return False
        if op.family == "hilb-surface":
            return len(comps) == 1 and total == 1 and inv["exceptional_length"] is None
        return [c["multiplicity"] for c in comps] == [oracle.p(i) for i in range(n + 1)]
    if op.family == "curve-power":
        n, g = op.params
        expected = (oracle.curve_power_euler(g, n), oracle.curve_power_hh(g, n))
        return (inv["euler"], inv["hh_total"]) == expected and len(comps) == total == oracle.p(n)
    if op.family == "ruled-power":  # sym(n, ruled(g)) is hilb(n, ruled(g)): Goettsche again
        n, g = op.params
        b = (1, 2 * g, 2, 2 * g, 1)
        expected = (oracle.hilb_euler(b, n), oracle.hilb_total_betti(b, n))
        return (inv["euler"], inv["hh_total"]) == expected and len(comps) == total == oracle.q(n, 2)
    if op.family in ("points", "product", "nested"):
        if op.family == "points":
            n, l = op.params
            expected = oracle.q(n, l)
        elif op.family == "product":
            n, m = op.params
            expected = oracle.q(n, 3) * oracle.q(m, 2)
        else:
            a, b, l = op.params
            expected = oracle.q(a, oracle.q(b, l))
        return (
            inv["euler"] == inv["hh_total"] == inv["exceptional_length"] == total == expected
            and all(c["factors"] == ["pt"] for c in comps)
        )
    if op.family == "fake-plane":
        n, l = op.params
        by_degree = [0] * (n + 1)
        degrees = {"pt": 0, "phantom": 1, **{f"sym^{i}(phantom)": i for i in range(2, n + 1)}}
        for c in comps:
            (factor,) = c["factors"]
            if factor not in degrees:
                return False
            degree = degrees[factor]
            by_degree[degree] += c["multiplicity"]
        expected = oracle.q(n, l + 2)
        return (
            inv["euler"] == inv["hh_total"] == by_degree[0] == expected
            and inv["exceptional_length"] is None
            and by_degree == [oracle.q(n - i, l + 2) for i in range(n + 1)]
        )
    raise ValueError(f"no check for family {op.family!r}")


def _poly_at(text: str, z: int) -> int:
    """Evaluate a rendered polynomial such as ``1 + z^2 + 3*z^4`` at z."""
    total = 0
    for term in text.split(" + "):
        coeff, star, var = term.partition("*")
        if not star:
            coeff, var = ("1", term) if term.startswith("z") else (term, "")
        power = int(var[2:]) if var.startswith("z^") else 1 if var else 0
        total += int(coeff) * z**power
    return total


def _check_table(op: Op, doc: dict) -> bool:
    if op.family == "table-q":
        n, l = op.params
        return doc["values"] == [oracle.q(k, l) for k in range(n + 1)]
    top, b = op.params
    rows = doc["rows"]
    if [row["n"] for row in rows] != list(range(top + 1)) or doc["betti"] != list(b):
        return False
    for row in rows:
        euler, betti = oracle.hilb_euler(b, row["n"]), oracle.hilb_total_betti(b, row["n"])
        if (row["euler"], row["total_betti"]) != (euler, betti):
            return False
        if (_poly_at(row["poincare"], -1), _poly_at(row["poincare"], 1)) != (euler, betti):
            return False
    return True


def _h_orbits(n: int, i: int, kind: str, basis: list) -> int:
    """Orbits of S_(n-i) x S_i on a module basis, counted without symsod."""
    if kind == "trivial":
        return len(basis)
    # every action here is coordinatewise on a tuple: k -> g(k) on (k,), g * b on b's images
    points = {(b,) if kind == "natural" else b.images if kind == "regular" else b for b in basis}
    gens = young_generators(n, i)
    orbits = 0
    while points:
        points -= _orbit(points.pop(), gens)
        orbits += 1
    return orbits


def _check_module(op: Op, module, report) -> bool:
    n, i, kind, _ = op.params
    orbits = _h_orbits(n, i, kind, module.basis)
    return (
        report.ok
        and report.induced_invariant_dim == report.subgroup_invariant_dim == orbits
        and report.induced_basis_size == math.comb(n, i) * len(module.basis)
    )


def check(op: Op, output: Any) -> bool:
    """True when the operation's output agrees with the oracle."""
    if op.family == "module":
        return _check_module(op, *output)
    code, text = output
    if code != 0:
        return False
    try:
        doc = json.loads(text)
        if op.argv[0] == "table":
            return _check_table(op, doc)
        return _check_invariants(op, doc)
    except (ValueError, KeyError, TypeError, IndexError):
        return False


def shows_known_fault(op: Op, output: Any) -> bool:
    """True when a known-faulty operation failed in the fault's own way: exit 0
    and JSON in which euler and hh_total are both unknown (null)."""
    if not op.known_fault:
        return False
    code, text = output
    try:
        inv = json.loads(text)["invariants"]
        return code == 0 and inv["euler"] is None and inv["hh_total"] is None
    except (ValueError, KeyError, TypeError):
        return False


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[int, int], list[Op]]
    run: Callable[[Any, Op], Any]
    min_rounds: int = 1  # more samples of every cell steady the quantiles of a long round


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hilbert-invariants", hilbert_round, run_cli),
        Workload("exceptional-decompose", exceptional_round, run_cli),
        Workload("frobenius-battery", frobenius_round, run_module, min_rounds=4),
        Workload("oracle-tables", tables_round, run_cli),
    )
}

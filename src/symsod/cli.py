"""Command-line front end.

Verbs::

    symsod decompose  "sym(2, sod(pt, pt, pt))"   # full expansion
    symsod invariants "hilb(3, blowup(P2))"       # euler / hh / length
    symsod table q --l 2 --n 5                    # q(n;l) row
    symsod table gottsche --betti 1,0,1,0,1 --n 4 # Hilbert-scheme Betti table
    symsod verify --suite frobenius --max-n 5     # named property suites

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success (and,
for verify, all checks passing); 2 parse or usage errors; 3 internal
invariant violations; 1 failed verification checks; 141 when the reader
closes stdout early (as in ``symsod decompose ... | head``), quietly; 74
when stdout cannot be written otherwise (as on a full disk).

JSON output (``--format json``) is byte-stable for identical inputs.  For
expression verbs the schema is::

    {"input": str, "canonical": str,
     "components": [{"factors": [str, ...], "multiplicity": int}, ...],
     "invariants": {"euler": int|null, "hh_total": int|null,
                    "exceptional_length": int|null}}

It is written piece by piece, byte for byte ``json.dumps(payload)``: strings
through the encoder ``json.dumps`` uses, the invariants by ``json.dumps``.  Each
atom of the expansion's table is rendered once; each distinct component joins
its atoms' names by position, once, into ``{"factors": [...], "multiplicity": ``
(or into the pieces of its text line around the multiplicity); an entry adds
``str(mult) + "}"``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _json_str  # the string form json.dumps writes
from typing import Optional, Sequence

from .expr import CatExpr, ComponentList, InternalInvariantError
from .grammar import ParseError, parse_expr, render_text, uses_hilb_sugar
from .invariants import InvariantReport, invariant_report
from .partitions import q_length
from .rewrite import expand
from .series import BettiVector, gottsche_series, poly_eval, poly_strs

_MCKAY_NOTE = (
    "note: hilb(n, S) is read as sym(n, S); identifying that with the "
    "Hilbert scheme of n points is the derived McKay correspondence "
    "(highly non-trivial, inherited here rather than computed)."
)


def _expression_json(text: str, expr: CatExpr, report: InvariantReport) -> str:
    """``json.dumps`` of the expression payload, written piece by piece."""
    prefix = f'{{"input": {_json_str(text)}, "canonical": {_json_str(render_text(expr))}'
    expansion = report.expansion
    names = [_json_str(render_text(atom)) for atom in expansion.atoms]
    heads = [
        '{"factors": [' + ", ".join(map(names.__getitem__, comp)) + '], "multiplicity": '
        for comp in expansion.components
    ]
    components = ", ".join([f"{heads[index]}{mult}}}" for index, mult in expansion.pairs])
    invariants = json.dumps(report.to_json_dict())
    return f'{prefix}, "components": [{components}], "invariants": {invariants}}}'


def _write_entries(expansion: ComponentList, tails: Sequence[str]) -> None:
    """One line per entry: each distinct component's text and tail (aligned with
    ``components``) are joined once into the two pieces around the multiplicity;
    each atom of the table is rendered once."""
    names = list(map(render_text, expansion.atoms))
    pieces = [
        (" * ".join(map(names.__getitem__, comp)) + "  x", tail + "\n")
        for comp, tail in zip(expansion.components, tails)
    ]
    lines = []
    for i, (index, mult) in enumerate(expansion.pairs, 1):
        text, tail = pieces[index]
        lines.append(f"  {i}. {text}{mult}{tail}")
    sys.stdout.write("".join(lines))


def _shown(value: Optional[int]) -> str:
    return "unknown" if value is None else str(value)


def _cmd_decompose(args: argparse.Namespace) -> int:
    expr = parse_expr(args.expression)
    if args.format == "json":
        print(_expression_json(args.expression, expr, invariant_report(expr)))
        return 0
    if uses_hilb_sugar(args.expression):
        print(_MCKAY_NOTE)
    print(f"canonical: {render_text(expr)}")
    entries = expand(expr)
    total = entries.total_multiplicity()
    print(f"components ({len(entries)} entries, total multiplicity {total}):")
    _write_entries(entries, [""] * len(entries.components))
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    expr = parse_expr(args.expression)
    report = invariant_report(expr)
    if args.format == "json":
        print(_expression_json(args.expression, expr, report))
        return 0
    if uses_hilb_sugar(args.expression):
        print(_MCKAY_NOTE)
    length = report.exceptional_length
    print(f"canonical: {render_text(expr)}")
    print(f"euler: {_shown(report.euler)}\nhh_total: {_shown(report.hh_total)}")
    print(f"exceptional_length: {'not purely exceptional' if length is None else length}")
    print("per-component:")
    tails = [f"  euler={_shown(e)} hh={_shown(h)}" for e, h in report.values]
    _write_entries(report.expansion, tails)
    return 0


_INT_RE = re.compile(r"-?[0-9]+")  # unlike int(): no "_", "+", spaces or non-ASCII digits


def _int(text: str) -> int:
    """An integer option's value, ASCII ``-?[0-9]+``."""
    if not _INT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_betti(text: str) -> BettiVector:
    parts = text.split(",")
    if len(parts) != 5 or not all(map(_INT_RE.fullmatch, parts)):
        raise ValueError(f"--betti needs five comma-separated integers, got {text!r}")
    return BettiVector(*map(int, parts))


def _cmd_table(args: argparse.Namespace) -> int:
    top = args.n
    if top < 0:
        print("error: --n must be >= 0", file=sys.stderr)
        return 2
    if args.kind == "q":
        if args.l is None:
            print("error: table q needs --l", file=sys.stderr)
            return 2
        try:
            # top first: its call caches every row below it, so b_1..b_top are built once
            values = [q_length(n, args.l) for n in range(top, -1, -1)][::-1]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.format == "json":
            print(json.dumps({"table": "q", "l": args.l, "max_n": top, "values": values}))
        else:
            print(f"q(n;{args.l}) for n = 0..{top}:")
            print(", ".join(str(v) for v in values))
        return 0
    # gottsche
    if args.betti is None:
        print("error: table gottsche needs --betti b0,b1,b2,b3,b4", file=sys.stderr)
        return 2
    try:
        betti = _parse_betti(args.betti)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    polys = gottsche_series(betti, top)
    rows = [
        {"n": n, "poincare": text, "total_betti": poly_eval(poly, 1), "euler": poly_eval(poly, -1)}
        for n, (poly, text) in enumerate(zip(polys, poly_strs(polys)))
    ]
    if args.format == "json":
        print(
            json.dumps(
                {"table": "gottsche", "betti": list(betti.as_tuple()), "max_n": top, "rows": rows}
            )
        )
    else:
        print(f"Hilbert-scheme Betti table for surface Betti {betti.as_tuple()}:")
        for row in rows:
            print(
                f"  n={row['n']}: total={row['total_betti']} euler={row['euler']}  "
                f"P(z) = {row['poincare']}"
            )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .suites import run_suites  # only verify runs the suites: other verbs never load them

    try:
        results = run_suites(args.suite, max_n=args.max_n, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    passed = sum(1 for r in results if r.ok)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "passed": passed,
                    "failed": len(results) - passed,
                    "checks": [
                        {"suite": r.suite, "name": r.name, "ok": r.ok, "detail": r.detail}
                        for r in results
                    ],
                }
            )
        )
    else:
        for r in results:
            tag = "PASS" if r.ok else "FAIL"
            print(f"[{tag}] {r.suite}:{r.name} -- {r.detail}")
        print(f"passed {passed}/{len(results)} checks")
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsod",
        description="Expand symmetric products of categories into semi-orthogonal components.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_dec = sub.add_parser("decompose", help="fully expand an expression")
    p_dec.add_argument("expression")

    p_inv = sub.add_parser("invariants", help="euler / hh / exceptional length")
    p_inv.add_argument("expression")

    p_tab = sub.add_parser("table", help="q(n;l) rows or Hilbert-scheme Betti tables")
    p_tab.add_argument("kind", choices=("q", "gottsche"))
    p_tab.add_argument("--l", type=_int, default=None, help="number of exceptional pieces")
    p_tab.add_argument("--betti", default=None, help="b0,b1,b2,b3,b4 for the gottsche table")
    p_tab.add_argument("--n", type=_int, default=10, help="largest weight to print")

    p_ver = sub.add_parser("verify", help="run the built-in property suites")
    p_ver.add_argument("--suite", default="all", help="a suite name, or all (default)")
    p_ver.add_argument(
        "--max-n", type=_int, default=None, help="cap the exhaustive ranges (at least 1)"
    )
    p_ver.add_argument("--seed", type=_int, default=0, help="seed for randomized checks")

    # every verb ends with --format, so it is the last option of each --help
    for verb, func in ((p_dec, _cmd_decompose), (p_inv, _cmd_invariants),
                       (p_tab, _cmd_table), (p_ver, _cmd_verify)):
        verb.add_argument("--format", choices=("text", "json"), default="text")
        verb.set_defaults(func=func)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: parsing leaves it unchanged."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a buffered write fails here, not at interpreter exit
        return code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # stdout failed: point it at /dev/null, so that flushing what is still
        # buffered at interpreter exit cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return 141  # the reader is gone: quietly
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return 74  # EX_IOERR


if __name__ == "__main__":
    sys.exit(main())

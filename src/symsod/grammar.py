"""The expression language: tokenizer, recursive-descent parser, renderer.

Grammar (whitespace-insensitive, keywords case-sensitive)::

    expr := "pt" | "phantom"
          | "curve(" nat ")"
          | "P1" | "P2" | "fakeP2(" nat ")" | "ruled(" nat ")"
          | "surface(" nat "," nat "," nat "," nat "," nat ")"
          | "blowup(" expr ")"
          | "sod(" expr ("," expr)+ ")"
          | "bullet(" expr ("," expr)+ ")"
          | "sym(" nat "," expr ")"
          | "hilb(" nat "," expr ")"
          | ident                          -- any other name: an opaque atom

``hilb(n, e)`` is sugar for ``sym(n, e)`` and insists that ``e`` is
surface-like (a surface literal, P2, fakeP2, ruled, or a blow-up); the
identification of the n-th symmetric power of a surface category with the
Hilbert scheme of n points is the derived McKay correspondence and is
inherited, not computed.

Rendering is the inverse: ``parse_expr(render_text(e)) == e`` for every
canonical expression built from the grammar.  Preset shapes are rendered
back under their preset names.  Atoms that only occur in expansion output
(symmetric powers of curves, opaque sym-power leaves) render in a display
form with ``^`` that the grammar does not accept.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .expr import (
    Bullet,
    CatExpr,
    Curve,
    Opaque,
    PHANTOM,
    POINT,
    Phantom,
    Point,
    Sod,
    Surface,
    Sym,
    SymCurve,
    SymPower,
    blowup,
    canonicalize,
    is_surface_like,
    make_preset,
)

KEYWORDS = {
    "pt", "curve", "phantom", "P1", "P2", "fakeP2", "ruled",
    "surface", "blowup", "sod", "bullet", "sym", "hilb",
}


class ParseError(ValueError):
    """Syntax or argument error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "nat" | "punct" | "end"
    text: str
    pos: int


_TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<nat>\d+)|(?P<punct>[(),]))")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_pos)
        if m.lastgroup == "ident":
            tokens.append(_Token("ident", m.group("ident"), m.start("ident")))
        elif m.lastgroup == "nat":
            tokens.append(_Token("nat", m.group("nat"), m.start("nat")))
        else:
            tokens.append(_Token("punct", m.group("punct"), m.start("punct")))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


# Deeper input is refused before the recursive parser and the engine's
# recursive passes can exhaust the interpreter's stack.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.nesting = 0  # constructor calls enclosing the expression being parsed

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_punct(self, ch: str) -> _Token:
        tok = self.advance()
        if tok.kind != "punct" or tok.text != ch:
            raise ParseError(f"expected {ch!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return tok

    def expect_nat(self) -> tuple[int, _Token]:
        tok = self.advance()
        if tok.kind != "nat":
            raise ParseError(
                f"expected a non-negative integer, found {tok.text or 'end of input'!r}", tok.pos
            )
        return int(tok.text), tok

    def parse_expr(self) -> CatExpr:
        if self.nesting > MAX_NESTING:
            raise ParseError(
                f"more than {MAX_NESTING} nested constructor calls", self.peek().pos
            )
        self.nesting += 1
        expr = self._parse_one()
        self.nesting -= 1
        return expr

    def _parse_one(self) -> CatExpr:
        tok = self.advance()
        if tok.kind != "ident":
            raise ParseError(f"expected an expression, found {tok.text or 'end of input'!r}", tok.pos)
        name = tok.text

        if name == "pt":
            return POINT
        if name == "phantom":
            return PHANTOM
        if name == "P1":
            return make_preset("P1")
        if name == "P2":
            return make_preset("P2")
        if name == "curve":
            (g,) = self._nat_args(1)
            return Curve(g)
        if name == "fakeP2":
            (l,) = self._nat_args(1)
            if l < 1:
                raise ParseError(f"fakeP2 needs l >= 1, got {l}", tok.pos)
            return make_preset("fakeP2", l)
        if name == "ruled":
            (g,) = self._nat_args(1)
            return make_preset("ruled", g)
        if name == "surface":
            args = self._nat_args(5)
            try:
                return make_preset("surface", *args)
            except ValueError as exc:
                raise ParseError(str(exc), tok.pos) from exc
        if name == "blowup":
            self.expect_punct("(")
            inner = self.parse_expr()
            self.expect_punct(")")
            inner = canonicalize(inner)
            try:
                # sod(opaque, pt) is surface-like for hilb, but it has no
                # surface atom to blow up: blowup raises ValueError for it
                return blowup(inner)
            except ValueError as exc:
                raise ParseError(
                    f"blowup needs a surface-like argument, got {render_text(inner)}", tok.pos
                ) from exc
        if name == "sod":
            parts = self._expr_args(minimum=2)
            return Sod(tuple(parts))
        if name == "bullet":
            factors = self._expr_args(minimum=2)
            return Bullet(tuple(factors))
        if name == "sym":
            n, inner = self._arity_and_expr()
            return Sym(n, inner)
        if name == "hilb":
            n, inner = self._arity_and_expr()
            inner = canonicalize(inner)
            if not is_surface_like(inner):
                raise ParseError(
                    f"hilb needs a surface-like argument, got {render_text(inner)}", tok.pos
                )
            return Sym(n, inner)
        if name in KEYWORDS:
            raise ParseError(f"misused keyword {name!r}", tok.pos)
        return Opaque(name)

    def _nat_args(self, count: int) -> list[int]:
        self.expect_punct("(")
        args = []
        for i in range(count):
            if i:
                self.expect_punct(",")
            value, _ = self.expect_nat()
            args.append(value)
        self.expect_punct(")")
        return args

    def _expr_args(self, minimum: int) -> list[CatExpr]:
        self.expect_punct("(")
        args = [self.parse_expr()]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.advance()
            args.append(self.parse_expr())
        closing = self.expect_punct(")")
        if len(args) < minimum:
            raise ParseError(f"expected at least {minimum} arguments, got {len(args)}", closing.pos)
        return args

    def _arity_and_expr(self) -> tuple[int, CatExpr]:
        self.expect_punct("(")
        n, _ = self.expect_nat()
        self.expect_punct(",")
        inner = self.parse_expr()
        self.expect_punct(")")
        return n, inner


def parse_expr(text: str) -> CatExpr:
    """Parse an expression and return it in canonical form."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing input {tail.text!r}", tail.pos)
    return canonicalize(expr)


def uses_hilb_sugar(text: str) -> bool:
    """Whether the source text invoked the Hilbert-scheme sugar anywhere."""
    return any(t.kind == "ident" and t.text == "hilb" for t in _tokenize(text))


# ---------------------------------------------------------------------------
# Rendering


def _preset_shape_name(e: Sod) -> Optional[str]:
    if e.orthogonal:
        return None  # the flag has no surface syntax; fall back to sod(...)
    parts = e.parts
    if all(isinstance(p, Point) for p in parts):
        if len(parts) == 2:
            return "P1"
        if len(parts) == 3:
            return "P2"
        return None
    if len(parts) == 2:
        head, tail = parts
        if isinstance(head, Curve) and isinstance(tail, Curve) and head.genus == tail.genus:
            return f"ruled({head.genus})"
        if isinstance(head, (Surface, Opaque)) and isinstance(tail, Point):
            return f"blowup({head.name})"
    if len(parts) >= 4 and isinstance(parts[-1], Phantom):
        body = parts[:-1]
        if all(isinstance(p, Point) for p in body):
            return f"fakeP2({len(body) - 2})"
    return None


def render_text(e: CatExpr) -> str:
    """Canonical text form; re-parses to the identical canonical expression.

    Expansion-only atoms (``sym^a(curve(g))`` and opaque sym powers) render
    in a caret display form outside the grammar.
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
        preset = _preset_shape_name(e)
        if preset is not None:
            return preset
        return "sod(" + ", ".join(render_text(p) for p in e.parts) + ")"
    if isinstance(e, Bullet):
        return "bullet(" + ", ".join(render_text(f) for f in e.factors) + ")"
    if isinstance(e, Sym):
        return f"sym({e.arity}, {render_text(e.inner)})"
    raise TypeError(f"not a CatExpr: {e!r}")

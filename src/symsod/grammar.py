"""The expression language: tokenizer and recursive-descent parser.

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
canonical expression built from the grammar.  ``render_text`` lives in
``symsod.expr``, next to the classes it renders, and is imported here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .expr import (
    Bullet,
    CatExpr,
    Curve,
    Opaque,
    PHANTOM,
    POINT,
    Sod,
    Sym,
    blowup,
    canonicalize,
    is_surface_like,
    make_preset,
    render_text,
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

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
    nat  := [0-9]+                         -- ASCII digits only

``hilb(n, e)`` is sugar for ``sym(n, e)`` and insists that ``e`` is
surface-like (a surface literal, P2, fakeP2, ruled, or a blow-up); the
identification of the n-th symmetric power of a surface category with the
Hilbert scheme of n points is the derived McKay correspondence and is
inherited, not computed.

The parser is generic: an identifier named in ``symsod.expr.CONSTRUCTORS``
has its arguments read by the kinds listed there and is built by
``make_preset``, whose ``ValueError`` becomes a ``ParseError`` at the
identifier; any other identifier is an opaque atom.

Rendering is the inverse: ``parse_expr(render_text(e)) == e`` for every
canonical expression built from the grammar.  ``render_text`` lives in
``symsod.expr``, next to the classes it renders, and is imported here.
"""

from __future__ import annotations

import re

from .expr import CONSTRUCTORS, EXPRS, NAT, CatExpr, Opaque, canonicalize, make_preset, render_text


class ParseError(ValueError):
    """Syntax or argument error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# A token is a plain (kind, text, pos) tuple; kind is "ident", "nat", "punct" or "end".
_Token = tuple[str, str, int]

_TOKEN_RE = re.compile(r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<nat>[0-9]+)|(?P<punct>[(),]))")


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
        kind = m.lastgroup  # the one named group that matched
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
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

    def expect_punct(self, ch: str) -> int:
        """Read the punctuation ``ch`` and return its position."""
        kind, text, pos = self.advance()
        if kind != "punct" or text != ch:
            raise ParseError(f"expected {ch!r}, found {text or 'end of input'!r}", pos)
        return pos

    def expect_nat(self) -> int:
        kind, text, pos = self.advance()
        if kind != "nat":
            raise ParseError(
                f"expected a non-negative integer, found {text or 'end of input'!r}", pos
            )
        return int(text)

    def parse_expr(self) -> CatExpr:
        if self.nesting > MAX_NESTING:
            raise ParseError(f"more than {MAX_NESTING} nested constructor calls", self.peek()[2])
        self.nesting += 1
        expr = self._parse_one()
        self.nesting -= 1
        return expr

    def _parse_one(self) -> CatExpr:
        kind, name, pos = self.advance()
        if kind != "ident":
            raise ParseError(f"expected an expression, found {name or 'end of input'!r}", pos)
        if name not in CONSTRUCTORS:
            return Opaque(name)
        kinds, _ = CONSTRUCTORS[name]
        args: list = []
        if kinds:
            self.expect_punct("(")
            for i, kind in enumerate(kinds):
                if i:
                    self.expect_punct(",")
                args.append(self.expect_nat() if kind == NAT else self.parse_expr())
            while kinds == (EXPRS,) and self.peek()[1] == ",":
                self.advance()
                args.append(self.parse_expr())
            closing = self.expect_punct(")")
            if kinds == (EXPRS,) and len(args) < 2:
                raise ParseError(f"expected at least 2 arguments, got {len(args)}", closing)
        try:
            return make_preset(name, *args)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from exc


def parse_expr(text: str) -> CatExpr:
    """Parse an expression and return it in canonical form."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    kind, tail, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {tail!r}", pos)
    return canonicalize(expr)


def uses_hilb_sugar(text: str) -> bool:
    """Whether the source text invoked the Hilbert-scheme sugar anywhere."""
    return any(kind == "ident" and name == "hilb" for kind, name, _ in _tokenize(text))

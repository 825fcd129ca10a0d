import pytest

from symsod.expr import (
    Curve,
    Opaque,
    PHANTOM,
    POINT,
    Sod,
    Surface,
    Sym,
)
from symsod.grammar import ParseError, parse_expr, render_text, uses_hilb_sugar
from symsod.series import BettiVector


def test_parse_atoms():
    assert parse_expr("pt") == POINT
    assert parse_expr("phantom") == PHANTOM
    assert parse_expr("curve(3)") == Curve(3)
    assert parse_expr("A") == Opaque("A")


def test_parse_constructors():
    assert parse_expr("sym(3, sod(pt, pt))") == Sym(3, Sod((POINT, POINT)))
    assert parse_expr("sym(2, curve(3))") == Sym(2, Curve(3))


def test_parse_is_whitespace_insensitive():
    assert parse_expr(" sym( 2 ,sod(pt,  pt) ) ") == parse_expr("sym(2, sod(pt, pt))")


def test_parse_canonicalizes():
    assert parse_expr("bullet(curve(2), pt)") == parse_expr("bullet(pt, curve(2))")
    assert parse_expr("sod(sod(A, B), C)") == Sod((Opaque("A"), Opaque("B"), Opaque("C")))


def test_parse_hilb_blowup_example():
    e = parse_expr("hilb(2, blowup(P2))")
    assert isinstance(e, Sym) and e.arity == 2
    head, tail = e.inner.parts
    assert isinstance(head, Surface)
    assert head.betti == BettiVector(1, 0, 1, 0, 1)
    assert tail == POINT


def test_parse_hilb_rejects_non_surface():
    with pytest.raises(ParseError):
        parse_expr("hilb(2, pt)")
    with pytest.raises(ParseError):
        parse_expr("hilb(2, P1)")
    with pytest.raises(ParseError):
        parse_expr("hilb(2, S)")


def test_parse_blowup_accepts_opaque_surface():
    e = parse_expr("blowup(S)")
    assert e == Sod((Opaque("S"), POINT))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_expr("sym(2, sod(pt,)")
    assert err.value.position == 14
    with pytest.raises(ParseError):
        parse_expr("curve(x)")
    with pytest.raises(ParseError):
        parse_expr("sym(2 sod(pt, pt))")
    with pytest.raises(ParseError):
        parse_expr("pt pt")
    with pytest.raises(ParseError):
        parse_expr("")
    with pytest.raises(ParseError):
        parse_expr("fakeP2(0)")
    with pytest.raises(ParseError):
        parse_expr("surface(1,2,3,4,5)")
    # the grammar's naturals are ASCII digits: other Unicode decimals are refused
    for text, position in (("sym(\uff13, pt)", 4), ("curve(\u0662)", 6)):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert err.value.position == position
    with pytest.raises(ParseError):
        parse_expr("sod(pt)")
    with pytest.raises(ParseError):
        parse_expr("sym(2, @)")


def test_misused_keyword_is_an_error():
    with pytest.raises(ParseError):
        parse_expr("sod(sym, pt)")


def test_render_atoms_and_presets():
    assert render_text(POINT) == "pt"
    assert render_text(parse_expr("P1")) == "P1"
    assert render_text(parse_expr("sod(pt, pt, pt)")) == "P2"
    assert render_text(parse_expr("ruled(2)")) == "ruled(2)"
    assert render_text(parse_expr("fakeP2(2)")) == "fakeP2(2)"
    assert render_text(parse_expr("blowup(P2)")) == "blowup(surface(1,0,1,0,1))"


def test_render_parse_identity_on_examples():
    for text in (
        "pt",
        "sym(2, sod(A, B))",
        "bullet(pt, curve(1), S)",
        "sod(surface(1,0,2,0,1), pt, phantom)",
        "sym(0, sym(1, pt))",
        "blowup(blowup(P2))",
        "blowup(blowup(blowup(P2)))",
    ):
        e = parse_expr(text)
        assert parse_expr(render_text(e)) == e
        assert str(e) == render_text(e)


def test_uses_hilb_sugar():
    assert uses_hilb_sugar("hilb(2, P2)")
    assert not uses_hilb_sugar("sym(2, P2)")

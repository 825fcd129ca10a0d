"""Golden outputs: CLI stdout and the ordered entries of orthogonal SODs.

The digests pin the exact bytes that ``decompose`` and ``invariants`` print,
in text and in JSON, for the ``exceptional-decompose`` benchmark cells and a
few mixed inputs.  An engine change that reorders entries, merges them at a
different point or renders them differently changes a digest.  Three more
pin what ``verify`` prints, a passing run and a failing one, and one pins
what the parser makes of seeded, mutated expression texts.
"""

import contextlib
import hashlib
import io
import random
import re

import pytest

from symsod import cli
from symsod.expr import Component, Curve, POINT, Sod, Sym, SymCurve
from symsod.grammar import ParseError, parse_expr, render_text
from symsod.rewrite import expand, expand_tail_first
from symsod.suites import gen_random_expr


def _cells() -> list[str]:
    """Every input of the exceptional-decompose grid, at every size of its bands."""
    texts = [f"sym({n}, sod(pt, pt, pt, pt))" for n in (15, 16)]
    texts += ["sym(10, sod(pt, pt, pt, pt, pt))", "sym(7, sod(pt, pt, pt, pt, pt, pt))"]
    texts += [f"sym({n}, P2)" for n in (32, 33, 34, 44, 45, 46)]
    texts += [f"sym({n}, fakeP2(1))" for n in (15, 16)]
    texts += ["sym(10, fakeP2(2))", "sym(7, fakeP2(3))"]
    texts += [f"bullet(sym({n}, P2), sym({m}, P1))" for n in (9, 10, 11) for m in (7, 8)]
    texts += [f"bullet(sym({n}, P2), sym({m}, P1))" for n in (15, 16, 17) for m in (3, 4)]
    return texts


CORPUS = _cells() + [
    "sym(4, sod(pt, curve(1), pt, curve(1)))",
    "bullet(sym(3, sod(pt, curve(2))), sym(2, P1))",
    "sym(5, sod(pt, phantom, pt))",
]

# SHA-256 of the four stdouts (decompose text, decompose json, invariants
# text, invariants json) of each input, joined by NUL bytes.
DIGESTS = {
    "sym(15, sod(pt, pt, pt, pt))": "db9690e35f5246196220ec43b82c34dd60c3906d654c9e5f82ed5cc1495d0f8d",
    "sym(16, sod(pt, pt, pt, pt))": "8a036185e2d9b2f4393010bc668e9d532d488efb795914bd80995743d8826648",
    "sym(10, sod(pt, pt, pt, pt, pt))": "d384499b14a329351c315cc3068092ed582ab967784a559cbd98ec07f35e4c94",
    "sym(7, sod(pt, pt, pt, pt, pt, pt))": "6d397ed46ec508acc10d3dc0f3192b0a9f2b8182d9e27829f60d4103cfa16cc9",
    "sym(32, P2)": "0ef02586cbe2507c0c6325b9fa5d2b9ceb1dc97d07665e462d066ca3f301024b",
    "sym(33, P2)": "941fab33c54c07b427cae3798b9f0c96bc9ece7ad9e564a9d4145000b373229d",
    "sym(34, P2)": "8f71c1d183ab210f4442ff5b6f805625a3b076807bc59ed82009746efd036214",
    "sym(44, P2)": "2bfda61748e6c5a13483a54270954497928e58f460dd13d5ad446afc9b9f7bed",
    "sym(45, P2)": "354b2f101aad56739f05fb701c72a84a8ad8c9d4c04f68f9cc3d3756a420ec67",
    "sym(46, P2)": "51b939036218888ed110aa92a806f5a1c583cf86b93b0b227486d650cc310700",
    "sym(15, fakeP2(1))": "9e5750718f23e2566c250890e31cf3889941eb7605567741bc9d831c580c1052",
    "sym(16, fakeP2(1))": "42566fc83bfe5c0e3c6c359f3000c7d01ab1605e2239b2015c1ddc794eff91a5",
    "sym(10, fakeP2(2))": "e65c2371e7b6fa3db80e3dba4ddba21f2e297927bb98c68df74d323065c9a750",
    "sym(7, fakeP2(3))": "fe9d8744b71576ee8febd6e7debb38f0b647fc90541f8a1ee39acaa9a475c0fb",
    "bullet(sym(9, P2), sym(7, P1))": "ddd6ba1c3241f00e4886ac7672a9bbb2e35e6088d809960bbd2462612bc0533e",
    "bullet(sym(9, P2), sym(8, P1))": "b530a7b36cba352f8879e09190f197183024425fa648955c1bcffaa0bdc081ec",
    "bullet(sym(10, P2), sym(7, P1))": "403a90a56d4bf764840883f70bb94e92c27c1285a85e8f5b402843d0330ce22f",
    "bullet(sym(10, P2), sym(8, P1))": "81c40e833ba1d84977542669b0719b35eabe850b4692cd7f15625df082edf087",
    "bullet(sym(11, P2), sym(7, P1))": "1f3f5377f6d2a28236781351c40cec091b1be776c1bab5241e2ce85efccab177",
    "bullet(sym(11, P2), sym(8, P1))": "18f53d0e19f1ce74ad48a653431ed361caad3c0daa6eefb22dd2a9e3b65e0c5b",
    "bullet(sym(15, P2), sym(3, P1))": "c7d82ca0b1334ac44308de274bb584058aa37c43f48cf60e47081cf46c21d603",
    "bullet(sym(15, P2), sym(4, P1))": "33bef6e016320c3c2e28aaa6f6e147bdcc74327dd6ebb6c9f650d440a2e80099",
    "bullet(sym(16, P2), sym(3, P1))": "2f7b768d3a9169d26cacefb77cfe6c6c5f2d778c6200a853a2d1031133d6cc3f",
    "bullet(sym(16, P2), sym(4, P1))": "388671d3f494df060fbd7315f608429ecae8f054a03aec740f8c79e9a0ec5e99",
    "bullet(sym(17, P2), sym(3, P1))": "d6d3dcfb181b7fce4b7f4f2fd8c1dbc1af22529d04ab5dc9af09f50d8c7c1c64",
    "bullet(sym(17, P2), sym(4, P1))": "51ffecf38d3c7dae25b9bcd27cad4c095788334e8ae3ca9c5a2b1a3f40af094a",
    "sym(4, sod(pt, curve(1), pt, curve(1)))": "fd4b494f26626d37d2f415526b75338fccfaddeae1d14180ce32b88c5df7bca8",
    "bullet(sym(3, sod(pt, curve(2))), sym(2, P1))": "8bdabc4f70ae587b1286ca36ea854498b4cc7b611860897b9b2facd9500c801a",
    "sym(5, sod(pt, phantom, pt))": "eb16e25db9c21d358b6e4e1456fb3e4ede6635c5d9d627a4383aa1d7ba40691d",
}


def stdout_digest(text: str) -> str:
    outputs = []
    for verb in ("decompose", "invariants"):
        for fmt in ("text", "json"):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert cli.main([verb, text, "--format", fmt]) == 0
            outputs.append(buffer.getvalue())
    return hashlib.sha256("\0".join(outputs).encode()).hexdigest()


@pytest.mark.parametrize("text", CORPUS)
def test_cli_stdout_digest(text):
    assert stdout_digest(text) == DIGESTS[text]


# SHA-256 of the ``verify`` stdout, with the exit code it comes with.
VERIFY_DIGESTS = {
    "--max-n 3": (0, "ef0ecad8285e85acbeac63e187d1cd78749f65e5dee961b58f496699f6f6d00c"),
    "--max-n 3 --format json": (
        0, "c6e20a1f59863ba42ded50afc38e1ed4a78db7661d4cb4d6f5749cac7afeb8b3"
    ),
    # block-law examines no case under a cap of 1 and fails
    "--suite rewrite --max-n 1": (
        1, "9669fcdb862229f0cc9a208dd534b6ca625ec772432a74831c4d80a942174997"
    ),
}


@pytest.mark.parametrize("args", VERIFY_DIGESTS)
def test_verify_stdout_digest(args):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["verify", *args.split()])
    assert (code, hashlib.sha256(buffer.getvalue().encode()).hexdigest()) == VERIFY_DIGESTS[args]


def test_orthogonal_sod_entries_in_order():
    # sod(pt, curve(1), pt) flagged completely orthogonal: equal components
    # merge into one entry, kept at the place of their first occurrence
    e = Sym(3, Sod((POINT, Curve(1), POINT), orthogonal=True))
    pinned = (
        (Component.of([]), 10),
        (Component.of([Curve(1)]), 8),
        (Component.of([SymCurve(1, 2)]), 2),
        (Component.of([SymCurve(1, 3)]), 1),
        (Component.of([Curve(1), Curve(1)]), 1),
    )
    assert expand(e).entries == pinned
    assert expand_tail_first(e).entries == pinned


# Tokens and whole calls inserted into rendered expressions; the calls reach
# the argument checks of hilb, blowup, fakeP2 and surface.
_INSERTS = [
    "pt", "phantom", "curve", "P1", "P2", "fakeP2", "ruled", "surface", "blowup",
    "sod", "bullet", "sym", "hilb", "S", "(", ")", ",", "0", "1", "5",
    "hilb(2, P2)", "hilb(2, P1)", "blowup(P1)", "blowup(S)", "fakeP2(0)", "surface(1,2,3,4,5)",
]
_TEXT_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\d+|[(),]|\s+")


def _mutated_texts(count: int) -> list[str]:
    """Rendered random expressions, each with 1-3 token insertions, deletions or cuts."""
    rng = random.Random(0)
    texts = []
    for _ in range(count):
        tokens = _TEXT_TOKEN_RE.findall(render_text(gen_random_expr(rng, 3)))
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(tokens) + 1)
            op = rng.randrange(3)
            if op == 0:
                tokens.insert(pos, rng.choice(_INSERTS))
            elif op == 1:
                del tokens[pos:pos + 1]
            else:
                del tokens[pos:]
        texts.append("".join(tokens))
    return texts


def test_parse_outcome_digest():
    # each text parses to an expression that round-trips, or raises ParseError
    # (any other exception fails the test); the digest pins the rendered
    # results and the error texts with their positions
    outcomes, parsed = [], 0
    for text in _mutated_texts(5000):
        try:
            e = parse_expr(text)
        except ParseError as exc:
            outcomes.append(str(exc))
            continue
        assert parse_expr(render_text(e)) == e, text
        outcomes.append(render_text(e))
        parsed += 1
    assert 0 < parsed < len(outcomes)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "362bae220ca2b01e87f9de87ed376d5e69ccd370e70ec7d0262bd6248586c3e7"

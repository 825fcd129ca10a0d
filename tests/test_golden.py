"""Golden outputs: CLI stdout, parse outcomes and expansions of random trees.

The digests pin the exact bytes that ``decompose`` and ``invariants`` print,
in text and in JSON, for the ``exceptional-decompose`` benchmark cells and a
few mixed inputs, what ``invariants`` prints for ``hilbert-invariants`` cells
(and ``decompose`` for its curve and ruled cells), and what ``table`` prints
for the ``oracle-tables`` cells.  One pins the order of two tied factors, two
same-name declared opaque atoms, under both bracketings.
An engine change that reorders entries, merges them at a different point or
renders them differently changes a digest.  Three more pin what ``verify``
prints, a passing run and a failing one, one pins what the parser makes
of seeded, mutated expression texts, one pins the ordered entries that
``expand`` makes of seeded random trees, and one pins every report of the
Frobenius battery with the basis of its module.
"""

import contextlib
import hashlib
import io
import random
import re

import pytest

from symsod import cli, symgroup
from symsod.expr import POINT, Bullet, Curve, Opaque, Sod, Sym
from symsod.grammar import ParseError, parse_expr, render_text
from symsod.invariants import invariant_report
from symsod.rewrite import expand, expand_tail_first
from symsod.suites import frobenius_battery, gen_random_expr


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


def stdout_digest(*argvs: list[str]) -> str:
    """SHA-256 of the stdouts of successful CLI runs, joined by NUL bytes."""
    outputs = []
    for argv in argvs:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert cli.main(argv) == 0
        outputs.append(buffer.getvalue())
    return hashlib.sha256("\0".join(outputs).encode()).hexdigest()


@pytest.mark.parametrize("text", CORPUS)
def test_cli_stdout_digest(text):
    argvs = [[verb, text, "--format", fmt] for verb in ("decompose", "invariants")
             for fmt in ("text", "json")]
    assert stdout_digest(*argvs) == DIGESTS[text]


# SHA-256 of the ``verify`` stdout, with the exit code it comes with.
VERIFY_DIGESTS = {
    "--max-n 3": (0, "150426bb61da08c0862ada46290d49496acb62b2735ec9302637209964c53777"),
    "--max-n 3 --format json": (
        0, "13a8975aaad9a68869a5183a10b5e01b30ec3938073f1f581bd8e41c7a45897c"
    ),
    # block-law examines no case under a cap of 1 and fails
    "--suite rewrite --max-n 1": (
        1, "b6c93b18a4e1f17e24259206cf1f24689741e3c6e4bb809546c11bd367b96fcd"
    ),
}


@pytest.mark.parametrize("args", VERIFY_DIGESTS)
def test_verify_stdout_digest(args):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["verify", *args.split()])
    assert (code, hashlib.sha256(buffer.getvalue().encode()).hexdigest()) == VERIFY_DIGESTS[args]


# SHA-256 of the two stdouts (text, json) of ``table <args>``, joined by a NUL
# byte, for every cell of the oracle-tables benchmark: q at each n of its l
# bands, and Goettsche at n = 10..24 in both Betti strata (b1 = 0, and b1 in
# 1..3; b2 in 1..60, drawn with random.Random(0)), the largest Betti vector of
# the strata, and the two smallest tables.
TABLE_DIGESTS = {
    "q --l 3 --n 56": "d5543566fe342c5d8e2bcbb6a79b11c7dc6bb71cf01cc726864a50805752df4a",
    "q --l 3 --n 57": "7a2e68459baaa183b7c6034fe20f1b32346f88696b71ffa64d70683b4373ced7",
    "q --l 3 --n 58": "454f56878ecc8e3f370ed1cdc3d84038a64596def6e7f40188b954b340420393",
    "q --l 3 --n 59": "310253ea5b68d7f3469fda025eec4bdfad69a20ae81cc23eec6469638caa5bab",
    "q --l 3 --n 60": "86236843947d2e83999204f942f67d81db732dc9ba89bbb42c9780c1f839eb4d",
    "q --l 4 --n 31": "b875569444b7cb2899590f4502812ca02ab41b49ee505fc4446252a395536fba",
    "q --l 4 --n 32": "6bd6d1a9e9ebd39bab2539eb5e397188d21d637f5fd440cb98ab1e0ad9e99d5a",
    "q --l 4 --n 33": "65cfc63a398aba23cb825a1e50a542e9058292691a146d9cbbd8b75dff990afa",
    "q --l 5 --n 22": "4ddf2718099f3490610fe525f61006041522b62770a70f424e932b0092432b01",
    "q --l 5 --n 23": "968d18e4655eaf845899dda7e1a92945329e7215e2758903de86987c7724d9ad",
    "q --l 6 --n 17": "a63741d0bb02095d444984abb5e82a93f64845d39da05a4743074cfb630605c8",
    "gottsche --betti 1,0,55,0,1 --n 10": "0afafb95dfcab8bb76d342d837f9591ac961d1c08ac830f8b6b818d0dc456622",
    "gottsche --betti 1,2,49,2,1 --n 10": "8f7852615a9759a986a39f862ff9ade9fad8d2b1c1752c5f5c5284f355c95dad",
    "gottsche --betti 1,0,57,0,1 --n 11": "fe10c6feb623e91745cafd72ef96b7d4b3b214b35e2c36093e6436b8b30da1d0",
    "gottsche --betti 1,2,3,2,1 --n 11": "80c00e0aa5b6a82f2eb88d159140f5fc9b3bea7da63c75b570d05758480d2cb2",
    "gottsche --betti 1,0,17,0,1 --n 12": "98a867e0460408ef55b1d3cf04efe340543f1d8f60c529881092f7f67be7cce1",
    "gottsche --betti 1,3,32,3,1 --n 12": "18e9d872edd0e67121a84a7c94b8d1ad08fee412e839c78f7e4312af0663e3aa",
    "gottsche --betti 1,0,26,0,1 --n 13": "f50cd0779363e55e7566fc79bf0774a9480d1792d04b0cd0d6fdfaaddcb1453e",
    "gottsche --betti 1,2,31,2,1 --n 13": "006a10151412b8846ccf7ee80402b19178430844b100862dfcebb2441a570bc8",
    "gottsche --betti 1,0,23,0,1 --n 14": "9425c6bebbc8f36cf40a84d6852a802d48c4a804753ed1f05e627e764e6456f6",
    "gottsche --betti 1,3,58,3,1 --n 14": "42dc9baef925fe714d28b934629c6b43767090b2df61fb2442ac9cb2e82d7dde",
    "gottsche --betti 1,0,59,0,1 --n 15": "2dcbbe6432284e3db1222c29d52409476e9112ce536ab6bf42193d053d8c123e",
    "gottsche --betti 1,1,33,1,1 --n 15": "5b73f413160a7ce82000ae08496b08a13a11aec0d9e076eebdc9d19328914bb8",
    "gottsche --betti 1,0,9,0,1 --n 16": "223969ec89fa5a30546f6295b5c12825b5eca925ba7e948acdc7d79ecca66411",
    "gottsche --betti 1,2,9,2,1 --n 16": "36ec1b5bfef816e57d79e4fd109efa470e389777301b710ab8d488f40ae1f3d6",
    "gottsche --betti 1,0,49,0,1 --n 17": "49b33f334ba5e8cc3a74d97e55e78ddce8e39d1c4c8ebdda8ed7d21261fe344d",
    "gottsche --betti 1,1,40,1,1 --n 17": "3c8ab9efefe184fc1816c8cf58830a13e7132012cca8d537a3dd9dbbff6539d5",
    "gottsche --betti 1,0,52,0,1 --n 18": "0ed4166cb93f0a535574581e939ed40c19a2c19392bb78cb0c3e09ea35bcbfe0",
    "gottsche --betti 1,2,59,2,1 --n 18": "48281812e63741d59bc5004a1c68389cf15f151dafe9371f2167361cf735641f",
    "gottsche --betti 1,0,35,0,1 --n 19": "0490031523efbe5e721addc4a3e0127c9987a41ba9a5ec3153e5274d2a9743d0",
    "gottsche --betti 1,3,52,3,1 --n 19": "4ab9f318ae2a8246745c8839cbf9b9ea29b563d853b9412be1a3f99b643a7696",
    "gottsche --betti 1,0,39,0,1 --n 20": "144963da4598906cbd62a2edd81976bbcd7314678bc48e997fcba760d37614af",
    "gottsche --betti 1,1,20,1,1 --n 20": "0988780584a039038c48a582451fecb9e9523c2c54501284c1373b07f8abc0e2",
    "gottsche --betti 1,0,7,0,1 --n 21": "b54faef569e616417e4737cc7eb43ef7747f9ca8d2276cc532666e79c94afc3a",
    "gottsche --betti 1,3,5,3,1 --n 21": "f1d0e9384079213efe2b06799b3c586549d3a94caa507e2195680f10b964a559",
    "gottsche --betti 1,0,58,0,1 --n 22": "7f261b2909a968e2e1cc376506fe2bc9125e57be67672b9aaba6c7ae1d445950",
    "gottsche --betti 1,3,22,3,1 --n 22": "32caaf8d0cf713217e029fccb0ef91ec02df253262cd84395b31df7de9323f16",
    "gottsche --betti 1,0,31,0,1 --n 23": "b8842785f48c7c0c57268b2d276c25bdb97512406a2cbaff94d7060dd882a1fc",
    "gottsche --betti 1,3,7,3,1 --n 23": "f36b2378725fc08673f6d1f6ec9bdb7401359985dcee937b7dbe878fb0b3127e",
    "gottsche --betti 1,0,23,0,1 --n 24": "1d05b65ebadb0ab504300058f8f2994f700e6950f3d9641d0c6d2e7c91e63f7e",
    "gottsche --betti 1,2,21,2,1 --n 24": "6128f1e9ca2481a29d7aa6c9c1056e84861915b62030192bd12e293a5c31b94d",
    "gottsche --betti 1,3,60,3,1 --n 24": "6b977a9b30b435f62e38b5332e916f900c35f97710cfd46f6a39833f56bdaf53",
    "gottsche --betti 1,2,5,2,1 --n 0": "e3984018f953b28960844d360b59dbde168a2a0b19a63fd5e9eb496925239b75",
    "gottsche --betti 1,2,5,2,1 --n 1": "d6471d16bdcb8f46b948002ec65b9a34521ea4eb39453a5390f4001761bfdeef",
}


@pytest.mark.parametrize("args", TABLE_DIGESTS)
def test_table_stdout_digest(args):
    argvs = [["table", *args.split(), "--format", fmt] for fmt in ("text", "json")]
    assert stdout_digest(*argvs) == TABLE_DIGESTS[args]


def test_high_order_gottsche_table_digest():
    # the largest Betti vector of the oracle-tables strata at n = 60, far past
    # its cells' n <= 24; JSON only, its stdout's SHA-256
    argv = ["table", "gottsche", "--betti", "1,3,60,3,1", "--n", "60", "--format", "json"]
    assert stdout_digest(argv) == "41f72a91f0da7ccb4f84c99d82449a38c3e327e4a619dbee6f7a4da8aca27687"


# SHA-256 of the two stdouts (text, json) of ``invariants <text>``, joined by
# a NUL byte, for cells of the hilbert-invariants benchmark: Hilbert schemes
# of surface literals in both Betti strata, of blow-ups nested one to three
# times, curve and ruled-surface powers, and the two nested powers.
HILBERT_DIGESTS = {
    "hilb(6, surface(1,0,23,0,1))": "167824ac75e692776ee56784d939bc12d389618c1a166b0a11ce1f243c9c7668",
    "hilb(15, surface(1,0,59,0,1))": "f0f0e0a29f5ac13424ad24d133be499bc581aa51efcf777e3a8c9f1f3445383e",
    "hilb(9, surface(1,2,31,2,1))": "09d9991b75a434cecd6b936d3ef03d28b46c539f807ed19ad308c626b11d3efb",
    "hilb(12, surface(1,3,58,3,1))": "a5908079a43e41c74cfcaf994ebaed6829109b7f7e862e91f18208a8dd5e4e04",
    "hilb(5, blowup(surface(1,0,17,0,1)))": "60a7d9ca5d4951beea44f167dd3823ea39aa33a988f472082a0aadbdd0c6ade4",
    "hilb(8, blowup(blowup(surface(1,2,9,2,1))))": "f8418aedc12a9565e200242695c9888653588a9799be02e742e1fb519418ad9f",
    "hilb(11, blowup(blowup(blowup(surface(1,0,7,0,1)))))": "8ac77d0bb8863ce053fd2acf97ce2850d3a5b9c2166f4f4ad47ae86426abdbd2",
    "hilb(11, blowup(blowup(blowup(surface(1,3,5,3,1)))))": "2f8307d93a737b0e2e017be12aaa7f021f6a4a33d698dfa8da17b51df857cdbb",
    "sym(6, curve(0))": "ac9f9b3e315a84e1dbdb91ba04cf29ece0e34251e49179bd9d4d463ea7b57f14",
    "sym(9, curve(2))": "fc2417a4109e69390219615af8c3b050f846ae8b8a2544a1fff9a8bb67afd3dd",
    "sym(15, curve(4))": "3bdf44d2bc00500d92046d46b8992a3425c0d414ab5d4d4c316b4d9ac983ebac",
    "sym(4, ruled(0))": "9d3d419b3e19a67a19dc80c719645d9cdf6b33038d18e812d52ce429e0863785",
    "sym(6, ruled(1))": "5d048d8bd120a80347e203c9f5831a2b459639c441622d63f61782a213e3a3bf",
    "sym(8, ruled(3))": "c0ed6e26bd57127bfcfed69bf2c56a54dd457726ce733c9a2fe951f015d627e1",
    "sym(2, sym(2, pt))": "f40835eeb8169935902fa357020f96d90d3380cc5034de7af5217da00f88dcc3",
    "sym(3, sym(2, P1))": "c6e10b3086e1422cf199c02b2c0eeaf2a6685a4551ad2243ac2461ba7cd5c1ac",
}


@pytest.mark.parametrize("text", HILBERT_DIGESTS)
def test_invariants_stdout_digest(text):
    argvs = [["invariants", text, "--format", fmt] for fmt in ("text", "json")]
    assert stdout_digest(*argvs) == HILBERT_DIGESTS[text]


# SHA-256 of the two stdouts (text, json) of ``decompose <text>``, joined by a
# NUL byte, for the curve and ruled-surface cells of HILBERT_DIGESTS: their
# components hold several atoms, so these pin the order of the factors.
HILBERT_DECOMPOSE_DIGESTS = {
    "sym(6, curve(0))": "b3d92e8c36ce6e02cac30eefc05fb6c581e1936d9f1e89bf7c6929849c9504a6",
    "sym(9, curve(2))": "c35cf69cf9fb9930ad5e94199535f6a9681847ca4824567a51bc87601b4c9a56",
    "sym(15, curve(4))": "e829b8fd307af50f164574ce9d2a57520374c46590470a1d6235eaec8d907204",
    "sym(4, ruled(0))": "f0da083a4dcea80487125136cec1bba3c226fa95ab59064e78bcd986fd0c1391",
    "sym(6, ruled(1))": "397d57b1ce38c6498dabaeb48deb13ed1a528537c702d3d1a5cfeff7cb65864a",
    "sym(8, ruled(3))": "ac3952959c38617f31e3b548d75923cdc9cc4c23e58cd2a3bac8b0520083acf0",
}


@pytest.mark.parametrize("text", HILBERT_DECOMPOSE_DIGESTS)
def test_decompose_curve_and_ruled_digest(text):
    argvs = [["decompose", text, "--format", fmt] for fmt in ("text", "json")]
    assert stdout_digest(*argvs) == HILBERT_DECOMPOSE_DIGESTS[text]


def test_same_name_opaque_factor_order_digest():
    # two declared opaque atoms named X tie in the sort order, so a component
    # holding both keeps them in the order the walk first met them; that order
    # differs between the bracketings, and the digest pins it for both, with
    # the values the report gives each distinct component
    x0, x1 = Opaque("X", 0, 2), Opaque("X", 1, 3)
    trees = [
        Sym(2, Sod((x0, x1))),
        Bullet((x1, x0)),
        Sym(3, Sod((x1, Curve(1), x0))),
        Bullet((Sod((x0, POINT)), Sym(2, Sod((POINT, x1))))),
    ]
    lines, orders = [], set()
    for tree in trees:
        for engine in (expand, expand_tail_first):
            entries = [(comp.factors, mult) for comp, mult in engine(tree)]
            orders.update(f.index(x0) < f.index(x1) for f, _ in entries if x0 in f and x1 in f)
            lines.append(f"{tree!r}\t{engine.__name__}\t{entries!r}")
        lines.append(f"{tree!r}\t{invariant_report(tree).values!r}")
    assert orders == {True, False}  # both orders of the tied atoms occur
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "1467c0f09a0150d0ad8fb77bba490bb291fdb8c1c42c68c210263666d83759e9"


def test_high_order_hilbert_invariants_digest():
    # the largest Betti vector of the hilbert-invariants strata at n = 200, far
    # past its cells' n <= 15; JSON only, its stdout's SHA-256
    argv = ["invariants", "hilb(200, surface(1,3,60,3,1))", "--format", "json"]
    assert stdout_digest(argv) == "87658c3c438742eb6059e4552cfb8c5be5ec2f18296ecae62237161933a3c395"


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


def test_expansion_outcome_digest():
    # each random tree's text and its ordered entries; pins the rule order,
    # the entry order and how opaque sym-power bases render (a nested sym's
    # base drops the bullet's point units, so sym(3, sym(3, bullet(pt, pt)))
    # gives sym^3(sym(3, pt)) and sym(3, sym(2, bullet(pt, S))) sym^3(sym(2, S)))
    rng = random.Random(0)
    lines = []
    for _ in range(500):
        e = gen_random_expr(rng, 3)
        lines.append(f"{render_text(e)}\t{expand(e)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "87fa2e9be7034927e1a6ddd64f48c5a56b9bd60e67eaeed869018c68f1c9fb4c"


def test_frobenius_battery_digest(monkeypatch):
    # every InductionReport of the battery (seed 0, n <= 6) with its module's
    # basis; pins the answers of the S_n layer, not only their agreement
    lines = []
    check = symgroup.induction_invariance_check

    def recorded(pair, module):
        report = check(pair, module)
        lines.append(f"{report!r}\t{module.basis!r}")
        return report

    monkeypatch.setattr(symgroup, "induction_invariance_check", recorded)
    assert frobenius_battery(None, 0).ok
    assert len(lines) == 621
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "5f5e307ed82a9f863241c958e2853f1f1b8f9f4af96ea00819c07185bc085ceb"

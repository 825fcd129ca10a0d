import importlib.util
import json
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

import symsod
from symsod import cli, invariants, partitions, series, suites
from symsod.expr import Bullet, Component, Curve, Opaque, Sod, Sym, SymCurve
from symsod.grammar import parse_expr, render_text
from symsod.invariants import invariant_report
from symsod.rewrite import expand
from symsod.series import euler_product_power
from symsod.suites import frobenius_battery, gen_random_expr


def run_cli(*argv):
    return cli.main(list(argv))


def test_decompose_text(capsys):
    assert run_cli("decompose", "sym(2, sod(pt,pt,pt))") == 0
    out = capsys.readouterr().out
    assert "canonical: sym(2, P2)" in out
    assert "total multiplicity 9" in out


def test_decompose_json_schema(capsys):
    assert run_cli("decompose", "sym(2, sod(A,B))", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["input", "canonical", "components", "invariants"]
    assert payload["components"] == [
        {"factors": ["sym^2(A)"], "multiplicity": 1},
        {"factors": ["A", "B"], "multiplicity": 1},
        {"factors": ["sym^2(B)"], "multiplicity": 1},
    ]
    assert payload["invariants"] == {
        "euler": None,
        "hh_total": None,
        "exceptional_length": None,
    }


def test_decompose_json_byte_stable(capsys):
    run_cli("decompose", "hilb(3, blowup(P2))", "--format", "json")
    first = capsys.readouterr().out
    run_cli("decompose", "hilb(3, blowup(P2))", "--format", "json")
    second = capsys.readouterr().out
    assert first == second


def _payload_json(text, tree):
    """``json.dumps`` of the expression payload, built as plain dicts and lists."""
    report = invariant_report(tree)
    components = [
        {"factors": [render_text(atom) for atom in comp.factors], "multiplicity": mult}
        for comp, mult in expand(tree)
    ]
    invariants = {
        "euler": report.euler,
        "hh_total": report.hh_total,
        "exceptional_length": report.exceptional_length,
    }
    payload = {
        "input": text, "canonical": render_text(tree),
        "components": components, "invariants": invariants,
    }
    return json.dumps(payload) + "\n"


def test_expression_json_is_json_dumps_of_the_payload(monkeypatch, capsys):
    # the expression verbs write their JSON piece by piece, each distinct
    # component rendered once; the bytes must be those of json.dumps(payload)
    rng = random.Random(1)
    texts = [render_text(gen_random_expr(rng, 3)) for _ in range(300)]
    texts += ["A", "sym(2, sod(A, B))", "bullet(sym(2, sod(curve(1), X1)), sym(3, P1))"]
    texts += ["pt", "sym(5, P2)", "sym(4, sod(pt, pt, pt, pt))", "bullet(sym(3, P2), sym(2, P1))"]
    texts += ["sym(2, sym(2, pt))", "sym(3, sym(2, P1))", "sym(2,\tsod(A,\n B))"]  # escapes
    cases = [(text, parse_expr(text)) for text in texts]
    # declared opaque atoms have no text form: the parser is bypassed for them
    declared = {
        "declared-x": Sym(2, Sod((Curve(1), Opaque("X", 0, 2), Curve(1)))),
        "declared-d": Bullet((Opaque("D", 1, 3), Sod((Curve(2), Opaque("E", -1, 1))))),
    }
    cases += list(declared.items())
    parse = cli.parse_expr
    monkeypatch.setattr(cli, "parse_expr", lambda text: declared.get(text) or parse(text))
    nulls = 0
    for text, tree in cases:
        expected = _payload_json(text, tree)
        nulls += '"euler": null' in expected
        for verb in ("decompose", "invariants"):
            assert run_cli(verb, text, "--format", "json") == 0
            assert capsys.readouterr().out == expected, (verb, text)
    assert 0 < nulls < len(cases)
    assert '"euler": -3, "hh_total": 21' in _payload_json("declared-d", declared["declared-d"])


def test_hilb_note_printed_in_text_mode(capsys):
    run_cli("decompose", "hilb(2, blowup(P2))")
    out = capsys.readouterr().out
    assert "McKay" in out
    run_cli("decompose", "sym(2, blowup(P2))")
    assert "McKay" not in capsys.readouterr().out


def test_invariants_text(capsys):
    assert run_cli("invariants", "sym(2, P2)") == 0
    out = capsys.readouterr().out
    assert "euler: 9" in out
    assert "hh_total: 9" in out
    assert "exceptional_length: 9" in out


def test_invariants_not_purely_exceptional(capsys):
    run_cli("invariants", "sym(2, curve(1))")
    out = capsys.readouterr().out
    assert "exceptional_length: not purely exceptional" in out


def test_invariants_text_renders_components_like_decompose(capsys):
    text = "sym(2, bullet(sym(2, P2), curve(1)))"
    factor = "sym^2(bullet(curve(1), sym(2, P2)))"
    assert run_cli("invariants", text) == 0
    assert f"  1. {factor}  x1  euler=unknown hh=unknown" in capsys.readouterr().out.splitlines()
    assert run_cli("decompose", text) == 0
    assert f"  1. {factor}  x1" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "text",
    ["sym(2, sod(curve(1), pt, curve(1)))", "sym(10, fakeP2(2))", "sym(9, curve(2))",
     "sym(6, ruled(1))"],
)
def test_expression_verbs_hash_no_component(monkeypatch, capsys, text):
    # every input repeats a component or an atom; past the walk the expression
    # verbs reach each entry's component by its index and each factor by its
    # position in the atom table, and never hash a Component or a curve atom
    formats = ([], ["--format", "json"])
    runs = [[verb, text, *fmt] for verb in ("decompose", "invariants") for fmt in formats]
    expected = []
    for argv in runs:
        assert cli.main(argv) == 0
        expected.append(capsys.readouterr().out)

    def no_hash(self):
        raise AssertionError(f"{type(self).__name__} hashed: {self}")

    expansion = expand(parse_expr(text))  # the walk itself hashes its Sym nodes
    monkeypatch.setattr(cli, "expand", lambda e: expansion)
    monkeypatch.setattr(invariants, "expand", lambda e: expansion)
    for cls in (Component, Curve, SymCurve):
        monkeypatch.setattr(cls, "__hash__", no_hash)
    for argv, out in zip(runs, expected):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out


def test_expression_json_renders_each_atom_once(monkeypatch, capsys):
    # one render_text call for the canonical text and one per atom of the table
    calls = []

    def counted(e):
        calls.append(e)
        return render_text(e)

    monkeypatch.setattr(cli, "render_text", counted)
    for text in ("sym(15, curve(3))", "sym(8, ruled(2))", "sym(4, sod(pt, curve(1), X, pt))",
                 "hilb(6, blowup(P2))", "sym(10, fakeP2(2))", "A"):
        atoms = expand(parse_expr(text)).atoms
        for verb in ("decompose", "invariants"):
            calls.clear()
            assert run_cli(verb, text, "--format", "json") == 0
            assert len(calls) == len(atoms) + 1, (verb, text)
            assert calls[1:] == list(atoms)


def test_invariants_unknown(capsys):
    run_cli("invariants", "A")
    out = capsys.readouterr().out
    assert "euler: unknown" in out


def test_parse_error_exit_2(capsys):
    assert run_cli("decompose", "sym(2,") == 2
    err = capsys.readouterr().err
    assert "parse error" in err


def test_parse_error_on_nesting_beyond_the_cap(capsys):
    deep = "sym(2, " * 1200 + "pt" + ")" * 1200
    assert run_cli("invariants", deep) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parse error: more than 100 nested constructor calls" in captured.err


@pytest.mark.parametrize(
    "expression", ["blowup(blowup(A))", "hilb(2, blowup(blowup(A)))", "blowup(sod(A, pt))"]
)
def test_blowup_of_an_opaque_blowup_is_a_parse_error(capsys, expression):
    # sod(A, pt) is surface-like for hilb but has no surface atom to blow up
    assert run_cli("decompose", expression) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parse error: blowup needs a surface-like argument" in captured.err


@pytest.mark.parametrize(
    "expression",
    ["sym(2, " * 100 + "pt" + ")" * 100, "bullet(sod(A, " * 50 + "pt" + "), B)" * 50],
    ids=["sym", "bullet-sod"],
)
def test_invariants_at_the_nesting_cap(capsys, expression):
    assert run_cli("invariants", expression) == 0
    assert "euler:" in capsys.readouterr().out


def test_internal_invariant_exit_3(monkeypatch, capsys):
    from symsod.expr import InternalInvariantError

    def boom(_):
        raise InternalInvariantError("forced")

    monkeypatch.setattr(cli, "invariant_report", boom)
    assert run_cli("invariants", "pt") == 3
    assert "internal invariant violation" in capsys.readouterr().err


def test_table_q_row(capsys):
    assert run_cli("table", "q", "--l", "2", "--n", "5") == 0
    out = capsys.readouterr().out
    assert "1, 2, 5, 10, 20, 36" in out


def test_table_q_with_a_very_long_collection(capsys):
    # l only scales the divisor-sum recurrence: nothing walks the l parts
    assert run_cli("table", "q", "--l", "2000", "--n", "1") == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "1, 2000"
    assert captured.err == ""


def test_table_q_with_twelve_objects_to_n_40(capsys):
    # the literal composition sum ran past a 10 s timeout here
    expected = euler_product_power(12, 40)
    assert expected[40] == 88421747636456646
    assert run_cli("table", "q", "--l", "12", "--n", "40") == 0
    assert capsys.readouterr().out == (
        "q(n;12) for n = 0..40:\n" + ", ".join(map(str, expected)) + "\n"
    )
    assert run_cli("table", "q", "--l", "12", "--n", "40", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["values"] == expected


def test_table_q_calls_q_length_once_per_n(monkeypatch, capsys):
    # the benchmark times table q at this call site (bench/spans.py's SPAN_SITES);
    # top comes first, so its call fills the cache and every later one is a hit
    assert cli.q_length is partitions.q_length
    calls = []

    def spy(n, l):
        calls.append((n, l))
        return partitions.q_length(n, l)

    monkeypatch.setattr(cli, "q_length", spy)
    assert run_cli("table", "q", "--l", "3", "--n", "5") == 0
    assert "1, 3, 9, 22, 51, 108" in capsys.readouterr().out
    assert calls == [(n, 3) for n in range(5, -1, -1)]


def test_table_q_builds_the_divisor_sums_once(monkeypatch, capsys):
    # one recurrence run to top, reading psi once per r; each row below it is
    # then a cache hit
    monkeypatch.setattr(partitions, "_Q_CACHE", {})
    built, read = [], []
    law_rows = partitions._law_rows

    def counted(rows, psi, top, label):
        built.append(top)
        return law_rows(rows, lambda r: read.append(r) or psi(r), top, label)

    monkeypatch.setattr(partitions, "_law_rows", counted)
    assert run_cli("table", "q", "--l", "3", "--n", "40", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["values"] == euler_product_power(3, 40)
    assert built == [40]
    assert read == list(range(1, 41))


def _psi_2_off_by_one(module, monkeypatch):
    """Patch ``module._law_rows`` so that psi(2) reads one more than it is."""
    law_rows = module._law_rows

    def corrupted(rows, psi, top, label):
        return law_rows(rows, lambda r: psi(r) + (r == 2), top, label)

    monkeypatch.setattr(module, "_law_rows", corrupted)


def test_table_q_exits_3_when_the_recurrence_leaves_a_remainder(monkeypatch, capsys):
    # psi(2) reads 2: b_2 = 2 psi(1) + psi(2) = 4, and 2 q(2; 1) = 1 + 4 is odd
    monkeypatch.setattr(partitions, "_Q_CACHE", {})
    _psi_2_off_by_one(partitions, monkeypatch)
    assert run_cli("table", "q", "--l", "1", "--n", "2") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal invariant violation: q(2;1)" in captured.err


def test_invariants_exit_3_when_the_law_leaves_a_remainder(monkeypatch, capsys):
    # psi(2) reads 4; the preset P2 is sod(pt, pt, pt) and never reaches the
    # law, so the surface literal with P2's Betti numbers stands in for it
    _psi_2_off_by_one(series, monkeypatch)
    symsod.invariants._hilb_poincare_value.cache_clear()
    assert run_cli("invariants", "hilb(3, surface(1,0,1,0,1))") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal invariant violation: "
        "euler of sym^2 of (h+, h-) = (3, 0): the divisor sum leaves 1 mod 2\n"
    )


def test_table_q_requires_l(capsys):
    assert run_cli("table", "q") == 2


def test_main_builds_one_parser_and_keeps_its_usage_errors(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    assert run_cli("decompose", "sym(2, P1)") == 0
    assert run_cli("invariants", "P2") == 0
    assert len(built) == 1
    capsys.readouterr()
    # after a successful call, a usage error gives a fresh process's code and stderr
    for argv in (["table", "q"], ["frobnicate", "pt"]):
        try:
            code = run_cli(*argv)
        except SystemExit as exc:  # argparse exits on its own usage errors
            code = exc.code
        fresh = subprocess.run(
            [sys.executable, "-m", "symsod.cli", *argv], capture_output=True, text=True
        )
        assert (code, capsys.readouterr().err) == (fresh.returncode, fresh.stderr)
        assert fresh.returncode == 2 and fresh.stderr
    assert len(built) == 1
    cli._parser.cache_clear()


def test_table_gottsche(capsys):
    assert run_cli("table", "gottsche", "--betti", "1,0,1,0,1", "--n", "3") == 0
    out = capsys.readouterr().out
    assert "n=2: total=9" in out
    assert "n=3: total=22" in out


def test_table_gottsche_json(capsys):
    run_cli("table", "gottsche", "--betti", "1,0,1,0,1", "--n", "2", "--format", "json")
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][2]["total_betti"] == 9
    assert payload["rows"][2]["euler"] == 9


def test_table_gottsche_bad_betti(capsys):
    assert run_cli("table", "gottsche", "--betti", "1,2,3") == 2


def test_table_gottsche_non_integer_betti(capsys):
    assert run_cli("table", "gottsche", "--betti", "1,a,1,0,1") == 2
    err = capsys.readouterr().err
    assert err == "error: --betti needs five comma-separated integers, got '1,a,1,0,1'\n"


@pytest.mark.parametrize(
    "argv, option",
    [
        pytest.param(
            ("table", "gottsche", "--betti", "1_0,0,1,0,1_0", "--n", "1"), "--betti",
            id="betti-underscore",
        ),
        pytest.param(
            ("table", "gottsche", "--betti", "\u0967,0,1,0,\u0967", "--n", "1"), "--betti",
            id="betti-devanagari-digit",
        ),
        pytest.param(("table", "q", "--l", "\u0662", "--n", "3"), "--l", id="l-arabic-indic-digit"),
        pytest.param(("table", "q", "--l", "2", "--n", "1_0"), "--n", id="n-underscore"),
        pytest.param(
            ("verify", "--suite", "rewrite", "--max-n", "\uff13"), "--max-n", id="max-n-fullwidth-digit"
        ),
        pytest.param(("verify", "--suite", "combinatorics", "--seed", "+1"), "--seed", id="seed-plus"),
        pytest.param(("table", "q", "--l", " 2", "--n", "3"), "--l", id="l-space"),
    ],
)
def test_integer_options_read_ascii_digits_only(capsys, argv, option):
    # int() reads "1_0", "+1", " 2" and non-ASCII digits; like the expression
    # grammar, every integer option refuses them, naming the option
    try:
        code = run_cli(*argv)
    except SystemExit as exc:  # argparse refuses the value
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    value = argv[argv.index(option) + 1]
    if option == "--betti":
        expected = f"error: --betti needs five comma-separated integers, got {value!r}"
    else:
        expected = f"error: argument {option}: invalid int value: {value!r}"
    assert captured.err.splitlines()[-1].endswith(expected)


def test_verify_single_suite(capsys):
    assert run_cli("verify", "--suite", "combinatorics", "--max-n", "8") == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "passed 3/3 checks" in out


def test_verify_frobenius_scaled(capsys):
    assert run_cli("verify", "--suite", "frobenius", "--max-n", "4") == 0
    out = capsys.readouterr().out
    assert "induction-invariance" in out


@pytest.mark.parametrize("suite, max_n", [("frobenius", "0"), ("combinatorics", "-3")])
def test_verify_rejects_max_n_below_1(capsys, suite, max_n):
    assert run_cli("verify", "--suite", suite, "--max-n", max_n) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_n must be >= 1" in captured.err


@pytest.mark.parametrize("max_n", [2.5, True])
def test_run_suites_refuses_a_cap_that_is_not_an_integer_of_at_least_1(monkeypatch, max_n):
    # 2.5 failed two checks with a TypeError; True ran as 1 and printed "n <= True"
    monkeypatch.setattr(suites, "SUITES", {"boom": {"check": lambda *args: 1 / 0}})
    with pytest.raises(ValueError, match="max_n must be >= 1"):
        suites.run_suites(max_n=max_n)


def test_verify_fails_a_check_that_examines_no_case(capsys):
    # block-law starts at n = 2, so a cap of 1 leaves it nothing to compare
    assert run_cli("verify", "--suite", "rewrite", "--max-n", "1") == 1
    out = capsys.readouterr().out
    assert "[FAIL] rewrite:block-law -- no case examined" in out
    assert "passed 2/3 checks" in out


def test_verify_reports_a_broken_law(monkeypatch, capsys):
    real = suites.multiplicity_vectors

    def drops_one(n):
        vectors = real(n)
        return vectors[1:] if n == 2 else vectors

    monkeypatch.setattr(suites, "multiplicity_vectors", drops_one)
    assert run_cli("verify", "--suite", "combinatorics") == 1
    out = capsys.readouterr().out
    assert "[FAIL] combinatorics:partition-counts -- mismatch at n=2: 2 vs 2 vs 1\n" in out
    assert "passed 2/3 checks" in out


def test_verify_reports_a_check_that_raises(monkeypatch, capsys):
    def boom(n, l):
        raise ValueError("boom")

    monkeypatch.setattr(suites, "q_length", boom)
    assert run_cli("verify", "--suite", "combinatorics") == 1
    captured = capsys.readouterr()
    assert "[FAIL] combinatorics:q-recurrence -- ValueError: boom\n" in captured.out
    assert "passed 2/3 checks" in captured.out
    assert captured.err == ""


def _moved_row_1(row):
    # one unit of z^2 moves to z^1: the total Betti number stays, the Euler number drops
    return [row[0], row[1] + 1, row[2] - 1, *row[3:]]


def _padded_row_1(row):
    # two zeros at each end: still a palindrome with the same values at z = +-1, but 9 long
    return [0, 0, *row, 0, 0]


@pytest.mark.parametrize(
    "corrupt, failing",
    [
        (_moved_row_1, ["gottsche-euler", "gottsche-palindromic"]),
        (_padded_row_1, ["gottsche-palindromic"]),
    ],
)
def test_verify_catches_a_moved_goettsche_coefficient(monkeypatch, capsys, corrupt, failing):
    real = suites.gottsche_series

    def corrupted(b, top):
        rows = real(b, top)
        return [rows[0], corrupt(rows[1]), *rows[2:]]

    monkeypatch.setattr(suites, "gottsche_series", corrupted)
    assert run_cli("verify", "--suite", "series") == 1
    out = capsys.readouterr().out
    for name in failing:
        assert f"[FAIL] series:{name} -- " in out
    assert "for betti (1, 0, 1, 0, 1)" in out
    assert f"passed {3 - len(failing)}/3 checks" in out
    results = {r.name: r.ok for r in suites.run_suites("series")}
    assert [name for name, ok in results.items() if not ok] == failing


def test_frobenius_battery_fails_when_it_compares_nothing():
    result = frobenius_battery(max_n=0, seed=0)
    assert not result.ok
    assert "no module" in result.detail


def test_verify_unknown_suite(capsys):
    assert run_cli("verify", "--suite", "nope") == 2
    err = capsys.readouterr().err
    assert "unknown suite 'nope'" in err and all(name in err for name in suites.SUITES)


def test_verify_json(capsys):
    assert run_cli("verify", "--suite", "catexpr", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] == 0
    assert all(check["ok"] for check in payload["checks"])


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "symsod.cli", "decompose", "sym(2, P1)", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert sum(c["multiplicity"] for c in payload["components"]) == 5


def test_closed_stdout_exits_141_without_a_traceback():
    # the reader is gone before the child writes: its stdout is a pipe whose
    # read end is already closed; p(30) = 5,604 component lines are far more
    # than a pipe buffer holds, sym(3, curve(1)) fails only at the last flush
    for text in ("sym(30, curve(1))", "sym(3, curve(1))"):
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "symsod.cli", "invariants", text],
                stdout=w, stderr=subprocess.PIPE, timeout=60,
            )
        finally:
            os.close(w)
        assert proc.returncode == 141, text
        assert b"Traceback" not in proc.stderr, text
    proc = subprocess.run(
        [sys.executable, "-m", "symsod.cli", "invariants", "sym(30, curve(1))"],
        capture_output=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"canonical: sym(30, curve(1))\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_stdout_write_exits_74_without_a_traceback():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "symsod.cli", "invariants", "sym(3, curve(1))"],
            stdout=full, stderr=subprocess.PIPE, text=True,
        )
    assert proc.returncode == 74
    assert proc.stderr.startswith("error: cannot write output: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_every_export_resolves_once():
    assert len(symsod.__all__) == len(set(symsod.__all__))
    assert [name for name in symsod.__all__ if not hasattr(symsod, name)] == []


def test_every_benchmark_call_site_resolves():
    # the benchmark wraps these attributes in spans; a refactor that drops one
    # would otherwise fail only the benchmark's own run
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises on any SPAN_SITES entry or patched class attribute that is gone
    finally:
        tracer.uninstall()


def test_benchmark_counters_fire_on_expression_verbs(capsys):
    # the benchmark's per-layer report counts these calls; a refactor that
    # builds distinct components lazily, or stops rendering through
    # cli.render_text, would zero them and fail only the benchmark's own tests
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["invariants", "sym(9, curve(2))", "--format", "json"]) == 0
        assert cli.main(["decompose", "sym(4, fakeP2(1))", "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = tracer.self_times([1.0])[0]
    assert tracer.counts["expr.component_of.calls"] > 0
    assert tracer.counts["rewrite.multiplicity_vectors.calls"] > 0
    assert calls["grammar.render_text"] > 0


def test_benchmark_cache_hooks_drain_the_package(monkeypatch, capsys):
    # the benchmark empties these caches before every operation and counts what
    # they held; a refactor that renames one would otherwise fail only its run
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    counts = Counter()
    bench_run.drain_caches(symsod, counts)
    counts.clear()
    assert run_cli("invariants", "hilb(5, blowup(P2))") == 0  # sym^2..sym^5 of one surface
    assert run_cli("table", "q", "--l", "2", "--n", "3") == 0
    capsys.readouterr()
    bench_run.drain_caches(symsod, counts)
    assert counts["invariants.hilb_cache.misses"] == 1
    assert counts["invariants.hilb_cache.hits"] == 3
    assert counts["partitions.q_cache.size"] == 4
    assert symsod.invariants._hilb_poincare_value.cache_info().currsize == 0
    assert symsod.partitions._Q_CACHE == {} and symsod.partitions._P_TABLE == [1]


def test_benchmark_module_ops_run_and_check(monkeypatch):
    # the frobenius-battery workload builds its modules and runs the induction
    # check through these calls; a changed S_n signature would otherwise fail
    # only the benchmark's own run
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    ops = {}
    for op in workloads.frobenius_round(0, 0):
        n, _, kind, _ = op.params
        if n == 3:
            ops.setdefault(kind, op)
    assert sorted(ops) == ["natural", "random", "regular", "trivial"]
    for op in ops.values():
        assert workloads.check(op, workloads.run_module(symsod, op))


def test_benchmark_decompose_ops_run_and_check(monkeypatch):
    # the exceptional-decompose workload checks every decompose against the
    # benchmark's oracle; an R1 change that breaks those checks would otherwise
    # fail only the benchmark's own run
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    ops = workloads.exceptional_round(0, 0)
    assert {op.family for op in ops} == {"points", "fake-plane", "product"}
    for op in ops:
        assert workloads.check(op, workloads.run_cli(symsod, op)), op.argv


def test_benchmark_table_ops_run_and_check(monkeypatch):
    # the oracle-tables workload checks every q and Goettsche table against the
    # benchmark's oracle; a broken packing of the Goettsche rows would otherwise
    # fail only the benchmark's own run
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    ops = workloads.tables_round(0, 0)
    odd = [op.params[1][1] > 0 for op in ops if op.family == "table-gottsche"]
    assert {op.family for op in ops} == {"table-q", "table-gottsche"}
    assert sorted(odd) == [False] * 8 + [True] * 8  # z-step 2 and z-step 1 tables
    for op in ops:
        assert workloads.check(op, workloads.run_cli(symsod, op)), op.argv


@pytest.mark.parametrize("i", [0, 6])
def test_benchmark_largest_module_ops_run_and_check(monkeypatch, i):
    # the regular modules of S_6 (720 basis points, one coset) and of S_0 x S_6
    # are the battery's largest cells; the benchmark's oracle checks their reports
    bench = pathlib.Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    [op] = [op for op in workloads.frobenius_round(0, 0) if op.params[:3] == (6, i, "regular")]
    module, report = workloads.run_module(symsod, op)
    assert len(module.basis) == 720 and report.induced_basis_size == 720
    assert workloads.check(op, (module, report))


def test_console_script_parse_error_code():
    proc = subprocess.run(
        [sys.executable, "-m", "symsod.cli", "decompose", "sod(pt"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_invariants_gottsche_path_via_surface_literal(capsys):
    assert run_cli("invariants", "hilb(2, surface(1,0,1,0,1))") == 0
    out = capsys.readouterr().out
    assert "euler: 9" in out
    assert "hh_total: 9" in out
    assert "exceptional_length: not purely exceptional" in out


def test_decompose_ruled_components(capsys):
    run_cli("decompose", "sym(2, ruled(1))", "--format", "json")
    payload = json.loads(capsys.readouterr().out)
    assert sum(c["multiplicity"] for c in payload["components"]) == 5
    factors = {f for c in payload["components"] for f in c["factors"]}
    assert factors == {"sym^2(curve(1))", "curve(1)"}


def test_table_defaults_to_n_10(capsys):
    assert run_cli("table", "q", "--l", "1") == 0
    out = capsys.readouterr().out.splitlines()[-1]
    assert out.endswith("42")  # p(10)


def test_table_has_no_max_n_alias(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("table", "q", "--l", "1", "--max-n", "3")
    assert exc.value.code == 2
    assert "--max-n" in capsys.readouterr().err


def test_verify_seed_changes_random_modules_but_passes(capsys):
    assert run_cli("verify", "--suite", "catexpr", "--seed", "7") == 0


def test_table_rejects_invalid_l(capsys):
    assert run_cli("table", "q", "--l", "0", "--n", "3") == 2


def test_table_rejects_non_dual_betti(capsys):
    assert run_cli("table", "gottsche", "--betti", "1,2,3,4,5", "--n", "2") == 2


def test_json_stdout_independent_of_hash_seed():
    src = str(pathlib.Path(symsod.__file__).resolve().parent.parent)
    commands = [
        ["verify", "--suite", "frobenius", "--max-n", "4", "--format", "json"],
        ["decompose", "bullet(sym(3, P2), sym(2, sod(A, B)))", "--format", "json"],
    ]
    for argv in commands:
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-m", "symsod.cli", *argv],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

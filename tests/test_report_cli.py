"""The analyze report, its JSON schema, and the command-line surface."""

import json
import os
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import pytest

from nilrep import cli, finitehom, groups, selftest
from nilrep.cli import main
from nilrep.groups import (AbelianInvariants, FreeAbelian, FreeNilpotent,
                           Heisenberg, Presented,
                           free_nilpotent_class2_presentation)
from nilrep.invariants import (poincare_char_variety, poincare_hom_component,
                               poly)
from nilrep.parsing import parse_group_spec, parse_reductive_spec
from nilrep.report import analyze
from nilrep.rootdata import RootDatum, build_root_datum, reductive
from nilrep.selftest import hopf_product

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = ROOT / "docs" / "report_schema.json"


# ---------------------------------------------------------------------------
# analyze()


def test_analyze_heisenberg_sl2():
    report = analyze(Heisenberg(), reductive(("SL", 2)))
    assert report.rank_h1 == 2
    assert report.torsion_h1 == ()
    assert report.pi1_hom.is_trivial()
    assert report.pi1_char.is_trivial()
    assert report.poincare_hom == poly([1, 0, 1, 2])
    assert report.poincare_char == poly([1, 0, 1])
    assert report.verdict.status == "Disconnected"


def test_analyze_heisenberg_gl2():
    report = analyze(Heisenberg(), reductive(("GL", 2)))
    assert report.rank_h1 == 2
    assert report.pi1_hom == AbelianInvariants(2)
    assert report.pi1_char == AbelianInvariants(2)


def test_analyze_z1_sl2():
    report = analyze(FreeAbelian(1), reductive(("SL", 2)))
    assert report.rank_h1 == 1
    assert report.poincare_hom == poly([1, 0, 0, 1])
    assert report.verdict.status == "Connected"


def test_analyze_f22_torus():
    report = analyze(FreeNilpotent(2, 2), reductive(("T", 1)))
    assert report.rank_h1 == 2
    assert report.pi1_hom == AbelianInvariants(2)
    assert report.poincare_hom == poly([1, 2, 1])
    assert report.verdict.status == "Connected"


def test_analyze_computes_h1_of_a_written_group_once(monkeypatch):
    # analyze and its verdict both read H_1; the written group's is cached
    # on its spec.  Root-datum cokernels go through snf, not this binding
    rows = []
    real = groups.cokernel_of_columns

    def counted(generator_count, columns):
        rows.append(generator_count)
        return real(generator_count, columns)

    monkeypatch.setattr(groups, "cokernel_of_columns", counted)
    g = Presented(free_nilpotent_class2_presentation(5))
    report = analyze(g, reductive(("SL", 2)))
    assert (report.rank_h1, report.verdict.status) == (5, "Unknown")
    assert rows == [15]


def test_analyze_builds_one_root_datum(monkeypatch):
    # the verdict reads the datum that analyze built; called on its own,
    # connectivity_verdict builds its own
    built = []
    check = RootDatum.__post_init__

    def counted(self):
        built.append(self.factors)
        check(self)

    monkeypatch.setattr(RootDatum, "__post_init__", counted)
    spec = reductive(("SL", 2), "G2")
    for g in (FreeAbelian(3), Heisenberg()):
        built.clear()
        analyze(g, spec)
        assert built == [spec.factors], g
    built.clear()
    assert finitehom.connectivity_verdict(Heisenberg(), spec).status == (
        "Disconnected")
    assert built == [spec.factors]


def test_analyze_respects_rank_guard():
    # one bound on the output size r * rank, 512: T64 is past it at r = 9
    # and on it at r = 8, and SL2 reports at r = 9
    report = analyze(FreeAbelian(9), reductive(("T", 64)))
    assert report.poincare_hom is None and report.poincare_char is None
    assert any("omitted" in c and "512" in c for c in report.caveats)
    report = analyze(FreeAbelian(8), reductive(("T", 64)))
    assert report.poincare_char == poly([1, 1]) ** 512
    assert not any("omitted" in c for c in report.caveats)
    report = analyze(FreeAbelian(9), reductive(("SL", 2)))
    assert report.poincare_hom is not None
    assert not any("omitted" in c for c in report.caveats)


def test_analyze_reports_polynomials_for_sl9():
    # |W(SL9)| = 9!, summed over cycle types: Hom(Z, SL9)_1 = SL9, whose
    # Poincare polynomial is the product of (1 + t^(2d - 1)) over the
    # degrees d = 2..9
    hopf = hopf_product(range(2, 10))
    assert hopf.degree() == 80 and hopf(1) == 2 ** 8      # dim SL9, rank 8
    report = analyze(FreeAbelian(1), reductive(("SL", 9)))
    assert report.poincare_hom == hopf
    assert report.poincare_char == poly([1])
    assert not any("omitted" in c for c in report.caveats)
    assert report.pi1_hom.is_trivial()
    assert report.verdict.status == "Connected"


def test_analyze_verdict_connected_for_all_torus_targets():
    torus = reductive(("T", 3))
    for text in ("H3", "F(2,3)", "Z^4", "H3 x Z^2"):
        report = analyze(parse_group_spec(text), torus)
        assert report.verdict.status == "Connected", text


def test_report_json_matches_published_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    for group, target in [("H3", "SL2"), ("Z^2", "GL2"), ("Z/4", "PGL2"),
                          ("F(2,3)", "Sp4"), ("Z^9", "SL2")]:
        report = analyze(parse_group_spec(group),
                         parse_reductive_spec(target))
        payload = report.to_json_dict()
        jsonschema.validate(payload, schema)
        assert payload["verdict"]["reason_code"] == report.verdict.reason_code
    # the reason code is required
    del payload["verdict"]["reason_code"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(payload, schema)


def test_analyze_is_deterministic():
    first = analyze(Heisenberg(), reductive(("Sp", 4)))
    second = analyze(Heisenberg(), reductive(("Sp", 4)))
    assert json.dumps(first.to_json_dict(), sort_keys=True) \
        == json.dumps(second.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# command-line interface


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_analyze_text(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--group", "H3",
                           "--target", "SL2")
    assert code == 0
    assert "Disconnected" in out
    assert "1 + t^2 + 2t^3" in out


def test_cli_analyze_json_bit_identical(capsys):
    code, first, _ = run_cli(capsys, "analyze", "--group", "H3",
                             "--target", "SL2", "--json")
    assert code == 0
    payload = json.loads(first)
    assert payload["rank_h1"] == 2
    assert payload["poincare_hom"] == [1, 0, 1, 2]
    assert payload["verdict"]["status"] == "Disconnected"
    code, second, _ = run_cli(capsys, "analyze", "--group", "H3",
                              "--target", "SL2", "--json")
    assert first == second


def test_cli_free_abelian_group(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--group", "Z^3",
                           "--target", "SL2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == "Z^3"
    assert payload["rank_h1"] == 3


def test_cli_poincare_and_pi1(capsys):
    code, out, _ = run_cli(capsys, "poincare", "--group", "Z^2",
                           "--target", "SL2", "--json")
    assert code == 0
    assert json.loads(out)["poincare_hom"] == [1, 0, 1, 2]
    code, out, _ = run_cli(capsys, "pi1", "--group", "H3",
                           "--target", "GL2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pi1_hom"] == {"rank": 2, "torsion": []}
    assert payload["pi1_char"] == {"rank": 2, "torsion": []}
    # the text output formats both groups as analyze does
    code, out, _ = run_cli(capsys, "pi1", "--group", "Z", "--target", "GL2")
    assert code == 0
    assert out.splitlines() == ["pi_1 of Hom(Z^1, GL2)_1: Z",
                                "pi_1 of the character variety: Z"]


def test_cli_poincare_sl9(capsys):
    # |W(SL9)| = 362,880: summed over its 30 cycle types, not its elements
    code, out, _ = run_cli(capsys, "poincare", "--group", "Z",
                           "--target", "SL9", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["poincare_hom"] == list(
        hopf_product(range(2, 10)).coefficients)
    assert payload["poincare_char"] == [1]


def test_cli_connectivity_and_homcount(capsys):
    code, out, _ = run_cli(capsys, "connectivity", "--group", "F(2,3)",
                           "--target", "Sp4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "Disconnected"
    assert payload["reason_code"] == "finite_nonabelian_quotient"
    assert payload["witness"] == ["i", "j", "-1"]
    code, out, _ = run_cli(capsys, "connectivity", "--group", "F(2,3)",
                           "--target", "Sp4")
    assert code == 0 and "reason_code" not in out
    code, out, _ = run_cli(capsys, "homcount", "--group", "H3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["total"], payload["surjective"]) == (64, 24)
    code, out, _ = run_cli(capsys, "homcount", "--group", "Z^2",
                           "--finite", "d4", "--json")
    assert code == 0
    assert json.loads(out)["total"] == 40


def test_cli_bound(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "bound", "--m", "3", "--json")
    assert code == 0
    assert json.loads(out)["bound"] == 64
    limit = finitehom.ORDER_BOUND_M_LIMIT
    code, out, _ = run_cli(capsys, "bound", "--m", str(limit))
    assert code == 0
    phi_sum = sum(1 for k in range(1, limit + 1) for j in range(1, k + 1)
                  if gcd(j, k) == 1)
    assert out.splitlines()[1] == "bound: %d" % phi_sum ** limit
    # m is bounded before any work of size m: finitehom may not even
    # build a range, and no list of 10^18 totients could be allocated
    def no_range(*args):
        raise AssertionError("range%r built" % (args,))
    monkeypatch.setattr(finitehom, "range", no_range, raising=False)
    for m in (limit + 1, 10**8, 10**18):
        code, out, _ = run_cli(capsys, "bound", "--m", str(m), "--json")
        assert code == 3, m
        assert json.loads(out)["error"]["type"] == "TooLarge"


def test_cli_selftest(capsys, monkeypatch):
    # the checks themselves run in tests/test_acceptance.py; here only how
    # selftest reports a pass, a failure and a check that raises
    def broken():
        raise ZeroDivisionError("boom")
    monkeypatch.setattr(selftest, "CHECKS", (("passes", lambda: True),
                                             ("fails", lambda: False),
                                             ("breaks", broken)))
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert out.splitlines() == [
        "PASS: passes", "FAIL: fails",
        "FAIL: breaks (raised ZeroDivisionError: boom)"]


def test_cli_selftest_passes_under_python_O():
    # every check in a fresh interpreter with assert statements stripped:
    # no invariant of the library may rest on an assert
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "nilrep.cli", "selftest"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("PASS: ") == len(selftest.CHECKS)
    assert "FAIL" not in proc.stdout


@pytest.mark.parametrize("argv", [
    ("poincare", "--json", "--group", "Z^8", "--target",
     "SL9 x SL9 x SL9 x SL9"),                    # 44 KB, past one buffer
    ("analyze", "--group", "H3", "--target", "SL2"),  # fails at the flush
])
def test_cli_exits_quietly_when_the_reader_closes_early(argv):
    # like `nilrep ... | head -c 10`, but the reader is gone before the
    # first write, so every write fails and the test does not race;
    # stdout is block-buffered, as it is by default on a pipe
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "nilrep.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120,
                              env=dict(env, PYTHONPATH=path))
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_cli_reuses_one_parser_without_leaking_state(capsys, monkeypatch):
    # main() shares one argument parser across calls; a sequence of calls
    # in one process must print what a fresh interpreter prints for each
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setenv("COLUMNS", "80")   # usage text wraps at the width
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    sequence = [
        ("analyze", "--group", "H3"),                       # usage error
        ("homcount", "--group", "H3", "--finite", "c6"),
        ("homcount", "--group", "H3"),                      # q8 by default
        ("selftest",),
        ("pi1", "--group", "Z^2", "--target", "PGL2", "--json"),
        ("pi1", "--group", "Z^2", "--target", "PGL2"),
        ("connectivity", "--group", "<x | x^0>", "--target", "SL2"),
        ("connectivity", "--group", "<x | x^>", "--target", "SL2",
         "--json"),
    ]
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "nilrep.cli", *argv],
                               capture_output=True, text=True, timeout=120,
                               env=dict(os.environ, PYTHONPATH=path))
        assert (code, out) == (fresh.returncode, fresh.stdout), argv


def test_cli_exit_codes(capsys):
    code, _, err = run_cli(capsys, "analyze", "--group", "H3 +",
                           "--target", "SL2")
    assert code == 2
    assert "position" in err
    code, _, err = run_cli(capsys, "analyze", "--group", "H3",
                           "--target", "E8")
    assert code == 2
    # past |W| = 10^6 the Poincare polynomials are computed; past the
    # Molien work bound only they are refused
    code, out, _ = run_cli(capsys, "poincare", "--group", "H3",
                           "--target", "SL12", "--json")
    assert code == 0
    assert sum(json.loads(out)["poincare_hom"]) == 2 ** 22
    code, out, _ = run_cli(capsys, "analyze", "--group", "H3",
                           "--target", "SL64", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["poincare_hom"] is report["poincare_char"] is None
    assert report["caveats"][-1] == ("Poincare polynomials omitted: Molien "
                                     "sums of the Weyl group of type A63 at "
                                     "r = 2 exceed the supported work "
                                     "bound.")
    code, out, _ = run_cli(capsys, "poincare", "--group", "H3",
                           "--target", "SL64", "--json")
    assert code == 3
    assert json.loads(out)["error"]["type"] == "TooLarge"
    code, _, err = run_cli(capsys, "analyze", "--group", "H3",
                           "--target", "Sp5")
    assert code == 3
    # the total rank is bounded before any degree or lattice is built
    for target in ("SL100000000", "T100000"):
        code, out, _ = run_cli(capsys, "analyze", "--group", "Z",
                               "--target", target, "--json")
        assert code == 3
        assert json.loads(out)["error"]["type"] == "TooLarge"
    code, out, _ = run_cli(capsys, "analyze", "--group", "Z",
                           "--target", "T64", "--json")
    assert code == 0
    assert (json.loads(out)["poincare_char"]
            == list((poly([1, 1]) ** 64).coefficients))
    code, out, _ = run_cli(capsys, "analyze", "--group",
                           "<a,b | [a,b]^1000000>", "--target", "SL2",
                           "--json")
    assert code == 3
    assert json.loads(out)["error"]["type"] == "TooLarge"
    code, out, _ = run_cli(capsys, "analyze", "--group",
                           "<a | a^1000000000000>", "--target", "SL2",
                           "--json")
    assert code == 0
    assert json.loads(out)["torsion_h1"] == [10**12]
    # output and table sizes are bounded before any work; pi_1(PGL2)^r
    # would write a torsion chain of r entries
    for argv in (["poincare", "--group", "Z^3000", "--target", "SL2"],
                 ["pi1", "--group", "Z^1000000000", "--target", "PGL2"],
                 ["analyze", "--group", "Z^1000000000", "--target", "PGL2"],
                 ["poincare", "--group", "Z^9", "--target", "T64"],
                 ["homcount", "--group", "Z", "--finite", "c100000000"],
                 ["homcount", "--group", "Z", "--finite", "d129"]):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 3, argv
        assert json.loads(out)["error"]["type"] == "TooLarge"
    for cmd in ("pi1", "analyze"):
        code, out, _ = run_cli(capsys, cmd, "--group", "Z^1000000000",
                               "--target", "SL2", "--json")
        assert code == 0, cmd
        assert json.loads(out)["pi1_hom"] == {"rank": 0, "torsion": []}
    # nested commutators double in length: capped in letters, and the
    # bracket depth is bounded before the parser's recursion runs deep
    for depth, expected in ((20, (3, "TooLarge")), (1200, (2, "parse"))):
        group = "<a,b | %sa,b]%s>" % ("[" * depth, ",b]" * (depth - 1))
        code, out, _ = run_cli(capsys, "pi1", "--group", group, "--target",
                               "SL2", "--json")
        assert (code, json.loads(out)["error"]["type"]) == expected, depth
    # coprime 4,001-digit orders merge into an 8,001-digit invariant
    # factor, past what Python writes as text
    d1, d2 = 10**4000 + 1, 10**4000 + 3
    for group in ("Z/%d x Z/%d" % (d1, d2),
                  "<a,b | a^%d, b^%d, [a,b]>" % (d1, d2)):
        code, _, err = run_cli(capsys, "analyze", "--group", group,
                               "--target", "SL2")
        assert code == 3 and "TooLarge" in err
        code, out, _ = run_cli(capsys, "analyze", "--group", group,
                               "--target", "SL2", "--json")
        assert code == 3
        assert json.loads(out)["error"]["type"] == "TooLarge"
    # two 4,300-digit exponents merge into a 4,301-digit one, which no
    # output could print: refused while the word is read, before any count
    group = "<a | a^%s a^%s>" % ("9" * 4300, "9" * 4300)
    code, _, err = run_cli(capsys, "homcount", "--group", group,
                           "--finite", "q8")
    assert code == 3 and "TooLarge" in err and "4300 digits" in err
    code, out, _ = run_cli(capsys, "homcount", "--group", group,
                           "--finite", "q8", "--json")
    assert code == 3
    assert json.loads(out)["error"]["type"] == "TooLarge"


def test_cli_letter_budget_covers_the_whole_presentation(capsys):
    # a depth-15 nested commutator has 65,537 letters, inside the cap on
    # one word; repeated or juxtaposed, its copies pass the budget of the
    # whole input, and the parse stops at the copy that does
    w = "[" * 15 + "a,b]" + ",b]" * 14
    code, _, _ = run_cli(capsys, "pi1", "--group", "<a,b | %s>" % w,
                         "--target", "SL2", "--json")
    assert code == 0
    for relators in (", ".join([w] * 40), "%s %s" % (w, w)):
        group = "<a,b | %s>" % relators
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "pi1", "--group", group, "--target",
                               "SL2", "--json")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert json.loads(out)["error"]["type"] == "TooLarge"


@pytest.mark.parametrize("group, target", [
    ("Z^2", "SL5 x SL5 x SL5"), ("Z^2", "SL9 x SL9"), ("Z^2", "GL8 x GL8"),
    ("Z^2", "Spin15 x SL2"), ("Z^8", " x ".join(["SL9"] * 8)),
])
def test_cli_products_past_the_total_weyl_order(capsys, group, target):
    # the Weyl order bound applies per factor, and a product's Poincare
    # polynomials are the products of its factors'
    code, out, _ = run_cli(capsys, "analyze", "--group", group, "--target",
                           target, "--json")
    assert code == 0
    payload = json.loads(out)
    r = payload["rank_h1"]
    hom = char = poly([1])
    for factor in target.split(" x "):
        rd = build_root_datum(parse_reductive_spec(factor))
        hom = hom * poincare_hom_component(rd, r)
        char = char * poincare_char_variety(rd, r)
    assert payload["poincare_hom"] == list(hom.coefficients)
    assert payload["poincare_char"] == list(char.coefficients)


@pytest.mark.parametrize("argv", [
    ["analyze", "--group", "Z^0", "--target", "SL2"],
    ["analyze", "--group", "F(2,0)", "--target", "SL2"],
    ["analyze", "--group", "Z^-1", "--target", "SL2"],
    ["pi1", "--group", "Z^0", "--target", "SL2"],
    ["homcount", "--group", "Z", "--finite", "c0"],
    ["homcount", "--group", "Z", "--finite", "d0"],
    ["bound", "--m", "0"],
    # more digits than Python converts to int
    ["analyze", "--group", "Z", "--target", "SL" + "9" * 5000],
    ["analyze", "--group", "Z^" + "9" * 5000, "--target", "SL2"],
    ["analyze", "--group", "<a | a^%s>" % ("9" * 5000), "--target", "SL2"],
    ["homcount", "--group", "Z", "--finite", "c" + "9" * 5000],
])
def test_cli_rejects_degenerate_sizes_as_parse_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error (parse):")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "parse"

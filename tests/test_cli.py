"""End-to-end checks of the command-line surface.

Runs the entry point in-process; one subprocess test covers the module
runner wiring.  Exit codes: 0 ok, 1 bad input or domain error, 2 failing
fixture under the fixture and report verbs.
"""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import time
from unittest import mock

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from virlog.cli import _build_parser, _parse_args, main
from virlog.fusion import EulerOperator, LogSeries, fusion_indicial
from virlog.fixtures import FixtureResult, report_table
from virlog.modules import (
    JordanVermaModule,
    ModuleVector,
    kac_weight,
    shapovalov_determinant,
    shapovalov_matrix,
)
from virlog.polynomial import UniPoly
from virlog.serialize import deserialize

from hom_check_oracle import hom_check
from test_modules import SWEEP_T


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- documented invocations -------------------------------------------------


def test_fusion_logarithmic_case(capsys):
    code, out, _ = run(capsys, "fusion", "--c", "-2", "--h1", "-1/8", "--h2", "-1/8")
    assert code == 0
    doc = json.loads(out)
    assert doc["logarithmic"] is True
    assert doc["roots"] == [["0", 2]]


def test_det_symbolic_level3(capsys):
    code, out, _ = run(capsys, "det", "--level", "3", "--jordan", "2", "--symbolic")
    assert code == 0
    want = shapovalov_determinant(JordanVermaModule("c", "h", 2), 3)
    assert out.strip() == want.render()


def test_shapovalov_symbolic_level1(capsys):
    code, out, _ = run(
        capsys, "shapovalov", "--level", "1", "--jordan", "2", "--symbolic", "--json"
    )
    assert code == 0
    got = deserialize(out, "matrix")
    assert got == shapovalov_matrix(JordanVermaModule("c", "h", 2), 1)


def test_singular_and_radical_numeric(capsys):
    code, out, _ = run(
        capsys, "singular", "--c", "1", "--h", "1", "--level", "3", "--jordan", "2"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 2
    code, out, _ = run(
        capsys, "radical", "--c", "1", "--h", "1", "--level", "3", "--jordan", "2"
    )
    assert code == 0
    assert out.strip() == "2"


def test_hom_check_certifies(capsys, monkeypatch):
    # the verb reads its answer from the kernel, not from the mode action
    def never(*args, **kwargs):
        raise AssertionError("mode action used")

    monkeypatch.setattr(ModuleVector, "apply_mode", never)
    code, out, _ = run(capsys, "hom-check", "--c", "1", "--h", "1", "--level", "3")
    assert (code, out) == (0, "certified: true\nsingular-dimension: 2\n")


@pytest.mark.parametrize("argv, want", [
    # a Kac weight whose singular vector has no Jordan partner, at either size
    (["--c", "1", "--h", "0", "--level", "1"], "certified: false\nsingular-dimension: 1\n"),
    (["--c", "1", "--h", "0", "--level", "1", "--jordan", "1"],
     "certified: false\nsingular-dimension: 1\n"),
    (["--c", "1", "--h", "1/4", "--level", "2", "--json"],
     '{\n  "certified": true,\n  "singular-dimension": "2"\n}\n'),
    # a generic weight: no singular vectors at all
    (["--c", "1/3", "--h", "2/7", "--level", "3"], "certified: false\nsingular-dimension: 0\n"),
])
def test_hom_check_answers(capsys, argv, want):
    assert run(capsys, "hom-check", *argv) == (0, want, "")


@pytest.mark.parametrize("level", range(1, 8))
def test_hom_check_matches_fraction_oracle(capsys, level):
    # every Kac weight h_{r,s} with rs = level at the benchmark's t, and two
    # generic weights
    weights = [kac_weight(t, r, level // r) for t in SWEEP_T
               for r in range(1, level + 1) if level % r == 0]
    weights += [(Fraction(1, 3), Fraction(2, 7)), (Fraction(-7, 2), Fraction(5, 9))]
    for c, h in weights:
        for jordan in (1, 2):
            code, out, _ = run(capsys, "hom-check", "--c", str(c), "--h", str(h),
                               "--level", str(level), "--jordan", str(jordan), "--json")
            doc = json.loads(out)
            got = {"certified": doc["certified"],
                   "singular-dimension": int(doc["singular-dimension"])}
            assert (code, got) == (0, hom_check(JordanVermaModule(c, h, jordan), level))


@pytest.mark.parametrize("jordan", ["3", "4"])
@pytest.mark.parametrize("c, h", [("1/3", "2/7"), ("1", "1")])
def test_hom_check_refuses_jordan_above_two_at_any_weight(capsys, jordan, c, h):
    # a generic weight (no singular vectors) and a Kac weight alike
    code, out, err = run(capsys, "hom-check", "--c", c, "--h", h, "--level", "3",
                         "--jordan", jordan)
    assert code == 1
    assert out == ""
    assert err == "virlog: error: homomorphism certificate needs a jordan-size-2 target\n"


def test_ope_coeff_and_degenerate_charge(capsys):
    code, out, _ = run(capsys, "ope-coeff", "--c", "3", "--h", "5/4")
    assert code == 0
    assert out.strip() == "5/6"
    code, _, err = run(capsys, "ope-coeff", "--c", "0", "--h", "1")
    assert code == 1
    assert "error" in err


def test_determine_b(capsys):
    code, out, _ = run(capsys, "determine-b", "--h", "5/8")
    assert code == 0
    assert out.strip() == "5/2"


def test_euler_solve_stdin(capsys, monkeypatch):
    doc = {
        "op": {
            "terms": [
                {"xpow": 0, "dorder": 2, "coeff": "1"},
                {"xpow": -1, "dorder": 1, "coeff": "3/2"},
                {"xpow": -2, "dorder": 0, "coeff": "-15/16"},
            ]
        },
        "rhs": {
            "terms": [
                {
                    "exponent": "-5/4",
                    "logpower": 0,
                    "coeff": {
                        "vars": ["b"],
                        "terms": [{"coeff": "2/3", "exps": [1]}],
                    },
                }
            ]
        },
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run(capsys, "euler-solve")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["particular"]["terms"][0]["exponent"] == "3/4"
    assert parsed["particular"]["terms"][0]["logpower"] == 1


def test_fusion_kac_t_three_quarters(capsys):
    # a sextic whose coefficients have 11-digit denominators: the roots come
    # from real-root isolation, and each divides the printed polynomial
    # exactly as often as stated
    args = ("--c", "1/2", "--h1", "5/3", "--h2", "65/16")
    code, out, _ = run(capsys, "fusion", *args, "--json")
    assert code == 0
    doc = json.loads(out)
    fus = fusion_indicial(*(Fraction(a) for a in args[1::2])).fusion
    assert doc["fusion_h3"] == fus.render()
    assert doc["roots"] == [["-1/48", 1], ["35/48", 2], ["143/48", 1], ["323/48", 1],
                            ["575/48", 1]]
    assert doc["logarithmic"] is True
    # a root of multiplicity m is a zero of the first m - 1 derivatives and
    # not of the m-th
    for root, mult in doc["roots"]:
        values, d = [], fus
        for _ in range(mult + 1):
            values.append(d.evaluate(Fraction(root)))
            d = UniPoly(d.var, [k * c for k, c in enumerate(d.coeffs)][1:])
        assert values[:mult] == [0] * mult and values[mult] != 0


def _euler_doc(op_terms, rhs_terms):
    return json.dumps({
        "op": {"terms": [{"xpow": x, "dorder": d, "coeff": c} for x, d, c in op_terms]},
        "rhs": {"terms": [{"exponent": e, "logpower": p, "coeff": c} for e, p, c in rhs_terms]},
    })


@pytest.mark.parametrize("doc", [
    _euler_doc([(0, 33, "1")], [("0", 0, "1")]),
    _euler_doc([(-2, 2, "1"), (-35, 0, "1"), (0, 35, "1")], [("0", 0, "1")]),
    _euler_doc([(0, 10**30, "1")], [("0", 0, "1")]),
    _euler_doc([(-2, 2, "1")], [("0", 65, "1")]),
    _euler_doc([(-2, 2, "1")], [("0", 1, "1"), ("1", 10**30, "1")]),
])
def test_euler_solve_oversized_input_exits_one(capsys, monkeypatch, doc):
    def never(*args, **kwargs):
        raise AssertionError("computation started")

    monkeypatch.setattr("virlog.cli.solve_euler", never)
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, "euler-solve")
    assert code == 1
    assert out == ""
    assert re.fullmatch(r"virlog: error: (dorder|logpower) \d+ is above the limit \d+\n", err)


@pytest.mark.parametrize("op_terms, rhs_terms", [
    # the largest operator order and log power accepted
    ([(0, 32, "1")], [("-32", 64, "1")]),
    # s(s - 1) + 10^20 + 1: a 20-digit trailing coefficient, no rational root
    ([(0, 2, "1"), (-2, 0, str(10**20 + 1))], [("0", 3, "1")]),
])
def test_euler_solve_at_the_cap_runs(capsys, monkeypatch, op_terms, rhs_terms):
    doc = _euler_doc(op_terms, rhs_terms)
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, _ = run(capsys, "euler-solve")
    assert code == 0
    parsed, given = json.loads(out), json.loads(doc)
    op = EulerOperator.from_json(given["op"])
    assert op.apply(LogSeries.from_json(parsed["particular"])) == LogSeries.from_json(given["rhs"])


@pytest.mark.parametrize("coeff", ["1" + "0" * 5000, "-3/1" + "0" * 5000],
                         ids=["numerator", "denominator"])
def test_euler_solve_oversized_literal_exits_one(capsys, monkeypatch, coeff):
    # more digits than the interpreter converts from a string
    doc = _euler_doc([(0, 2, "1"), (-2, 0, coeff)], [("0", 0, "1")])
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, "euler-solve")
    assert code == 1
    assert out == ""
    limit = sys.get_int_max_str_digits()
    assert err == f"virlog: error: rational literal of 5001 digits is above the limit {limit}\n"
    assert "Traceback" not in err


def test_euler_solve_oversized_result_exits_one(capsys, monkeypatch):
    # an accepted 4,001-digit exponent gives a result the interpreter will
    # not convert to a string
    doc = _euler_doc([(0, 2, "1"), (-2, 0, "1")], [("1" + "0" * 4000, 0, "1")])
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, "euler-solve")
    assert code == 1
    assert out == ""
    limit = sys.get_int_max_str_digits()
    assert err == f"virlog: error: a result of more than {limit} digits cannot be printed\n"
    assert "Traceback" not in err


_SOLVABLE = _euler_doc([(0, 2, "1"), (-2, 0, "-2")], [("1/2", 0, "1")])


@pytest.mark.parametrize("argv, doc", [
    (["euler-solve", "--input", "{tmp}/missing.json"], ""),
    (["determine-b", "--h", "5/8", "--out", "{tmp}/missing/b.txt"], ""),
    (["euler-solve", "--out", "{tmp}/missing/solved.json"], _SOLVABLE),
    (["euler-solve"], _euler_doc([(0, 2, "1")], [("0", "x", "1")])),
    (["euler-solve"], _SOLVABLE.replace('"logpower": 0', '"logpower": 1e400')),
    (["euler-solve"], _SOLVABLE.replace('"logpower": 0', '"logpower": NaN')),
    (["euler-solve"], _SOLVABLE[:-1] + ', "note": 1' + "0" * 5000 + "}"),
    # solved as dorder 1 and logpower 1 before integer fields were checked
    (["euler-solve"], _euler_doc([(0, 1.5, "1")], [("0", 0, "1")])),
    (["euler-solve"], _euler_doc([(0, 2, "1")], [("0", True, "1")])),
    # a traceback from the JSON emitter, and "exps": [true] printed back
    *[(["euler-solve"], _euler_doc([(0, 2, "1")], [
        ("0", 0, {"vars": ["b"], "terms": [{"coeff": "1", "exps": [exp]}]})]))
      for exp in (1.5, True)],
], ids=["missing-input", "out-dir-missing", "euler-out-dir-missing", "logpower-string",
        "logpower-1e400", "logpower-nan", "over-limit-literal", "dorder-1.5", "logpower-true",
        "rhs-exps-1.5", "rhs-exps-true"])
def test_bad_files_and_fields_exit_one(capsys, monkeypatch, tmp_path, argv, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert (code, out) == (1, "")
    assert re.fullmatch(r"virlog: error: [^\n]*\n", err)
    assert "Traceback" not in err


@pytest.mark.parametrize("dorder", ['"2"', "2.0"])
def test_integral_field_spellings_keep_their_output(capsys, monkeypatch, dorder):
    # a string or float that int() reads exactly is that integer
    monkeypatch.setattr("sys.stdin", io.StringIO(_SOLVABLE))
    want = run(capsys, "euler-solve")
    spelled = _SOLVABLE.replace('"dorder": 2', f'"dorder": {dorder}')
    monkeypatch.setattr("sys.stdin", io.StringIO(spelled))
    assert want[0] == 0
    assert run(capsys, "euler-solve") == want


# -- wlog verbs -------------------------------------------------------------


def test_wlog_bracket_render(capsys):
    code, out, _ = run(
        capsys, "wlog", "bracket", "-1:2", "1:-2", "--cocycle", "residue"
    )
    assert code == 0
    assert out.strip() == "2*t^(-1)(0) + 4*t^(0)(0) - b"


def test_wlog_cocycle_orientations(capsys):
    code, out, _ = run(capsys, "wlog", "cocycle", "-1:2", "0:-2")
    assert code == 0 and out.strip() == "-2/3"
    code, out, _ = run(
        capsys, "wlog", "cocycle", "-1:2", "0:-2", "--cocycle", "closed"
    )
    assert code == 0 and out.strip() == "2/3"
    code, out, _ = run(
        capsys, "wlog", "cocycle", "-1:2", "0:-2", "--cocycle", "none"
    )
    assert code == 0 and out.strip() == "0"


def test_wlog_cocycle_domain_error(capsys):
    code, _, err = run(
        capsys, "wlog", "cocycle", "3:0", "-1:0", "--cocycle", "closed"
    )
    assert code == 1
    assert "residue" in err


def test_wlog_vev(capsys):
    code, out, _ = run(capsys, "wlog", "vev", "-1:2", "0:-2")
    assert code == 0
    assert out.strip() == "-2/3*b"
    code, out, _ = run(capsys, "wlog", "vev")
    assert code == 0
    assert out.strip() == "1"


def test_wlog_jacobi(capsys):
    code, out, _ = run(capsys, "wlog", "jacobi", "--level", "1")
    assert code == 0
    assert "violations:" in out
    assert "checked: 165" in out


# -- contract plumbing ------------------------------------------------------


def test_unknown_verb_and_flag_exit_one(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "det", "--level", "1", "--symbolic", "--bogus")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "wlog")[0] == 1


def test_decimal_input_rejected(capsys):
    code, _, err = run(capsys, "ope-coeff", "--c", "0.5", "--h", "1")
    assert code == 1
    assert "rational" in err


def test_symbolic_excludes_numeric(capsys):
    code, _, err = run(
        capsys, "shapovalov", "--level", "1", "--symbolic", "--c", "1"
    )
    assert code == 1
    assert "symbolic" in err


def test_missing_numeric_parameters(capsys):
    assert run(capsys, "det", "--level", "2")[0] == 1
    assert run(capsys, "singular", "--level", "2", "--c", "1")[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_reused_parser_matches_fresh_runs(capsys, monkeypatch):
    # main() builds its parser once per process: a usage error must leave
    # nothing behind that changes the bytes or exit code of a later call
    monkeypatch.setenv("COLUMNS", "80")
    bad = ("wlog", "bracket", "0:1", "0:2", "--cocycle", "bogus")
    good = ("det", "--c", "1", "--h", "0", "--level", "2")
    fresh = {
        argv: subprocess.run(
            [sys.executable, "-m", "virlog", *argv], capture_output=True, text=True
        )
        for argv in (bad, good)
    }
    for argv in (bad, good, bad):
        proc = fresh[argv]
        assert run(capsys, *argv) == (proc.returncode, proc.stdout, proc.stderr)


_MODULE = ["--c", "1", "--h", "1/4", "--level", "2"]
_FUSION = ["fusion", "--c", "1", "--h1", "1", "--h2", "1/4"]
_DISPATCH_ARGVS = [
    *[[verb, *_MODULE, "--jordan", str(jordan), *extra]
      for verb in ("shapovalov", "det", "singular", "radical", "hom-check")
      for jordan in (1, 2, 3) for extra in ([], ["--json"])],
    ["shapovalov", "--level", "2", "--symbolic", "--out", "m.txt"],
    ["det", "--level", "3", "--jordan", "2", "--symbolic", "--json"],
    ["hom-check", *_MODULE],
    ["hom-check", *_MODULE, "--json", "--out", "h.json"],
    _FUSION,
    [*_FUSION, "--level", "3", "--json"],
    ["euler-solve", "--input", "op.json"],
    ["determine-b", "--h", "5/8"],
    ["ope-coeff", "--c", "1", "--h", "1/4", "--json"],
    ["wlog", "bracket", "1:1", "0:2", "--cocycle", "residue"],
    ["wlog", "cocycle", "--json", "--", "-1:1", "b"],
    ["wlog", "vev", "0:1", "0:-1"],
    ["wlog", "vev"],
    ["wlog", "jacobi", "--level", "1", "--cocycle", "closed"],
    ["fixture"],
    ["fixture", "06b-determine-b", "--json"],
    ["report", "--json"],
]


@pytest.mark.parametrize("argv", _DISPATCH_ARGVS, ids=" ".join)
def test_verb_led_argv_parses_as_through_the_top_parser(argv):
    # main() sends a verb-led argv straight to the verb's parser; the
    # namespace is the one the top parser builds, defaults included, and
    # the verb's parser holds all of it
    args = vars(_parse_args(argv))
    assert args == vars(_build_parser().parse_args(argv))
    assert {"handler", "json", "out"} <= set(args)
    assert "verb" not in args and "force_json" not in args
    if argv[0] in ("fusion", "euler-solve"):
        assert args["json"] is True
    if argv[0] == "hom-check" and "--jordan" not in argv:
        assert args["jordan"] == 2


@pytest.mark.parametrize("argv, extras", [
    (["singular", *_MODULE, "extra"], "extra"),
    (["radical", *_MODULE, "extra", "more"], "extra more"),
    (["wlog", "bracket", "1:1", "1:2", "extra"], "extra"),
    (["report", "extra"], "extra"),
])
def test_trailing_extras_are_the_top_parsers_error(capsys, argv, extras):
    assert run(capsys, *argv) == (
        1, "", f"usage: virlog [-h] VERB ...\nvirlog: error: unrecognized arguments: {extras}\n"
    )


def test_out_file(tmp_path, capsys):
    target = tmp_path / "b.txt"
    code, out, _ = run(capsys, "determine-b", "--h", "5/8", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == "5/2\n"


def test_byte_determinism(capsys):
    argv = ["det", "--level", "3", "--jordan", "2", "--symbolic", "--json"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    argv = ["fusion", "--c", "1", "--h1", "1", "--h2", "1/4"]
    assert run(capsys, *argv) == run(capsys, *argv)


def test_fixture_listing_and_single_run(capsys):
    code, out, _ = run(capsys, "fixture")
    assert code == 0
    ids = out.strip().splitlines()
    assert "01-appendix-matrix" in ids and "09f-wlog-orientation" in ids
    code, out, _ = run(capsys, "fixture", "06b-determine-b", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["provenance"] == "published"


def test_fixture_known_deviation_exits_zero(capsys):
    code, out, _ = run(capsys, "fixture", "09g-wlog-vertical-center", "--json")
    assert code == 0
    assert json.loads(out)["status"] == "known-deviation"


def test_unknown_fixture_exits_one(capsys):
    assert run(capsys, "fixture", "no-such-id")[0] == 1


def test_failing_fixture_exits_two(capsys, monkeypatch):
    def broken(fixture_id):
        return FixtureResult(fixture_id, "published", "fail", "x", "y", 0.0)

    monkeypatch.setattr("virlog.fixtures.run_fixture", broken)
    code, out, _ = run(capsys, "fixture", "01-appendix-matrix")
    assert code == 2
    assert "fail" in out


def test_report_table_layout():
    table = report_table([
        FixtureResult("01-appendix-matrix", "published", "pass", "a", "a", 0.0125),
        FixtureResult("09f-wlog-orientation", "derived", "known-deviation", "x = 1",
                      "x = -1", 1.5),
    ])
    assert table.splitlines() == [
        "fixture               provenance   status          seconds",
        "--------------------  ------------ --------------- -------",
        "01-appendix-matrix    published    pass              0.013",
        "09f-wlog-orientation  derived      known-deviation   1.500",
        "                        expected: x = 1",
        "                        computed: x = -1",
        "1 known-deviation, 1 pass",
    ]


@pytest.mark.parametrize("argv", [
    ["det", "--level", "9", "--c", "1", "--h", "1"],
    ["det", "--level", str(10**30), "--symbolic"],
    ["det", "--level", "0", "--jordan", "5", "--c", "1", "--h", "1"],
    ["det", "--level", "0", "--jordan", "1000000000", "--c", "1", "--h", "1"],
    ["shapovalov", "--level", "9", "--symbolic"],
    ["singular", "--level", "9", "--c", "1", "--h", "1"],
    ["radical", "--level", str(10**30), "--c", "1", "--h", "1"],
    ["hom-check", "--level", "9", "--c", "1", "--h", "1"],
    ["hom-check", "--level", "1", "--jordan", str(10**9), "--c", "1", "--h", "1"],
    ["fusion", "--c", "1", "--h1", "1", "--h2", "1", "--level", "9"],
    ["fusion", "--c", "1", "--h1", "1", "--h2", "1", "--level", str(10**30)],
    ["wlog", "jacobi", "--level", "5"],
    ["wlog", "jacobi", "--level", str(10**30)],
    ["wlog", "cocycle", "--", "-200000:5", "0:-2"],
    ["wlog", "cocycle", "0:0", "0:-65", "--cocycle", "closed"],
    ["wlog", "bracket", "-65:1", "0:0", "--cocycle", "residue"],
    ["wlog", "bracket", "0:1", "1:65"],
    ["wlog", "vev", "b", "0:65"],
    ["wlog", "vev", *["0:-1"] * 9],
    ["wlog", "vev", *["0:-1"] * 18],
    ["det", "--level", "4", "--jordan", "4", "--symbolic"],
    ["det", "--level", "6", "--jordan", "2", "--symbolic"],
    ["det", "--level", "8", "--jordan", "4", "--symbolic"],
    # the slowest 9-factor word a local search found, about 10 s if run
    ["wlog", "vev", "--", *"-2:64 -63:40 -40:2 -40:7 64:-1 -1:-3 1:-40 -1:-63 -2:-64".split()],
])
def test_oversized_input_exits_one(capsys, monkeypatch, argv):
    # at the cap + 1 and far above it: refused before any computation
    def never(*args, **kwargs):
        raise AssertionError("computation started")

    for name in ("JordanVermaModule", "fusion_indicial", "check_jacobi",
                 "wlog_bracket", "_cocycle_fn", "vacuum_expectation"):
        monkeypatch.setattr(f"virlog.cli.{name}", never)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert re.fullmatch(
        r"virlog: error: (--\w+|log index \|i\||mode \|m\||vev word length|symbolic rows) \d+ "
        r"is above the limit \d+\n",
        err,
    )


def test_wlog_input_at_the_cap_runs(capsys):
    code, out, _ = run(capsys, "wlog", "cocycle", "64:64", "-64:-64")
    assert (code, out) == (0, "65536\n")
    code, out, _ = run(
        capsys, "wlog", "bracket", "--cocycle", "residue", "--", "-64:64", "64:-64"
    )
    assert (code, out) == (0, "128*t^(-1)(0) + 128*t^(0)(0) - 65536*b\n")
    code, out, _ = run(capsys, "wlog", "vev", *["0:1"] * 8)
    assert (code, out) == (0, "0\n")


def test_symbolic_det_at_the_cap_runs(capsys):
    # 3 * p(4) = 15 rows, the largest symbolic det accepted
    code, out, _ = run(capsys, "det", "--level", "4", "--jordan", "3", "--symbolic", "--json")
    assert code == 0
    plain = shapovalov_determinant(JordanVermaModule("c", "h"), 4)
    assert deserialize(out, "multipoly") == plain**3


# the slowest call a sweep of these verbs found at levels 1-4 (radical at
# level 4, with 4,000-digit --c and --h) took 0.016 s on a shared 2-core
# x86-64 host, and 0.055 s in a later sweep there; the bound leaves room
# for a loaded machine
HUGE_CALL_SECONDS = 0.5
# the same at levels 5-8: the slowest (radical at level 8, jordan 1, one
# monomial table per Taylor block) took 0.35 s in that later sweep, and the
# bound has the 9-fold room 0.5 s leaves over its 0.055 s
HUGE_DEEP_CALL_SECONDS = 3.2
# the same for fusion of a 4,000-digit --h1 with h_{1,2} or h_{2,1} (0.08 s)
# and euler-solve with 4,000-digit coefficients and exponent (0.6 s, most
# of it Fraction gcds in the resonance solve and root refinement)
HUGE_WEIGHT_SECONDS = 3.0
# the same for fusion of a 2,400-4,000-digit --h1 with h_{r,s} at level rs
# 4-6, whose fusion polynomial cannot be printed: refused before root
# finding, the slowest took 0.19 s (level 6, the two descents); without the
# refusal, root finding takes 0.2-1.5 s at 2,400 digits and 0.85 s at level
# 4 with 4,000
FUSION_REFUSAL_SECONDS = 1.0
# the same for euler-solve on the degree-32 operator with the close roots
# (10^12 + k)/(10^6 + 1) and the rhs x^(1/2) log(x)^64, whose particular
# solution cannot be printed: refused when the solve reaches its first
# unprintable coefficient, it took 0.15-0.24 s; finishing the solve first
# took 9.0-11.2 s (1.1 s at log power 32)
EULER_REFUSAL_SECONDS = 1.0


@st.composite
def _huge_rationals(draw, min_digits=1):
    num, den = (draw(st.integers(min_digits, 4000).flatmap(
        lambda d: st.integers(10 ** (d - 1), 10 ** d - 1))) for _ in range(2))
    return f"{draw(st.sampled_from(['', '-']))}{num}/{den}"


def _exits_cleanly(argv, bound, stdin="") -> str:
    """Run argv in-process: exit 0, or 1 with one error line, within bound
    seconds, and canonical JSON if --json; returns stdout."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        code = main(argv)
    assert time.perf_counter() - start < bound
    assert (code, err.getvalue()) == (0, "") or (
        code == 1 and re.fullmatch(r"virlog: error: [^\n]*\n", err.getvalue()))
    text = out.getvalue()
    if code == 0 and "--json" in argv:
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    return text


@settings(max_examples=60, deadline=None)
@given(verb=st.sampled_from(["singular", "radical", "hom-check"]),
       level=st.integers(1, 8), jordan=st.integers(1, 2),
       c=_huge_rationals(), h=_huge_rationals(), as_json=st.booleans())
def test_huge_coefficients_exit_cleanly(verb, level, jordan, c, h, as_json):
    # numerators and denominators of 1-4,000 digits, below the parser's
    # 4,300-digit limit: a clean exit, quickly, and canonical JSON
    argv = [verb, "--c", c, "--h", h, "--level", str(level), "--jordan", str(jordan)]
    bound = HUGE_CALL_SECONDS if level <= 4 else HUGE_DEEP_CALL_SECONDS
    _exits_cleanly(argv + ["--json"] * as_json, bound)


@settings(max_examples=40, deadline=None)
@given(t=st.sampled_from(SWEEP_T), label=st.sampled_from([(1, 1), (1, 2), (2, 1)]),
       h1=_huge_rationals(), generic=st.one_of(st.none(), _huge_rationals()),
       with_level=st.booleans(), as_json=st.booleans())
def test_fusion_with_huge_weights_exits_cleanly(t, label, h1, generic, with_level, as_json):
    # a huge --h1 against h_{r,s}, whose level carries a singular vector,
    # or against a drawn --h2, generic but for a few small draws
    c, h2 = kac_weight(t, *label)
    argv = ["fusion", "--c", str(c), "--h1", h1, "--h2", generic or str(h2)]
    argv += ["--level", str(label[0] * label[1])] * with_level + ["--json"] * as_json
    _exits_cleanly(argv, HUGE_WEIGHT_SECONDS)


@settings(max_examples=20, deadline=None)
@given(t=st.sampled_from(SWEEP_T),
       label=st.sampled_from([(r, s) for r in range(1, 7) for s in range(1, 7)
                              if 4 <= r * s <= 6]),
       h1=_huge_rationals(min_digits=2400), as_json=st.booleans())
@example(t=Fraction(2, 3), label=(1, 4), h1="7" * 4000 + "/1" + "0" * 3999, as_json=False)
def test_unprintable_fusion_is_refused_before_root_finding(t, label, h1, as_json):
    # at these weights a coefficient of the fusion polynomial has degree 2
    # or more in --h1, so with a denominator of 2,400 digits or more it
    # cannot be printed
    assume(Fraction(h1).denominator >= 10 ** 2399)
    c, h2 = kac_weight(t, *label)
    argv = ["fusion", "--c", str(c), "--h1", h1, "--h2", str(h2),
            "--level", str(label[0] * label[1])] + ["--json"] * as_json
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < FUSION_REFUSAL_SECONDS
    assert (code, out.getvalue(), err.getvalue()) == (
        1, "", "virlog: error: a result of more than 4300 digits cannot be printed\n")


@settings(max_examples=40, deadline=None)
@given(h=_huge_rationals())
def test_determine_b_with_a_huge_weight_exits_cleanly(h):
    assert _exits_cleanly(["determine-b", "--h", h], HUGE_CALL_SECONDS) == ""


@st.composite
def _huge_euler_docs(draw):
    """An order-2 operator and a one-term rhs with 1-4,000-digit rationals,
    and sometimes an int literal above the interpreter's 4,300-digit limit
    in one field, as a rational string or a bare JSON number."""
    coeffs = [draw(_huge_rationals()) for _ in range(3)]
    doc = _euler_doc([(0, 2, coeffs[0]), (-1, 1, coeffs[1]), (-2, 0, coeffs[2])],
                     [(draw(_huge_rationals()), draw(st.integers(0, 3)), draw(_huge_rationals()))])
    if draw(st.booleans()):
        # str() refuses ints this long, so the literal is built as text
        literal = draw(st.integers(4301, 5000).map(lambda d: "7" * d))
        field = draw(st.sampled_from(["xpow", "logpower", "coeff", "exponent"]))
        value = literal if field in ("xpow", "logpower") else f'"{literal}"'
        doc = re.sub(f'"{field}": ("[^"]*"|-?\\d+)', f'"{field}": {value}', doc, count=1)
    return doc


@settings(max_examples=25, deadline=None)
@given(doc=_huge_euler_docs())
def test_euler_solve_with_huge_numbers_exits_cleanly(doc):
    _exits_cleanly(["euler-solve"], HUGE_WEIGHT_SECONDS, stdin=doc)


def _close_root_operator():
    """The degree-32 operator x^-32 sum_j a_j x^j d^j whose indicial
    polynomial has the roots (10^12 + k)/(10^6 + 1), k = 1..32: a_j is the
    j-th forward difference of q at 0 over j!."""
    roots = [Fraction(10**12 + k, 10**6 + 1) for k in range(1, 33)]
    diffs = [math.prod(s - r for r in roots) for s in range(33)]
    terms = []
    for j in range(33):
        terms.append((j - 32, j, str(diffs[0] / math.factorial(j))))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return terms


@pytest.mark.parametrize("logpower", [32, 64])
@pytest.mark.parametrize("rhs", [
    [("1/2", None, "1")],
    [("1/2", None, {"vars": ["b"], "terms": [{"coeff": "1", "exps": [1]}]})],
    # a second term at the same exponent, solved in the same triangular system
    [("1/2", None, "1"), ("1/2", 0, "1")],
], ids=["rational", "symbolic", "shared"])
def test_unprintable_euler_solution_is_refused_early(logpower, rhs):
    # None stands for the log power under test
    doc = _euler_doc(_close_root_operator(),
                     [(e, logpower if p is None else p, amp) for e, p, amp in rhs])
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO(doc)):
        code = main(["euler-solve"])
    assert time.perf_counter() - start < EULER_REFUSAL_SECONDS
    assert (code, out.getvalue(), err.getvalue()) == (
        1, "", "virlog: error: a result of more than 4300 digits cannot be printed\n")


def test_module_runner_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "virlog", "determine-b", "--h", "5/8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5/2"

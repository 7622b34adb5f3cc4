"""CLI contract: flags, JSON schema, exit codes, batch manifests."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracles
from minexp import cli
from minexp import newton as nt
from minexp import resolution as rs
from minexp.cli import EXIT_FAIL, EXIT_INPUT, EXIT_OK, REPORT_SCHEMA, main
from minexp.exponent import DegreeProfile

VALIDATOR = jsonschema.Draft202012Validator(REPORT_SCHEMA)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    report = json.loads(out)
    VALIDATOR.validate(report)
    return code, report


def test_formula_basic(capsys):
    code, report = run_json(capsys, "formula", "--n", "6", "--degrees", "2,3")
    assert code == EXIT_OK
    results = report["results"]
    assert results["minimal_exponent"] == {"num": 7, "den": 3}
    assert results["pivot"] == 2
    assert results["lct"] == {"num": 2, "den": 1}
    assert results["predicates"]["rational_singularities"] is True
    assert report["warnings"]


def test_formula_reduces_linear_equations(capsys):
    code, report = run_json(capsys, "formula", "--n", "5", "--degrees", "1,2,3")
    assert code == EXIT_OK
    results = report["results"]
    assert results["linear_shift"] == 1
    assert results["reduced"] == {"n": 4, "degrees": [2, 3]}
    assert results["minimal_exponent"] == {"num": 8, "den": 3}


def test_formula_smooth_is_infinite(capsys):
    code, report = run_json(capsys, "formula", "--n", "3", "--degrees", "1,1,1")
    assert code == EXIT_OK
    assert report["results"]["minimal_exponent"] == "infinity"
    assert report["results"]["smooth"] is True
    code, out = run(capsys, "formula", "--n", "3", "--degrees", "1,1,1")
    assert "∞" in out


def test_formula_rejects_excess_codimension(capsys):
    code = main(["formula", "--n", "2", "--degrees", "2,3,4"])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "codimension" in err


def test_text_and_json_agree_on_rationals(capsys):
    _, report = run_json(capsys, "formula", "--n", "4", "--degrees", "2,3,4")
    _, text = run(capsys, "formula", "--n", "4", "--degrees", "2,3,4")
    value = report["results"]["minimal_exponent"]
    assert f"{value['num']}/{value['den']}" in text


ZERO_POLYNOMIAL_ERROR = "input 1 is zero and defines no hypersurface"
SMOOTH_POLYNOMIAL_ERROR = (
    "input 1 has a term of total degree <= 1: the origin is not a singular point, "
    "so the bound does not apply"
)
LIMIT_ERROR = "limit must be at least 1"
NO_POLYNOMIAL_ERROR = "need at least one polynomial"
WEIGHTED_VARIABLES_ERROR = "variables apply only to polynomials"
NEWTON_VARIABLES_ERROR = "variables apply only to a polynomial"
EMPTY_VARIABLES_ERROR = "bad variables: expected a nonempty list of names"


def test_weighted_orders(capsys):
    code, report = run_json(capsys, "weighted", "--weights", "1,1,1,1", "--orders", "2,3")
    assert code == EXIT_OK
    assert report["results"]["upper_bound"] == {"num": 5, "den": 3}
    assert any("UPPER BOUND" in w for w in report["warnings"])


def test_weighted_poly(capsys):
    code, report = run_json(capsys, "weighted", "--weights", "3,2", "--poly", "x1^2+x2^3")
    assert code == EXIT_OK
    assert report["results"]["orders"] == [{"num": 6, "den": 1}]
    assert report["results"]["upper_bound"] == {"num": 5, "den": 6}


def test_weighted_trivial(capsys):
    code, report = run_json(capsys, "weighted", "--weights", "1,1", "--orders", "2")
    assert code == EXIT_OK
    assert report["results"]["upper_bound"] == {"num": 1, "den": 1}


def test_weighted_rejects_smooth_poly(capsys):
    code = main(["weighted", "--weights", "1,1", "--poly", "x1 + x2^2"])
    assert capsys.readouterr().err == f"input error: {SMOOTH_POLYNOMIAL_ERROR}\n"
    assert code == EXIT_INPUT
    code = main(["weighted", "--weights", "1,1", "--poly", "x1 - x1"])
    assert capsys.readouterr().err == f"input error: {ZERO_POLYNOMIAL_ERROR}\n"
    assert code == EXIT_INPUT


def test_weighted_count_mismatch(capsys):
    argv = ["weighted", "--weights", "1,1,1", "--poly", "x1^2+x2^3", "--vars", "x1,x2"]
    code, report = run_json(capsys, *argv)
    assert code == EXIT_INPUT
    assert report["error"] == "3 weights but 2 variables"
    # the polynomials are parsed before weighted_profile counts the weights
    code, report = run_json(capsys, "weighted", "--weights", "1,1,1", "--poly", "x1^", "--vars", "x1,x2")
    assert code == EXIT_INPUT
    assert report["error"].startswith("in 'x1^': expected integer exponent")


def test_newton_support(capsys):
    code, report = run_json(capsys, "newton", "--support", "[[2,0],[0,3]]")
    assert code == EXIT_OK
    assert report["results"]["c"] == {"num": 6, "den": 5}
    assert report["results"]["exponent"] == {"num": 5, "den": 6}


def test_newton_poly(capsys):
    code, report = run_json(
        capsys, "newton", "--poly", "x1^2+x2^2+x3^2", "--vars", "x1,x2,x3"
    )
    assert code == EXIT_OK
    assert report["results"]["c"] == {"num": 2, "den": 3}
    assert report["results"]["exponent"] == {"num": 3, "den": 2}


def test_newton_rejects_origin(capsys):
    code = main(["newton", "--support", "[[0,0],[1,2]]"])
    capsys.readouterr()
    assert code == EXIT_INPUT


def test_variables_without_a_polynomial_are_an_input_error(capsys):
    # --vars names the variables of polynomial input, so beside orders or a
    # support it is an input error, not ignored; a request with neither input
    # gets the missing-input error first
    for argv, error in [
        (["weighted", "--weights", "1,1", "--orders", "2", "--vars", "a,b"], WEIGHTED_VARIABLES_ERROR),
        (["newton", "--support", "[[2,0],[0,3]]", "--vars", "zz"], NEWTON_VARIABLES_ERROR),
        (["weighted", "--weights", "1,1", "--vars", "a,b"], "provide exactly one of: orders, polynomials"),
        (["newton", "--vars", "zz"], "provide exactly one of: support, polynomial"),
    ]:
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"input error: {error}\n")
        code, report = run_json(capsys, *argv)
        assert (code, report["error"]) == (EXIT_INPUT, error)


@pytest.mark.parametrize(
    "support", ["[[1.5,2],[0,3]]", "[[true,2],[0,3]]", '[["2",2],[0,3]]', "[[1,2],[1.0,2]]", "5", "[5]"]
)
def test_newton_rejects_bad_support(capsys, support):
    code, report = run_json(capsys, "newton", "--support", support)
    assert code == EXIT_INPUT
    assert "bad support" in report["error"]


@pytest.mark.parametrize(
    "name",
    [
        "golden_newton_reports.json",
        "golden_cli_reports.json",
        "golden_resolve_reports.json",
        "golden_scan_reports.json",
    ],
)
def test_reports_match_golden_bytes(capsys, tmp_path, name):
    # Output and exit codes recorded from earlier versions: the newton file
    # before the simplex became fraction-free (--json stdout only), the cli
    # file before flags and manifests shared one request path (text and
    # --json, stdout and stderr), the resolve file before the main and side
    # chains shared one chart builder and one blow-up loop (text and --json,
    # stdout and stderr), the scan file before the probe scanned one point
    # per line and the descent chain computed in integers (text and --json,
    # stdout and stderr).  "MANIFEST" in argv stands for the case's
    # manifest, written to a file.  Patched by hand since recording, in
    # those bytes only: a probe FAIL (exit 2) used to report "ok": true, and
    # a batch listed it as "probe: ok"; "ok" now means exit code 0, so the
    # two cli probe/batch --json entries, the cli batch text entry and the two
    # scan probe FAIL --json entries read false and FAILED there.  And the
    # cli entry "formula --n 6 --json" printed its argv error as text on
    # stderr; an argv error under --json is a JSON report once the command
    # is known, so its stdout holds that report and its stderr is empty.
    # Once verify decided its two lemmas by certificates, its two provenance
    # texts (the "note:" lines in text) were patched in its 9 entries: the
    # two cli verify entries, the verify report inside the cli batch --json
    # entry and the six scan verify entries.  Once the probe's limit bounded
    # lines rather than points, the cli --limit 10 probe entries (text and
    # --json) give "line budget exceeded: 31 lines > limit 10", and the two
    # scan entries of five variables over F_13 (30,941 lines) read PASS with
    # 371292 points checked, where they were INCONCLUSIVE.
    golden = json.loads((Path(__file__).parent / "data" / name).read_text())
    manifest = tmp_path / "manifest.json"
    for case in golden:
        if "manifest" in case:
            manifest.write_text(json.dumps(case["manifest"]))
        code = main([str(manifest) if arg == "MANIFEST" else arg for arg in case["argv"]])
        out, err = capsys.readouterr()
        assert out == case["stdout"], case["argv"]
        assert err == case.get("stderr", err), case["argv"]
        assert code == case["exit"], case["argv"]


@pytest.mark.parametrize(
    "name",
    [
        "golden_newton_reports.json",
        "golden_cli_reports.json",
        "golden_resolve_reports.json",
        "golden_scan_reports.json",
    ],
)
def test_golden_reports_are_ok_exactly_on_exit_zero(name):
    # a report's "ok" is its exit code 0; before one envelope built every
    # report, a probe FAIL (exit 2) reported "ok": true
    golden = json.loads((Path(__file__).parent / "data" / name).read_text())
    for case in golden:
        if "--json" in case["argv"] and case["stdout"]:
            report = json.loads(case["stdout"])
            assert report["ok"] == (case["exit"] == EXIT_OK), case["argv"]
            if report["command"] == "batch":
                assert report["summary"]["passed"] == sum(sub["ok"] for sub in report["reports"])


def test_resolve_cross_check(capsys):
    code, report = run_json(capsys, "resolve", "--n", "4", "--degrees", "2,3,4")
    assert code == EXIT_OK
    results = report["results"]
    assert [row["a"] for row in results["ledger"]] == [2, 3, 4]
    assert results["lower_bound"] == {"num": 5, "den": 3}
    assert results["cross_check"]["match"] is True


def test_resolve_log_resolution_mode(capsys):
    code, report = run_json(capsys, "resolve", "--n", "2", "--degrees", "2,2")
    assert code == EXIT_OK
    assert report["results"]["mode"] == "log_resolution"
    assert report["results"]["witness"] is None


def test_verify_pass(capsys):
    code, report = run_json(capsys, "verify", "--n", "3", "--degrees", "2,3", "--bound", "6")
    assert code == EXIT_OK
    assert report["results"]["passed"] is True
    assert report["results"]["branch"] == "lct"


def test_verify_fails_when_a_certificate_fails(capsys, monkeypatch):
    # neither certificate can fail on a valid profile, so a failing one is
    # patched in; the sizes of the box and the grid are still reported
    failing = rs.ValuationCertificate(6, (2, 3), rs.COMPLEMENTARY_BRANCH, Fraction(7, 3), (Fraction(1, 2),) * 2)
    assert not failing.verify()
    monkeypatch.setattr(rs, "valuation_certificate", lambda profile: failing)
    code, text = run(capsys, "verify", "--n", "6", "--degrees", "2,3")
    assert code == EXIT_FAIL
    assert "\ninequality grid: 72 tuples\nchain grid: 81 points\nFAIL\n" in text
    code, report = run_json(capsys, "verify", "--n", "6", "--degrees", "2,3")
    results = report["results"]
    assert code == EXIT_FAIL and report["ok"] is False
    assert (results["inequality_passed"], results["chain_grid"]["passed"], results["passed"]) == (False, True, False)
    assert results["counterexample"] is None
    monkeypatch.undo()
    sign_flipped = rs.chain_certificate(DegreeProfile(6, (2, 3)))._replace(signs=(1, -1))
    monkeypatch.setattr(rs, "chain_certificate", lambda profile: sign_flipped)
    code, report = run_json(capsys, "verify", "--n", "6", "--degrees", "2,3")
    results = report["results"]
    assert code == EXIT_FAIL
    assert (results["inequality_passed"], results["chain_grid"]["passed"], results["passed"]) == (True, False, False)
    assert results["chain_grid"]["first_failure"] is None


def test_verify_chain_grid_from_request(capsys, tmp_path):
    argv = ["verify", "--n", "6", "--degrees", "2,3", "--bound", "3", "--chain-step", "1", "--chain-max", "1"]
    code, report = run_json(capsys, *argv)
    assert code == EXIT_OK
    results = report["results"]
    assert results["bound"] == 3
    assert results["chain_grid"]["points"] == 4  # {0,1}^2
    path = tmp_path / "manifest.json"
    for step, maximum in [(1, 1), ("1", "1"), ("2/2", 1)]:
        entry = {"command": "verify", "n": 6, "degrees": [2, 3], "bound": 3, "chain_step": step, "chain_max": maximum}
        path.write_text(json.dumps([entry]))
        code, report = run_json(capsys, "batch", str(path))
        assert code == EXIT_OK
        assert report["reports"][0]["results"] == results
    code, report = run_json(capsys, "verify", "--n", "6", "--degrees", "2,3", "--chain-step", "3/2", "--chain-max", "3")
    assert report["results"]["chain_grid"]["step"] == {"num": 3, "den": 2}
    assert report["results"]["chain_grid"]["points"] == 9  # {0, 3/2, 3}^2


def _outputs(capsys, argv):
    """Exit code, stdout and stderr of main(argv), in text and with --json."""
    outputs = []
    for extra in ([], ["--json"]):
        code = main([*argv, *extra])
        outputs.append((code, *capsys.readouterr()))
    return outputs


def test_verify_env_override(capsys, monkeypatch, tmp_path):
    # MINEXP_SCAN_BOUNDS used to size verify's grids; only the request does now
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"command": "verify", "n": 3, "degrees": [2, 3]}]))
    requests = [["verify", "--n", "6", "--degrees", "2,3"], ["batch", str(path)]]
    plain = [_outputs(capsys, argv) for argv in requests]
    monkeypatch.setenv("MINEXP_SCAN_BOUNDS", "bound=2,chain_max=1,chain_step=1")
    assert [_outputs(capsys, argv) for argv in requests] == plain
    assert json.loads(plain[1][1][1])["reports"][0]["results"]["bound"] == 8


def test_verify_env_bad_bound(capsys, monkeypatch):
    # a bad MINEXP_SCAN_BOUNDS used to make every verify request an input
    # error; it is ignored now, and a bad bound in the request is rejected
    argv = ["verify", "--n", "6", "--degrees", "2,3"]
    plain = _outputs(capsys, argv)
    monkeypatch.setenv("MINEXP_SCAN_BOUNDS", "bound=x")
    assert _outputs(capsys, argv) == plain
    assert plain[0][0] == EXIT_OK
    assert main([*argv, "--bound", "x"]) == EXIT_INPUT
    assert capsys.readouterr().err == "input error: argument --bound: invalid int value: 'x'\n"


@pytest.mark.parametrize("bounds", ["chain_step=0", "chain_max=-1"])
def test_verify_env_bad_chain_grid(capsys, monkeypatch, tmp_path, bounds):
    # the grid MINEXP_SCAN_BOUNDS used to set, and reject, is now set and
    # rejected by the request; the variable itself is ignored
    argv = ["verify", "--n", "6", "--degrees", "2,3,4"]
    plain = _outputs(capsys, argv)
    monkeypatch.setenv("MINEXP_SCAN_BOUNDS", f"bound=40,{bounds}")
    assert _outputs(capsys, argv) == plain

    # both grids' arguments are checked before either certificate is built, bound first
    def scan(*args):
        raise AssertionError("the valuation certificate was built")

    monkeypatch.setattr(rs, "valuation_certificate", scan)
    key, value = bounds.split("=")
    path = tmp_path / "manifest.json"
    # 20 * 21^3 tuples fit the work budget, the 40 * 41^3 of bound 40 would not
    for bound, error in [(20, "chain grid parameters must be positive"), (0, "bound must be at least 1")]:
        flags = ["--bound", str(bound), "--" + key.replace("_", "-"), value]
        code, report = run_json(capsys, *argv, *flags)
        assert code == EXIT_INPUT
        assert report["error"] == error
        entry = {"command": "verify", "n": 6, "degrees": [2, 3, 4], "bound": bound, key: int(value)}
        path.write_text(json.dumps([entry]))
        code, report = run_json(capsys, "batch", str(path))
        assert code == EXIT_INPUT
        assert report["reports"][0]["error"] == f"request 0: {error}"


def test_verify_grids_over_the_budget_exit_input(capsys, monkeypatch):
    # (6; 2,3,4) is in the lct branch, so bound 31 asks for 31 * 32^3 = 1,015,808
    # tuples; the chain grid {0, 1/1000, ..., 4}^3 has 4001^3, about 6.4e10, points
    argv = ["verify", "--n", "6", "--degrees", "2,3,4"]

    def scan(*args):
        raise AssertionError("a certificate was built")

    monkeypatch.setattr(rs, "valuation_certificate", scan)
    monkeypatch.setattr(rs, "chain_certificate", scan)
    for flags, error in [
        (["--bound", "31", "--chain-max", "0"], "valuation grid exceeds the work budget of 1000000 points"),
        (["--bound", "9" * 4000, "--chain-max", "0"], "valuation grid exceeds the work budget of 1000000 points"),
        (["--chain-step", "1/1000", "--chain-max", "4"], "chain grid exceeds the work budget of 1000000 points"),
    ]:
        assert main([*argv, *flags]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"input error: {error}\n")
        code, report = run_json(capsys, *argv, *flags)
        assert (code, report["error"]) == (EXIT_INPUT, error)


def test_resolve_over_the_budget_exits_input(capsys, monkeypatch):
    # 2,100000000 would make about 10^8 blow-ups: about 1.2e11 chart entries
    error = "resolution exceeds the work budget of 100000000 chart entries"

    def charts(*args):
        raise AssertionError("a chart was built")

    monkeypatch.setattr(rs, "_start_chart", charts)
    monkeypatch.setattr(rs, "_blowup", charts)
    for degrees in ["2,100000000", "2," + "9" * 4000, ",".join(["2"] * 20_000)]:
        argv = ["resolve", "--n", "20000", "--degrees", degrees]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"input error: {error}\n")
        code, report = run_json(capsys, *argv)
        assert (code, report["error"]) == (EXIT_INPUT, error)


def test_resolve_chain_fault_is_not_an_input_error(capsys, monkeypatch):
    # a blow-up giving a = 0 is a fault of the chain, found by the ledger's
    # closed form before any ratio is read: neither an input error nor a
    # ZeroDivisionError
    blowup = rs._blowup
    monkeypatch.setattr(rs, "_blowup", lambda ideal, k, width: (0, *blowup(ideal, k, width)[1:]))
    message = r"^ledger rows \[\(2, 5\), \(0, 6\), \(0, 7\)\] != closed form \[\(2, 5\), \(3, 6\), \(4, 7\)\]$"
    with pytest.raises(rs.ResolutionError, match=message):
        main(["resolve", "--n", "6", "--degrees", "2,4"])
    assert capsys.readouterr().err == ""


def test_resolve_checks_its_budget_once(capsys, monkeypatch):
    # simulate_resolution checks the work budget before it builds a chart, and
    # run_resolve turns that check's ValueError into an input error: one check
    # per request, passing or over the budget
    calls = []
    check = rs._check_resolution_budget
    monkeypatch.setattr(rs, "_check_resolution_budget", lambda profile: calls.append(profile) or check(profile))
    for degrees, code in [("2,3", EXIT_OK), ("2,100000000", EXIT_INPUT)]:
        for json_flag in [[], ["--json"]]:
            calls.clear()
            assert main(["resolve", "--n", "6", "--degrees", degrees, *json_flag]) == code
            capsys.readouterr()
            assert len(calls) == 1, (degrees, json_flag)


# flag text that int() would accept or reject, and the error it gets now
BAD_INTEGER_FLAGS = {
    "underscore_bound": (["verify", "--n", "6", "--degrees", "2,3", "--bound", "1_0"], "argument --bound: invalid int value: '1_0'"),
    "underscore_field": (["probe", "--poly", "x1^2", "--vars", "x1", "--field", "1_3"], "argument --field: invalid int value: '1_3'"),
    "underscore_limit": (
        ["probe", "--poly", "x1^2", "--vars", "x1", "--field", "13", "--limit", " 1_0_0"],
        "argument --limit: invalid int value: ' 1_0_0'",
    ),
    "arabic_indic_n": (["formula", "--n", "\u0666", "--degrees", "2,3"], "argument --n: invalid int value: '\u0666'"),
    "arabic_indic_degrees": (
        ["formula", "--n", "6", "--degrees", "\u0662,\u0663"],
        "could not parse degrees '\u0662,\u0663' as a comma-separated integer list",
    ),
    "underscore_degree": (
        ["formula", "--n", "6", "--degrees", "2,3_0"],
        "could not parse degrees '2,3_0' as a comma-separated integer list",
    ),
    "decimal_n": (["formula", "--n", "6.0", "--degrees", "2,3"], "argument --n: invalid int value: '6.0'"),
    "letter_n": (["formula", "--n", "x", "--degrees", "2,3"], "argument --n: invalid int value: 'x'"),
}


@pytest.mark.parametrize("name", BAD_INTEGER_FLAGS)
def test_integer_flags_are_strict(capsys, name):
    # int() reads "1_0" as 10 and Arabic-Indic digits as ASCII ones
    argv, error = BAD_INTEGER_FLAGS[name]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {error}\n"


def test_integer_flags_allow_signs_and_spaces(capsys):
    code, report = run_json(capsys, "verify", "--n", " +3 ", "--degrees", " 2, 3", "--bound", "+4")
    assert code == EXIT_OK
    assert (report["results"]["n"], report["results"]["degrees"], report["results"]["bound"]) == (3, [2, 3], 4)


# each rational key: a request that is valid but for its flag, which comes
# last; a manifest entry that holds the value; the name a manifest error uses
# (a flag error names the key)
VERIFY = {"command": "verify", "n": 3, "degrees": [2, 3]}
RATIONAL_KEYS = {
    "weights": (["weighted", "--orders", "2", "--weights"], {"command": "weighted", "orders": [2]}),
    "orders": (["weighted", "--weights", "1,1", "--orders"], {"command": "weighted", "weights": [1, 1]}),
    "chain_step": (["verify", "--n", "3", "--degrees", "2,3", "--chain-step"], VERIFY),
    "chain_max": (["verify", "--n", "3", "--degrees", "2,3", "--chain-max"], VERIFY),
}


@pytest.mark.parametrize("text", ["1_0", "\u0663", "1e1", "1.5", "1/0", "1 / 2", "3/-2"])
@pytest.mark.parametrize("key", RATIONAL_KEYS)
def test_rational_text_is_strict(capsys, tmp_path, key, text):
    # Fraction() reads "1_0" and "1e1" as 10, "1.5" as 3/2 and Arabic-Indic
    # digits as ASCII ones; both input paths name the request key
    argv, entry = RATIONAL_KEYS[key]
    assert main([*argv, text]) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: could not parse {key} {text!r} as a rational number\n"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{**entry, key: [text] if key in ("weights", "orders") else text}]))
    code, report = run_json(capsys, "batch", str(path))
    assert code == EXIT_INPUT
    assert report["reports"][0]["error"] == f"request 0: could not parse {key} {text!r} as a rational number"


def test_rational_text_allows_signs_spaces_and_slashes(capsys, tmp_path):
    code, report = run_json(capsys, "weighted", "--weights", " 3/2, +1 ", "--orders", "4/2")
    assert code == EXIT_OK
    assert report["results"]["weights"] == [{"num": 3, "den": 2}, {"num": 1, "den": 1}]
    assert report["results"]["orders"] == [{"num": 2, "den": 1}]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"command": "weighted", "weights": [" 3/2", "+1 "], "orders": ["4/2"]}]))
    code, batch = run_json(capsys, "batch", str(path))
    assert code == EXIT_OK
    assert batch["reports"][0]["results"] == report["results"]


@pytest.mark.parametrize("text", ["1" * 5000, "1/" + "1" * 5000], ids=["numerator", "denominator"])
@pytest.mark.parametrize("key", RATIONAL_KEYS)
def test_rational_text_past_the_digit_limit_is_an_input_error(capsys, tmp_path, key, text):
    # int() raised the interpreter's ValueError past 4300 digits: a traceback on both paths
    argv, entry = RATIONAL_KEYS[key]
    assert main([*argv, text]) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: could not parse {key} {text!r} as a rational number\n"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{**entry, key: [1, text] if key in ("weights", "orders") else text}]))
    code, report = run_json(capsys, "batch", str(path))
    assert code == EXIT_INPUT
    assert report["reports"][0]["error"] == f"request 0: could not parse {key} {text!r} as a rational number"


# optional flags given with empty text: each is read, and rejected
EMPTY_FLAGS = {
    "chain_step": (
        ["verify", "--n", "3", "--degrees", "2,3", "--chain-step", ""],
        "could not parse chain_step '' as a rational number",
    ),
    "chain_max": (
        ["verify", "--n", "3", "--degrees", "2,3", "--chain-max", ""],
        "could not parse chain_max '' as a rational number",
    ),
    "orders": (["weighted", "--weights", "1,1", "--orders", ""], "could not parse orders '' as a rational number"),
    "support": (["newton", "--support", ""], "bad support JSON: "),
    "variables": (["newton", "--poly", "x1^2", "--vars", ""], "bad variables: variable 1 of ('',) has an empty or blank name"),
}


@pytest.mark.parametrize("name", EMPTY_FLAGS)
def test_empty_optional_flag_text_is_read(capsys, name):
    # empty text used to count as an absent flag: --chain-step "" ran the
    # default step, and --vars "" the default variable names
    argv, error = EMPTY_FLAGS[name]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {error}") if name == "support" else err == f"input error: {error}\n"


# list flag text with an empty entry: rejected, as an empty entry of a manifest list is
EMPTY_ENTRIES = {
    "degrees": (
        ["formula", "--n", "6", "--degrees"],
        None,
        "could not parse degrees {text!r} as a comma-separated integer list",
    ),
    "weights": (
        ["weighted", "--orders", "2", "--weights"],
        {"orders": [2]},
        "could not parse weights {entry!r} as a rational number",
    ),
    "orders": (
        ["weighted", "--weights", "1,1", "--orders"],
        {"weights": [1, 1]},
        "could not parse orders {entry!r} as a rational number",
    ),
}


@pytest.mark.parametrize("text", ["2,,3", "2,3,", ",2", " , 2", ","])
@pytest.mark.parametrize("key", EMPTY_ENTRIES)
def test_list_flag_text_rejects_empty_entries(capsys, tmp_path, key, text):
    # empty entries used to be dropped: --degrees "2,,3," ran as [2, 3]
    argv, request_, template = EMPTY_ENTRIES[key]
    entry = next(part for part in text.split(",") if not part.strip())
    error = template.format(text=text, entry=entry)
    assert main([*argv, text]) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {error}\n"
    if request_ is not None:  # the same list as manifest strings: the same error
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"command": "weighted", **request_, key: text.split(",")}]))
        code, report = run_json(capsys, "batch", str(path))
        assert code == EXIT_INPUT
        assert report["reports"][0]["error"] == f"request 0: {error}"


def test_non_ascii_digits_in_a_polynomial_exit_input(capsys, tmp_path):
    # the reader once took '٣' and '٢' as 3 and 2, so this ran as 3*x1^2
    text = "٣*x1^٢"
    error = f"in {text!r}: unexpected character '٣' (at position 0)"
    assert main(["newton", "--poly", text, "--vars", "x1"]) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {error}\n"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"command": "newton", "polynomial": text, "variables": ["x1"]}]))
    code, report = run_json(capsys, "batch", str(path))
    assert code == EXIT_INPUT
    assert report["reports"][0]["error"] == f"request 0: {error}"


@pytest.mark.parametrize(
    "argv",
    [["newton", "--support", "[[2,0],[0,3]]"], ["newton", "--poly", "x1^2+x2^3", "--vars", "x1,x2"]],
)
def test_newton_solves_the_simplex_once(capsys, monkeypatch, argv):
    calls = []
    solve = nt.diagonal_entry
    monkeypatch.setattr(nt, "diagonal_entry", lambda support: calls.append(1) or solve(support))
    code, report = run_json(capsys, *argv)
    assert code == EXIT_OK
    assert report["results"]["exponent"] == {"num": 5, "den": 6}
    assert calls == [1]


@pytest.mark.parametrize(
    "argv, request_",
    [
        (
            ["weighted", "--weights", "1,1", "--poly", "x1^2", "--vars", "x1,x1"],
            {"command": "weighted", "weights": [1, 1], "polynomials": ["x1^2"], "variables": ["x1", "x1"]},
        ),
        (
            ["newton", "--poly", "x1^2", "--vars", "x1,x1"],
            {"command": "newton", "polynomial": "x1^2", "variables": ["x1", "x1"]},
        ),
        (
            ["probe", "--poly", "x1^2", "--vars", "x1,x1", "--field", "3"],
            {"command": "probe", "polynomials": ["x1^2"], "variables": ["x1", "x1"], "field": 3},
        ),
    ],
)
def test_duplicate_variables_exit_input(capsys, tmp_path, argv, request_):
    code, report = run_json(capsys, *argv)
    assert code == EXIT_INPUT
    assert "duplicate variable names" in report["error"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([request_]))
    code, report = run_json(capsys, "batch", str(path))
    assert code == EXIT_INPUT
    assert "duplicate variable names" in report["reports"][0]["error"]


@pytest.mark.parametrize(
    "argv, request_, error",
    [
        (
            ["probe", "--poly", "x1^2", "--vars", "x1,,x2", "--field", "3"],
            {"command": "probe", "polynomials": ["x1^2"], "variables": ["x1", "", "x2"], "field": 3},
            "bad variables: variable 2 of ('x1', '', 'x2') has an empty or blank name",
        ),
        (
            ["newton", "--poly", "x1^2+x2^3", "--vars", "x1,"],
            {"command": "newton", "polynomial": "x1^2+x2^3", "variables": ["x1", ""]},
            "bad variables: variable 2 of ('x1', '') has an empty or blank name",
        ),
        (
            ["weighted", "--weights", "1,1", "--poly", "x1^2", "--vars", " ,x1"],
            {"command": "weighted", "weights": [1, 1], "polynomials": ["x1^2"], "variables": [" ", "x1"]},
            "bad variables: variable 1 of (' ', 'x1') has an empty or blank name",
        ),
    ],
)
def test_empty_variable_names_exit_input(capsys, tmp_path, argv, request_, error):
    # an empty name used to count as a variable: probe scanned x1, '' and x2
    # and reported FAIL, and newton said "unknown variable 'x2'"
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"input error: {error}\n"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([request_]))
    code, report = run_json(capsys, "batch", str(path))
    assert code == EXIT_INPUT
    assert report["reports"][0]["error"] == f"request 0: {error}"


def test_probe_exit_codes(capsys):
    code, report = run_json(
        capsys, "probe", "--poly", "x1^2+x2^2+x3^2", "--vars", "x1,x2,x3", "--field", "5"
    )
    assert code == EXIT_OK and report["results"]["verdict"] == "PASS"
    code, report = run_json(capsys, "probe", "--poly", "x1^2", "--vars", "x1,x2", "--field", "3")
    assert code == EXIT_FAIL and report["results"]["verdict"] == "FAIL"
    assert report["results"]["witness"]["genuine"] is True


@pytest.mark.parametrize(
    "field, message",
    [("2305843009213693951", "up to 13"), ("9", "is not prime"), ("1", "is not prime")],
)
def test_probe_field_size_errors(capsys, field, message):
    # 2^61 - 1 is prime: the size check must answer before any primality test
    code, report = run_json(capsys, "probe", "--poly", "x1^2", "--vars", "x1,x2", "--field", field)
    assert code == EXIT_INPUT
    assert message in report["error"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ["probe", "--poly", "x1^2", "--vars", "x1,x2,x3,x4,x5,x6", "--field", "3"],
            "probe supports at most 5 variables, got 6",
        ),
        (["probe", "--poly", "x1 - x1", "--vars", "x1,x2", "--field", "3"], "input 1 is zero"),
        (["weighted", "--weights", "1,1", "--orders", "0"], "orders must be positive"),
    ],
    ids=["probe_six_variables", "probe_zero_input", "weighted_zero_order"],
)
def test_library_refusals_exit_input(capsys, argv, error):
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: {error}\n")
    code, report = run_json(capsys, *argv)
    assert (code, report["error"]) == (EXIT_INPUT, error)


def test_batch_missing_manifest_exits_input(capsys, tmp_path):
    path = tmp_path / "missing.json"
    error = f"cannot read manifest: [Errno 2] No such file or directory: {str(path)!r}"
    assert main(["batch", str(path)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: {error}\n")
    code, report = run_json(capsys, "batch", str(path))
    assert (code, report["error"]) == (EXIT_INPUT, error)


@pytest.mark.parametrize("limit", ["-5", "0"])
def test_probe_rejects_limit_below_one(capsys, limit):
    # -5 used to pass as a budget: INCONCLUSIVE, "8 points > limit -5"
    argv = ["probe", "--poly", "x1^2+x2^2", "--vars", "x1,x2", "--field", "3", "--limit", limit]
    code, report = run_json(capsys, *argv)
    assert code == EXIT_INPUT
    assert report["error"] == LIMIT_ERROR


def test_importing_the_cli_leaves_argparse_out():
    # argv is read from the command table; argparse once cost a third of a formula request
    code = "import sys, minexp.cli; sys.exit('argparse' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_bad_flags_exit_input(capsys):
    assert main(["formula", "--n", "6"]) == EXIT_INPUT
    capsys.readouterr()
    assert main(["nonsense"]) == EXIT_INPUT
    capsys.readouterr()
    assert main(["formula", "--n", "6", "--degrees", "2,x"]) == EXIT_INPUT
    capsys.readouterr()


# ---------------------------------------------------------------------------
# argv: the reader against the argparse parser it replaced
#
# The argparse oracle (tests/_oracles.py) is the parser the CLI ran before.
# The reader gives the same request, or the same error text, on every argv
# but for four deliberate changes.  The test applies three of them to the
# oracle's argv before asking it: a prefix of a flag and "--flag=text" are
# unknown arguments (each stands in as an unknown "--zzNN" flag, named back
# in the error); a flag's text that starts with "-" is its text (given to
# argparse as "--flag=text"); and a single-valued flag given twice is an
# error where it stands (argparse kept the last text).  The fourth, a JSON
# report for an argv error under --json, is main's and is tested below.
# Commands are known ones: argparse's invalid-choice text differs between
# Python versions, and test_unknown_command_is_an_input_error pins the
# reader's.

_ALL_FLAGS = sorted({spec.flag for spec in oracles._KEYS.values()} | {"--json", "--help"})
_PREFIXES = sorted({flag[:k] for flag in _ALL_FLAGS for k in range(3, len(flag))} - set(_ALL_FLAGS))
_TEXTS = {
    "n": ["6", " +3 ", "x", "-2", "6.0", ""],
    "degrees": ["2,3", "2,3,4", "2,x", "", "-1,2"],
    "weights": ["1,1", "3/2, 1", "1/0", "", "-1,2"],
    "orders": ["2", "5/2", "x", ""],
    "polynomials": ["x1^2", "x1^2+x2^2", "-x1^2"],
    "polynomial": ["x1^2+x2^3", "-x1^2"],
    "variables": ["x1,x2", "x1", ""],
    "support": ["[[2,0],[0,3]]", "[", "-1"],
    "bound": ["4", "1_0", "-1"],
    "chain_step": ["1/2", "x", "-1/2"],
    "chain_max": ["2", "", "-4"],
    "field": ["5", "x", "-3"],
    "limit": ["10", "٣", "-5"],
}
# text that is no key's value, most of it starting with "-": a flag's text all the same
_ODD_TEXTS = ["--json", "-h", "--help", "--n", "--poly", "-", "- x", "--bogus", "--deg"]
_MISC = [("--json",), ("--json",), ("-h",), ("--help",), ("--bogus",), ("--bogus", "5"), ("5",), ("x", "y"), ("",)]


def _stands_in(token: str) -> bool:
    """A prefix of a flag, or "--flag=text": an unknown argument to the reader only."""
    return token.startswith("--") and ("=" in token or token in _PREFIXES)


def _argv_items(command: str):
    """The command's flags, each given or not, with text that may be bad,
    shuffled among at most three odd items."""
    keys = cli._TABLE[command][1] if command != "batch" else {}
    own = [oracles._KEYS[key].flag for key in keys]
    others = sorted({spec.flag for spec in oracles._KEYS.values()} - set(own))

    def flag_with(key, texts):
        return st.tuples(st.just(oracles._KEYS[key].flag), st.sampled_from(texts))

    base = [flag_with(key, _TEXTS[key]) if required else st.sampled_from([()]) | flag_with(key, _TEXTS[key])
            for key, required in keys.items()]
    odd = [
        st.sampled_from(_MISC),
        st.sampled_from(others).map(lambda flag: (flag, "5")),
        st.sampled_from(_PREFIXES).flatmap(lambda prefix: st.sampled_from([(prefix,), (prefix, "2,3")])),
        st.tuples(st.sampled_from([*own, "--json", "--help"]), st.sampled_from(["6", "", "2,3"])).map(
            lambda pair: ("=".join(pair),)
        ),
    ]
    if keys:
        odd += [
            st.sampled_from(list(keys)).flatmap(lambda key: flag_with(key, _TEXTS[key] + _ODD_TEXTS)),
            st.sampled_from(own).map(lambda flag: (flag,)),  # takes whatever follows, or nothing at the end
        ]
    else:  # batch: manifest paths, some of them text that argparse's rule must tell from a flag
        base.append(st.sampled_from([("m.json",), ("-",), ("- x",), ("-5",)]))
        odd.append(st.sampled_from([("n.json",), ("-1,2",)]))
    return st.tuples(st.tuples(*base), st.just([]) | st.lists(st.one_of(odd), max_size=3)).flatmap(
        lambda parts: st.permutations([item for item in parts[0] if item] + parts[1])
    ).map(lambda items: [token for item in items for token in item])


_HEADS = st.sampled_from([[]] * 6 + [["--json"], ["-h"], ["--he"], ["--bogus", "--help"], ["--json=1"]])
_ARGVS = st.tuples(
    _HEADS,
    st.sampled_from([*cli.COMMANDS, None]).flatmap(
        lambda command: st.tuples(st.just(command), _argv_items(command) if command else st.just([]))
    ),
)


def _expected(head: list[str], command: str | None, tail: list[str]):
    """The oracle's outcome on this argv with the deliberate changes made, and
    whether --json stands among the command's flags."""
    flags = {oracles._KEYS[key].flag: key for key in cli._TABLE.get(command, ("", {}))[1]}
    names: dict[str, str] = {}

    def stand_in(token):
        if not _stands_in(token):
            return token
        name = f"--zz{len(names):02d}"
        names[name] = token
        return name

    def oracle(argv):
        outcome = oracles.read_argv_by_argparse(argv)
        if outcome[0] != "error":
            return outcome
        text = outcome[1]
        for name, token in names.items():
            text = text.replace(name, token)
        return "error", text

    out = [stand_in(token) for token in head] + ([command] if command else [])
    as_json, seen, repeat = False, set(), None
    i = 0
    while i < len(tail):
        token = tail[i]
        if token in flags and i + 1 < len(tail):
            text = tail[i + 1]
            if token in seen and repeat is None and "action" not in oracles._KEYS[flags[token]].options:
                repeat = len(out), token
            seen.add(token)
            out += [f"{token}={text}"] if text.startswith("-") else [token, text]
            i += 2
        else:
            as_json |= token == "--json"
            out.append(stand_in(token))
            i += 1
    if repeat is None:
        return oracle(out), as_json
    # the repeat is an error where it stands: only an earlier error, or an earlier --help, comes first
    before = oracle(out[: repeat[0]])
    if before[0] == "help" or before[0] == "error" and before[1].startswith("argument "):
        return before, as_json
    return ("error", f"argument {repeat[1]}: may be given only once"), as_json


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_ARGVS)
def test_argv_reader_matches_argparse_but_for_the_deliberate_changes(argv_parts):
    head, (command, tail) = argv_parts
    expected, as_json = _expected(head, command, tail)
    args = cli._read_argv([*head, *([command] if command else []), *tail])
    if args.help is not None:
        assert ("help", args.command) == expected
    elif args.error is not None:
        assert ("error", args.error) == expected
        # an argv error knows its command once the command is read, and then whether --json came
        assert (args.command, args.json) == ((command, as_json) if command else (None, False))
    else:
        assert ("ok", args.command, args.json, args.request) == expected


DELIBERATE = {
    "prefix_of_a_flag": (["formula", "--n", "6", "--deg", "2,3"], "the following arguments are required: --degrees"),
    "prefix_of_json": (["formula", "--n", "6", "--degrees", "2,3", "--js"], "unrecognized arguments: --js"),
    "prefix_of_help": (["formula", "--n", "6", "--degrees", "2,3", "--he"], "unrecognized arguments: --he"),
    "flag_equals_text": (["formula", "--n=6", "--degrees", "2,3"], "the following arguments are required: --n"),
    "json_equals_text": (["formula", "--n", "6", "--degrees", "2,3", "--json=1"], "unrecognized arguments: --json=1"),
    "repeated_flag": (["formula", "--n", "6", "--n", "7", "--degrees", "2,3"], "argument --n: may be given only once"),
    "repeated_flag_before_a_bad_int": (
        ["verify", "--bound", "2", "--bound", "3", "--n", "x"],
        "argument --bound: may be given only once",
    ),
    "repeated_single_poly": (
        ["newton", "--poly", "x1^2", "--poly", "x2^2", "--vars", "x1,x2"],
        "argument --poly: may be given only once",
    ),
    "dash_text_is_read": (["weighted", "--weights", "-1,2", "--orders", "2"], "weights must be positive"),
    "flag_as_text": (["formula", "--n", "--degrees", "2,3"], "argument --n: invalid int value: '--degrees'"),
}


@pytest.mark.parametrize("name", DELIBERATE)
def test_deliberate_argv_changes(capsys, name):
    # argparse expanded --deg to --degrees and --js to --json, read --n=6,
    # kept the last of two --n, and said "expected one argument" for -1,2
    argv, error = DELIBERATE[name]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: {error}\n")


@pytest.mark.parametrize(
    "argv, error",
    [
        (["formula", "--n", "6", "--json"], "the following arguments are required: --degrees"),
        (["formula", "--json", "--n", "x", "--degrees", "2,3"], "argument --n: invalid int value: 'x'"),
        (["formula", "--n", "x", "--degrees", "2,3", "--json"], "argument --n: invalid int value: 'x'"),
        (["formula", "--n", "6", "--degrees", "2,3", "--bogus", "--json"], "unrecognized arguments: --bogus"),
        (["formula", "--n", "6", "--n", "6", "--degrees", "2,3", "--json"], "argument --n: may be given only once"),
        (["weighted", "--weights", "1,1", "--json", "--orders"], "argument --orders: expected one argument"),
        (["batch", "--json"], "the following arguments are required: manifest"),
    ],
)
def test_argv_errors_under_json_print_a_json_report(capsys, argv, error):
    # argparse's errors went to stderr as text, --json or not
    assert main(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    report = json.loads(out)
    VALIDATOR.validate(report)
    assert err == ""
    assert report == {"schema": cli.SCHEMA_VERSION, "command": argv[0], "ok": False, "error": error}


@pytest.mark.parametrize(
    "argv, error",
    [
        (["nonsense", "--json"], "argument command: invalid choice: 'nonsense' (choose from 'formula', 'weighted', "
                                 "'newton', 'resolve', 'verify', 'probe', 'batch')"),
        (["", "--json"], "argument command: invalid choice: '' (choose from 'formula', 'weighted', "
                         "'newton', 'resolve', 'verify', 'probe', 'batch')"),
        (["--json"], "the following arguments are required: command"),
        ([], "the following arguments are required: command"),
        (["--json", "formula", "--n", "6", "--degrees", "2,3"], "unrecognized arguments: --json"),
    ],
)
def test_unknown_command_is_an_input_error(capsys, argv, error):
    # without a known command, or with --json before it, there is no JSON report
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: {error}\n")


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["--bogus", "-h", "nonsense"], *([command, "--help"] for command in cli.COMMANDS),
     ["formula", "--n", "6", "-h", "--bogus"], ["probe", "-h", "--field", "x"]],
)
def test_help_is_generated_from_the_command_table(capsys, argv):
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    command = argv[0] if argv[0] in cli.COMMANDS else None
    assert out.startswith(f"usage: minexp {command or '<command>'} ")
    if command is None:
        for name in cli.COMMANDS:
            assert f"\n  {name} " in out
    elif command == "batch":
        assert "MANIFEST" in out
    else:
        help_text, keys = cli._TABLE[command]
        assert help_text in out
        usage = out.splitlines()[0]
        for key, required in keys.items():
            flag = f"{cli._KEYS[key].flag} {key.upper()}"
            assert (flag if required else f"[{flag}]") in usage


def test_batch_roundtrip(tmp_path, capsys):
    manifest = [
        {"command": "verify", "n": 3, "degrees": [2, 3], "bound": 6},
        {"command": "verify", "n": 8, "degrees": [2, 2, 3], "bound": 8},
        {"command": "formula", "n": 6, "degrees": [2, 3]},
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, report = run_json(capsys, "batch", str(path))
    assert code == EXIT_OK
    assert report["summary"] == {"total": 3, "passed": 3}
    for sub in report["reports"]:
        VALIDATOR.validate(sub)


def test_batch_propagates_failure(tmp_path, capsys):
    manifest = [
        {"command": "formula", "n": 6, "degrees": [2, 3]},
        {"command": "probe", "polynomials": ["x1^2"], "variables": ["x1", "x2"], "field": 3},
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, report = run_json(capsys, "batch", str(path))
    assert code == EXIT_FAIL
    assert report["ok"] is False
    assert report["summary"]["passed"] == 1


def test_batch_malformed_manifest(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text("{not json")
    assert main(["batch", str(path)]) == EXIT_INPUT
    capsys.readouterr()
    path.write_text(json.dumps({"command": "formula"}))
    assert main(["batch", str(path)]) == EXIT_INPUT
    capsys.readouterr()


@pytest.mark.parametrize(
    "data, error",
    [
        (b"[" * 200_000, "malformed manifest JSON: nested too deeply"),
        (b"\xff\xfe[\x00]\x00", "malformed manifest: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in "
                                "position 0: invalid start byte"),
        (b'[{"command": "formula", "n": ' + b"1" * 5000 + b', "degrees": [2]}]',
         "malformed manifest JSON: a number has too many digits"),
        (b"[1] x", "malformed manifest JSON: Extra data: line 1 column 5 (char 4)"),
    ],
    ids=["deep_nesting", "utf16_bytes", "long_integer", "extra_data"],
)
def test_malformed_manifests_end_in_a_report(capsys, tmp_path, data, error):
    # the first three ended in a RecursionError, a UnicodeDecodeError and a ValueError traceback
    path = tmp_path / "manifest.json"
    path.write_bytes(data)
    assert main(["batch", str(path)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: {error}\n")
    code, report = run_json(capsys, "batch", str(path))
    assert (code, report["error"]) == (EXIT_INPUT, error)


@pytest.mark.parametrize(
    "text, error",
    [
        ("[[1" + "0" * 5000 + ", 2]]", "bad support JSON: a number has too many digits"),
        # deeper than the C decoder's own recursion guard of any supported
        # interpreter, and still short enough for one argv string
        ("[" * 100_000, "bad support JSON: nested too deeply"),
    ],
    ids=["long_integer", "deep_nesting"],
)
def test_support_text_the_decoder_refuses_is_an_input_error(capsys, text, error):
    # --support text is decoded as a manifest is; these ended in a ValueError
    # and a RecursionError traceback, in text and --json alike
    assert main(["newton", "--support", text]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: {error}\n")
    code, report = run_json(capsys, "newton", "--support", text)
    assert (code, report["error"]) == (EXIT_INPUT, error)


@pytest.mark.parametrize(
    "support, error",
    [("[]", "bad support: support must be nonempty"), ("[[]]", "bad support: dimension must be a positive integer, got 0")],
    ids=["no_point", "empty_point"],
)
def test_empty_support_is_named(capsys, tmp_path, support, error):
    # [] read "dimension must be a positive integer, got 0": with no first
    # point its dimension was taken as 0; [[]] has a point of dimension 0
    assert main(["newton", "--support", support]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: {error}\n")
    code, report = run_json(capsys, "newton", "--support", support)
    assert (code, report["error"]) == (EXIT_INPUT, error)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"command": "newton", "support": json.loads(support)}]))
    code, report = run_json(capsys, "batch", str(path))
    assert (code, report["reports"][0]["error"]) == (EXIT_INPUT, f"request 0: {error}")


def test_text_of_a_rational_past_the_float_range(capsys):
    # (10^400 + 1)/2 has no float, and its (≈...) reading raised OverflowError;
    # the text gives the exact value alone, as --json does
    n = 10**400 + 1
    assert main(["formula", "--n", str(n), "--degrees", "2"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert f"minimal exponent = {n}/2\n" in out
    assert f"candidates = [{n}/2], pivot = 1\n" in out
    code, report = run_json(capsys, "formula", "--n", str(n), "--degrees", "2")
    assert (code, report["results"]["minimal_exponent"]) == (EXIT_OK, {"num": n, "den": 2})


def test_text_of_a_positive_rational_below_the_float_range(capsys):
    # 2/10^400 is positive, but its float underflows to 0.0, and the text
    # read "(≈0)"; the exact value is written alone, as past the float range
    weight = f"1/{10**400}"
    assert main(["weighted", "--weights", f"{weight},{weight}", "--orders", "1"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert f"UPPER BOUND = 1/{5 * 10**399}\n" in out
    assert "≈" not in out


DIGITS_ERROR = f"a result has more than {cli._DIGITS} digits, the limit of integer text"
BIG_WEIGHTS = ",".join(f"1/{10**999 + 2 * i + 1}" for i in range(6))


@pytest.mark.skipif(not cli._DIGITS, reason="this interpreter writes integers of any length")
def test_result_past_the_digit_limit_is_an_input_error(capsys, tmp_path):
    # the six weights' sum has a denominator of about 6000 digits, which
    # int.__repr__ refused with a ValueError when the report was written
    assert main(["weighted", "--weights", BIG_WEIGHTS, "--orders", "2"]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: {DIGITS_ERROR}\n")
    # six points of four coordinates of 2100 digits: the simplex's value has more than 4300
    rng = random.Random(0)
    support = [[rng.randrange(10**2099, 10**2100) for _ in range(4)] for _ in range(6)]
    code, report = run_json(capsys, "newton", "--support", json.dumps(support))
    assert (code, report["error"]) == (EXIT_INPUT, DIGITS_ERROR)
    # in a batch the entry alone is refused, and the other entry keeps its report
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([
        {"command": "weighted", "weights": BIG_WEIGHTS.split(","), "orders": [2]},
        {"command": "formula", "n": 6, "degrees": [2, 3]},
    ]))
    code, batch = run_json(capsys, "batch", str(path))
    assert (code, batch["summary"]) == (EXIT_INPUT, {"total": 2, "passed": 1})
    assert batch["reports"][0]["error"] == f"request 0: {DIGITS_ERROR}"
    assert batch["reports"][1]["results"]["minimal_exponent"] == {"num": 7, "den": 3}


PROBE = {"command": "probe", "polynomials": ["x1^2"], "variables": ["x1", "x2"], "field": 3}
BAD_REQUESTS = {
    "excess_codimension": {"command": "formula", "n": 2, "degrees": [2, 3, 4]},
    "missing_n": {"command": "formula", "degrees": [2, 3]},
    "string_n": {"command": "formula", "n": "x", "degrees": [2, 3]},
    "integral_string_n": {"command": "formula", "n": "6", "degrees": [2, 3]},
    "float_n_and_degrees": {"command": "formula", "n": 6.9, "degrees": [2.5, 3]},
    "bool_n": {"command": "formula", "n": True, "degrees": [1]},
    "string_degrees": {"command": "formula", "n": 6, "degrees": "23"},
    "bool_degree": {"command": "resolve", "n": 6, "degrees": [True, 2]},
    "int_polynomial": {"command": "newton", "polynomial": 5, "variables": ["x1"]},
    "string_bound": {"command": "verify", "n": 3, "degrees": [2, 3], "bound": "3"},
    "float_bound": {"command": "verify", "n": 3, "degrees": [2, 3], "bound": 2.9},
    "bool_bound": {"command": "verify", "n": 3, "degrees": [2, 3], "bound": True},
    "float_chain_step": {"command": "verify", "n": 3, "degrees": [2, 3], "chain_step": 0.5},
    "bool_chain_max": {"command": "verify", "n": 3, "degrees": [2, 3], "chain_max": True},
    "string_chain_step": {"command": "verify", "n": 3, "degrees": [2, 3], "chain_step": "x"},
    "list_chain_max": {"command": "verify", "n": 3, "degrees": [2, 3], "chain_max": [1]},
    "bool_weight": {"command": "weighted", "weights": [True, 1], "orders": [2]},
    "float_weight": {"command": "weighted", "weights": [1.5, 1], "orders": [2]},
    "string_polynomials": {**PROBE, "polynomials": "x1^2"},
    "string_variables": {**PROBE, "variables": "x1,x2"},
    "string_field": {**PROBE, "field": "3"},
    "weighted_string_polynomials": {"command": "weighted", "weights": [1, 1], "polynomials": "x1^2"},
    "unhashable_command": {"command": ["formula"]},
    "weighted_zero_polynomial": {"command": "weighted", "weights": [1, 1], "polynomials": ["0"]},
    "weighted_smooth_polynomial": {"command": "weighted", "weights": [1, 1], "polynomials": ["x1 + x2^2"]},
    "weighted_no_polynomials": {"command": "weighted", "weights": [1, 1], "polynomials": []},
    "negative_limit": {**PROBE, "limit": -5},
    "over_budget_bound": {"command": "verify", "n": 3, "degrees": [2, 3], "bound": 10**6},
    "over_budget_chain_step": {"command": "verify", "n": 3, "degrees": [2, 3], "chain_step": "1/1000"},
    "weighted_orders_and_variables": {"command": "weighted", "weights": [1, 1], "orders": [2], "variables": ["a", "b"]},
    "newton_support_and_variables": {"command": "newton", "support": [[2, 0], [0, 3]], "variables": ["zz"]},
    # an empty variable list used to give weighted the default names x1, x2, ...
    "weighted_empty_variables": {
        "command": "weighted", "weights": [3, 2], "polynomials": ["x1^2 + x2^3"], "variables": [],
    },
    "newton_empty_variables": {"command": "newton", "polynomial": "x1^2", "variables": []},
    "probe_empty_variables": {**PROBE, "variables": []},
    "probe_no_polynomials": {**PROBE, "polynomials": []},
    "empty_degrees": {"command": "formula", "n": 6, "degrees": []},
    "empty_orders": {"command": "weighted", "weights": [1, 1], "orders": []},
}
# the exact error of the bad requests whose text is pinned
PINNED_ERRORS = {
    "weighted_zero_polynomial": ZERO_POLYNOMIAL_ERROR,
    "weighted_smooth_polynomial": SMOOTH_POLYNOMIAL_ERROR,
    "weighted_no_polynomials": NO_POLYNOMIAL_ERROR,
    "negative_limit": LIMIT_ERROR,
    "float_chain_step": "could not parse chain_step 0.5 as a rational number",
    "bool_chain_max": "could not parse chain_max True as a rational number",
    "string_chain_step": "could not parse chain_step 'x' as a rational number",
    "list_chain_max": "could not parse chain_max [1] as a rational number",
    "over_budget_bound": "valuation grid exceeds the work budget of 1000000 points",
    "over_budget_chain_step": "chain grid exceeds the work budget of 1000000 points",
    "weighted_orders_and_variables": WEIGHTED_VARIABLES_ERROR,
    "newton_support_and_variables": NEWTON_VARIABLES_ERROR,
    "weighted_empty_variables": EMPTY_VARIABLES_ERROR,
    "newton_empty_variables": EMPTY_VARIABLES_ERROR,
    "probe_empty_variables": EMPTY_VARIABLES_ERROR,
    "probe_no_polynomials": NO_POLYNOMIAL_ERROR,
    "empty_degrees": "degree list must be nonempty",
    "empty_orders": "order list must be nonempty",
}


@pytest.mark.parametrize("name", BAD_REQUESTS)
def test_batch_bad_request_is_reported_not_fatal(tmp_path, capsys, name):
    manifest = [{"command": "formula", "n": 6, "degrees": [2, 3]}, BAD_REQUESTS[name]]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, report = run_json(capsys, "batch", str(path))
    assert code == EXIT_INPUT
    assert report["summary"] == {"total": 2, "passed": 1}
    assert report["reports"][1]["ok"] is False
    assert report["reports"][1]["error"].startswith("request 1: ")
    if name in PINNED_ERRORS:
        assert report["reports"][1]["error"] == f"request 1: {PINNED_ERRORS[name]}"


def test_batch_bad_support_is_reported_not_fatal(tmp_path, capsys):
    manifest = [
        {"command": "newton", "support": [[2, 0], [0, 3]]},
        {"command": "newton", "support": 5},
        {"command": "newton", "support": [5]},
        {"command": "newton", "support": [[1.5, 2], [0, 3]]},
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, report = run_json(capsys, "batch", str(path))
    assert code == EXIT_INPUT
    assert report["summary"]["passed"] == 1
    assert [r["ok"] for r in report["reports"]] == [True, False, False, False]


# ---------------------------------------------------------------------------
# fuzzed manifests: well-formed and malformed entries through main()
#
# Sizes stay small so that each example runs fast (verify's grids may hold
# up to a million points each within its budget): n <= 8, r <= 3, bound <= 4, a chain
# grid of at most 9 points per axis, at most three variables, fields of 3,
# 5 or 7.

_N = st.integers(1, 8)
_DEGREES = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(sorted)
_RATIONALS = st.lists(st.one_of(st.integers(1, 6), st.sampled_from(["1/2", "3/2", "5/3", "4"])), min_size=1, max_size=3)
_POLY = st.sampled_from(
    ["x1^2", "x1^2 + x2^2", "x1*x2 + x2^3", "x1^3 + x2^3 + x3^3", "2/3*x1^2 - x2^2", "x1 + x2^2", "x1^2 +", "y^2"]
)
_POLYS = st.lists(_POLY, min_size=1, max_size=2)
_NAMES = st.sampled_from([["x1"], ["x1", "x2"], ["x1", "x2", "x3"]])
_SUPPORT = st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=2), min_size=1, max_size=4)
_WRONG = st.sampled_from(["x", "3", "3/2", 2.5, True, None, [], {}, [1.5], ["a"], [[1, 0]], -1, 0])


def _entry(command, **keys):
    return st.fixed_dictionaries({"command": st.just(command), **keys})


_WELL_FORMED = st.one_of(
    _entry("formula", n=_N, degrees=_DEGREES),
    _entry("resolve", n=_N, degrees=_DEGREES),
    _entry("verify", n=_N, degrees=_DEGREES, bound=st.integers(1, 4)),
    _entry(
        "verify",
        n=_N,
        degrees=_DEGREES,
        chain_step=st.sampled_from([1, "1/2", "3/2"]),
        chain_max=st.sampled_from([0, 2, "4"]),
    ),
    _entry("weighted", weights=_RATIONALS, orders=_RATIONALS),
    _entry("weighted", weights=_RATIONALS, polynomials=_POLYS, variables=_NAMES),
    _entry("newton", support=_SUPPORT),
    _entry("newton", polynomial=_POLY, variables=_NAMES),
    _entry("probe", polynomials=_POLYS, variables=_NAMES, field=st.sampled_from([3, 5, 7])),
)


@st.composite
def _malformed(draw):
    entry = draw(_WELL_FORMED)
    key = draw(st.sampled_from(sorted(entry)))
    mutation = draw(st.sampled_from(["drop", "extra", "retype"]))
    if mutation == "drop":
        del entry[key]
    elif mutation == "extra":
        entry[draw(st.sampled_from(["bogus", "n", "bound", "chain_step", "limit", "support"]))] = draw(_WRONG)
    else:
        entry[key] = draw(_WRONG)
    return entry


_MANIFESTS = st.lists(st.one_of(_WELL_FORMED, _malformed(), _WRONG), max_size=4)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_MANIFESTS)
def test_fuzzed_manifests_keep_the_report_contract(manifest):
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        path.write_text(json.dumps(manifest))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["batch", str(path), "--json"])
    report = json.loads(out.getvalue())
    VALIDATOR.validate(report)
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_FAIL)
    assert report["summary"]["total"] == len(manifest)
    assert report["summary"]["passed"] == sum(sub["ok"] for sub in report["reports"])


@st.composite
def _manifest_bytes(draw):
    """Bytes of a fuzzed manifest with bytes overwritten, inserted or cut, or any bytes at all."""
    data = bytearray(json.dumps(draw(_MANIFESTS)).encode()) if draw(st.booleans()) else bytearray(draw(st.binary()))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["overwrite", "insert", "cut"]))
        chunk = draw(st.binary(min_size=1, max_size=3) | st.sampled_from([b"[" * 3000, b"9" * 5000, b"\xff", b"\xc3"]))
        if edit == "insert" or at == len(data):
            data[at:at] = chunk
        elif edit == "overwrite":
            data[at:at + len(chunk)] = chunk
        else:
            del data[at:at + len(chunk)]
    return bytes(data)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_manifest_bytes())
def test_fuzzed_manifest_bytes_end_in_a_report(data):
    # every file ends in a report, in text and --json, and never in a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        path.write_bytes(data)
        for extra in ([], ["--json"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["batch", str(path), *extra])
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_FAIL)
            if extra:
                VALIDATOR.validate(json.loads(out.getvalue()))
            else:
                assert out.getvalue() or err.getvalue().startswith("input error: ")


# ---------------------------------------------------------------------------
# the JSON writer: the stdlib's bytes on every JSON tree it accepts

_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€\U0001d538\ud800'), st.characters()), max_size=6)
_SCALARS = st.one_of(
    st.none(),
    st.sampled_from([True, False, 1, 0, -1]),
    st.integers(),
    st.integers(-(10**80), 10**80),
    _TEXT,
)
# the shapes the writer takes a shorter path on, and their near misses: lists of
# only ints or only strings, an int list with a bool in it, and {"num", "den"}
# dicts with ints, bools or strings and now and then an extra key
_INTEGERS = st.one_of(st.integers(), st.integers(-(10**80), 10**80))
_INT_LISTS = st.lists(_INTEGERS, min_size=1, max_size=6)
_FLAT_LISTS = st.one_of(
    _INT_LISTS,
    st.lists(_TEXT, min_size=1, max_size=6),
    st.tuples(_INT_LISTS, st.booleans(), st.integers(0, 6)).map(lambda t: t[0][: t[2]] + [t[1]] + t[0][t[2] :]),
)
_RATIONALS = st.fixed_dictionaries(
    {"num": _INTEGERS | st.booleans() | _TEXT, "den": _INTEGERS | st.booleans() | _TEXT},
    optional={"sign": _SCALARS, "nu": _SCALARS, "numer": _INTEGERS},
)
_TREES = st.recursive(
    _SCALARS | _FLAT_LISTS | _RATIONALS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=30,
)


def _nested(tree, keys):
    """The tree wrapped in one container per key, each beside an empty one:
    a list for a None key, else a dict."""
    for key in keys:
        tree = [tree, []] if key is None else {key: tree, "": {}}
    return tree


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_TREES, st.lists(st.one_of(st.none(), _TEXT), min_size=4, max_size=6))
def test_json_writer_gives_the_stdlib_bytes(tree, keys):
    for value in (tree, _nested(tree, keys)):
        assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [
        1.5, Fraction(3, 2), {"c": {"num": 0.5, "den": 1}}, [[Fraction(1)]], (1, 2), {1: 2},
        {"num": 1, "den": 2.0}, [1, 2, 3.0], ["a", 1.0], {"a": "b", "c": 1.0},
    ],
    ids=[
        "float", "fraction", "nested_float", "nested_fraction", "tuple", "int_key",
        "float_denominator", "float_in_int_list", "float_in_str_list", "float_beside_str",
    ],
)
def test_json_writer_rejects_what_no_report_holds(value):
    # reports are exact, so a float or a Fraction in one is a bug, not a value;
    # tuples and non-string keys never occur either, so nothing needs their conversion
    with pytest.raises(TypeError):
        cli._json_text(value)

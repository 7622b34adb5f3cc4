"""CLI contract: flags, JSON schema, exit codes, batch manifests."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from minexp import cli
from minexp import newton as nt
from minexp import resolution as rs
from minexp.cli import EXIT_FAIL, EXIT_INPUT, EXIT_OK, REPORT_SCHEMA, main

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
    # manifest, written to a file.
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

    # both scans' arguments are checked before either scan starts, bound first
    def scan(*args):
        raise AssertionError("the valuation scan ran")

    monkeypatch.setattr(rs, "verify_valuation_inequality", scan)
    key, value = bounds.split("=")
    path = tmp_path / "manifest.json"
    for bound, error in [(40, "chain grid parameters must be positive"), (0, "bound must be at least 1")]:
        flags = ["--bound", str(bound), "--" + key.replace("_", "-"), value]
        code, report = run_json(capsys, *argv, *flags)
        assert code == EXIT_INPUT
        assert report["error"] == error
        entry = {"command": "verify", "n": 6, "degrees": [2, 3, 4], "bound": bound, key: int(value)}
        path.write_text(json.dumps([entry]))
        code, report = run_json(capsys, "batch", str(path))
        assert code == EXIT_INPUT
        assert report["reports"][0]["error"] == f"request 0: {error}"


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


@pytest.mark.parametrize("limit", ["-5", "0"])
def test_probe_rejects_limit_below_one(capsys, limit):
    # -5 used to pass as a budget: INCONCLUSIVE, "8 points > limit -5"
    argv = ["probe", "--poly", "x1^2+x2^2", "--vars", "x1,x2", "--field", "3", "--limit", limit]
    code, report = run_json(capsys, *argv)
    assert code == EXIT_INPUT
    assert report["error"] == LIMIT_ERROR


def test_main_builds_the_parser_once(capsys, monkeypatch):
    main(["formula", "--n", "6", "--degrees", "2,3"])
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    assert main(["weighted", "--weights", "1,1", "--orders", "2"]) == EXIT_OK
    assert main(["formula", "--n", "x"]) == EXIT_INPUT
    capsys.readouterr()
    assert built == []


def test_bad_flags_exit_input(capsys):
    assert main(["formula", "--n", "6"]) == EXIT_INPUT
    capsys.readouterr()
    assert main(["nonsense"]) == EXIT_INPUT
    capsys.readouterr()
    assert main(["formula", "--n", "6", "--degrees", "2,x"]) == EXIT_INPUT
    capsys.readouterr()


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
# Sizes stay small because verify has no work budget yet (its chain grid
# alone has 9^r points by default): n <= 8, r <= 3, bound <= 4, a chain
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

"""CLI contract: flags, JSON schema, exit codes, batch manifests."""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import pytest

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
    capsys.readouterr()
    assert code == EXIT_INPUT


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


def test_newton_reports_match_golden_bytes(capsys):
    # --json text and exit codes recorded before the simplex became fraction-free
    golden = json.loads((Path(__file__).parent / "data" / "golden_newton_reports.json").read_text())
    for case in golden:
        code = main(case["argv"])
        assert capsys.readouterr().out == case["stdout"], case["argv"]
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


def test_verify_env_override(capsys, monkeypatch):
    monkeypatch.setenv("MINEXP_SCAN_BOUNDS", "bound=3,chain_max=1,chain_step=1")
    code, report = run_json(capsys, "verify", "--n", "6", "--degrees", "2,3")
    assert code == EXIT_OK
    assert report["results"]["bound"] == 3
    assert report["results"]["chain_grid"]["points"] == 4  # {0,1}^2


def test_probe_exit_codes(capsys):
    code, report = run_json(
        capsys, "probe", "--poly", "x1^2+x2^2+x3^2", "--vars", "x1,x2,x3", "--field", "5"
    )
    assert code == EXIT_OK and report["results"]["verdict"] == "PASS"
    code, report = run_json(capsys, "probe", "--poly", "x1^2", "--vars", "x1,x2", "--field", "3")
    assert code == EXIT_FAIL and report["results"]["verdict"] == "FAIL"
    assert report["results"]["witness"]["genuine"] is True


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


def test_batch_bad_request_is_reported_not_fatal(tmp_path, capsys):
    manifest = [
        {"command": "formula", "n": 6, "degrees": [2, 3]},
        {"command": "formula", "n": 2, "degrees": [2, 3, 4]},
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    code, report = run_json(capsys, "batch", str(path))
    assert code == EXIT_INPUT
    assert report["summary"]["passed"] == 1
    assert report["reports"][1]["ok"] is False


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

"""Independent checks of every report the benchmark captures.

A report must parse as JSON, validate against ``minexp.cli.REPORT_SCHEMA``,
come with the expected exit code, and carry values that this file recomputes
from the request alone with plain ``Fraction`` arithmetic.  Nothing here calls
the minexp functions under test.
"""

from __future__ import annotations

import json
from fractions import Fraction

import jsonschema


def _frac(value) -> Fraction:
    if not isinstance(value, dict) or set(value) != {"num", "den"}:
        raise ValueError(f"not an exact rational: {value!r}")
    return Fraction(value["num"], value["den"])


def candidates(n: int, degrees) -> list[Fraction]:
    """i + (n - d_1 - ... - d_i) / d_i for i = 1..r, by a plain loop."""
    values = []
    prefix = Fraction(0)
    for i, d in enumerate(degrees, 1):
        prefix += d
        values.append(i + (Fraction(n) - prefix) / d)
    return values


def _check_formula(spec: dict, results: dict, problems: list[str]) -> None:
    n, degrees = spec["n"], spec["degrees"]
    shift = degrees.count(1)
    rest = degrees[shift:]
    total = sum(degrees)
    r = len(degrees)
    if not rest:
        alpha = None
        if results["minimal_exponent"] != "infinity" or results["smooth"] is not True:
            problems.append("all-linear input must report an infinite exponent")
        expected_lct = Fraction(r)
    else:
        values = candidates(n - shift, rest)
        alpha = shift + min(values)
        if _frac(results["minimal_exponent"]) != alpha:
            problems.append(f"minimal_exponent {results['minimal_exponent']} != {alpha}")
        if [_frac(v) for v in results["candidates"]] != values:
            problems.append("candidate list differs from the recomputed one")
        prefix = 0
        pivot = len(rest)
        for i, d in enumerate(rest, 1):
            prefix += d
            if prefix > n - shift:
                pivot = i
                break
        if results["pivot"] != pivot:
            problems.append(f"pivot {results['pivot']} != {pivot}")
        expected_lct = min(alpha, Fraction(r))
    if _frac(results["lct"]) != expected_lct:
        problems.append(f"lct {results['lct']} != {expected_lct}")
    preds = results["predicates"]
    rational = total < n if rest else True
    log_canonical = total <= n if rest else True
    if (preds["rational_singularities"], preds["log_canonical"], preds["exceeds_lct"]) != (
        rational, log_canonical, rational,
    ):
        problems.append(f"predicates {preds} disagree with the degree-sum criteria")
    if results["linear_shift"] != shift:
        problems.append(f"linear_shift {results['linear_shift']} != {shift}")


def _check_weighted(spec: dict, results: dict, problems: list[str]) -> None:
    weights = spec["weights"]
    if "orders" in spec:
        orders = sorted(spec["orders"])
    else:
        orders = sorted(
            min(sum(e * w for e, w in zip(exps, weights)) for exps in support)
            for support in spec["supports"]
        )
    if [_frac(v) for v in results["orders"]] != orders:
        problems.append(f"weighted orders {results['orders']} != {orders}")
    bound = min(candidates(sum(weights), orders))
    if _frac(results["upper_bound"]) != bound:
        problems.append(f"upper_bound {results['upper_bound']} != {bound}")


def _check_newton(spec: dict, results: dict, problems: list[str]) -> None:
    support = [tuple(p) for p in spec["support"]]
    if [tuple(p) for p in results["support"]] != sorted(support):
        problems.append("reported support differs from the input support")
        return
    c = _frac(results["c"])
    weights = {tuple(entry["point"]): _frac(entry["coefficient"]) for entry in results["certificate"]}
    if set(weights) != set(support) or len(weights) != len(results["certificate"]):
        problems.append("primal certificate does not list each support point once")
        return
    if any(lam < 0 for lam in weights.values()) or sum(weights.values()) != 1:
        problems.append("primal weights are not a convex combination")
    dim = len(support[0])
    column = [sum(lam * p[i] for p, lam in weights.items()) for i in range(dim)]
    if max(column) != c:
        problems.append(f"primal point has max coordinate {max(column)}, not c = {c}")
    dual = [_frac(v) for v in results["dual"]]
    if len(dual) != dim or any(v < 0 for v in dual) or sum(dual) > 1:
        problems.append("dual vector is not nonnegative with sum at most 1")
    elif min(sum(v * e for v, e in zip(dual, p)) for p in support) != c:
        problems.append("dual certificate does not attain c on the support")
    if _frac(results["exponent"]) != 1 / c:
        problems.append(f"exponent {results['exponent']} != 1/c")


def _check_resolve(spec: dict, results: dict, problems: list[str]) -> None:
    n, degrees = spec["n"], spec["degrees"]
    alpha = min(candidates(n, degrees))
    cross = results["cross_check"]
    for label, value in (
        ("cross_check.formula", cross["formula"]),
        ("cross_check.ledger_bound", cross["ledger_bound"]),
        ("lower_bound", results["lower_bound"]),
    ):
        if _frac(value) != alpha:
            problems.append(f"{label} {value} != {alpha}")
    if cross["match"] is not True:
        problems.append("cross-check did not match")
    ledger = results["ledger"]
    if [row["a"] for row in ledger] != list(range(degrees[0], degrees[-1] + 1)):
        problems.append("ledger multiplicities are not d_1..d_r")
    ratios = [Fraction(row["k"] + 1, row["a"]) for row in ledger]
    if [_frac(row["ratio"]) for row in ledger] != ratios or min(ratios) != alpha:
        problems.append("ledger ratios do not give the exponent")
    if results["blowups"] != len(ledger):
        problems.append(f"blowups {results['blowups']} != ledger length {len(ledger)}")
    expected_mode = "log_resolution" if len(degrees) == n else "strong_factorizing"
    if results["mode"] != expected_mode or (results["witness"] is None) != (expected_mode == "log_resolution"):
        problems.append(f"mode {results['mode']} or its witness is wrong for r = {len(degrees)}, n = {n}")


def _check_verify(spec: dict, results: dict, problems: list[str]) -> None:
    n, degrees, bound = spec["n"], spec["degrees"], spec["bound"]
    r = len(degrees)
    values = candidates(n, degrees)
    lct_branch = sum(degrees) > n
    exponent = min(values) if lct_branch else values[-1]
    tuples = bound * (bound + 1) ** (r if lct_branch else r - 1)
    expected = {
        "branch": "lct" if lct_branch else "complementary",
        "bound": bound,
        "tuples_checked": tuples,
        "counterexample": None,
        "inequality_passed": True,
        "passed": True,
    }
    for key, value in expected.items():
        if results[key] != value:
            problems.append(f"{key} {results[key]!r} != {value!r}")
    if _frac(results["exponent"]) != exponent:
        problems.append(f"exponent {results['exponent']} != {exponent}")
    grid = results["chain_grid"]
    if grid["points"] != 9**r or grid["passed"] is not True or grid["first_failure"] is not None:
        problems.append(f"chain grid {grid['points']} points / passed {grid['passed']}, expected {9**r} / True")


def _check_probe(spec: dict, results: dict, problems: list[str]) -> None:
    q, nvars, d = spec["field"], spec["nvars"], spec["degree"]
    if results["field"] != q:
        problems.append(f"field {results['field']} != {q}")
    if d % q:
        if results["verdict"] != "PASS" or results["witness"] is not None:
            problems.append(f"verdict {results['verdict']}, expected PASS since {q} does not divide {d}")
        if results["points_checked"] != q**nvars - 1:
            problems.append(f"points_checked {results['points_checked']} != {q**nvars - 1}")
        return
    witness = results["witness"]
    if results["verdict"] != "FAIL" or witness is None or witness["genuine"] is not False:
        problems.append(f"expected FAIL with a non-genuine witness since {q} divides {d}")
        return
    point = witness["point"]
    value = sum(c * x**d for c, x in zip(spec["coefficients"], point))
    if not any(point) or value % q or not 1 <= results["points_checked"] <= q**nvars - 1:
        problems.append(f"witness point {point} does not vanish mod {q}")


_CHECKS = {
    "formula": _check_formula,
    "weighted": _check_weighted,
    "newton": _check_newton,
    "resolve": _check_resolve,
    "verify": _check_verify,
    "probe": _check_probe,
}


class Checker:
    """Judges one captured report against its request."""

    def __init__(self, schema: dict):
        self._validator = jsonschema.Draft202012Validator(schema)

    def check(self, request, code: int, text: str) -> list[str]:
        """Return the problems found; an empty list means the report is right."""
        problems = []
        if code != request.expect_code:
            problems.append(f"exit code {code} != expected {request.expect_code}")
        try:
            report = json.loads(text)
        except json.JSONDecodeError as err:
            return problems + [f"report is not JSON: {err}"]
        problems += [f"schema: {err.message}" for err in self._validator.iter_errors(report)]
        if problems:
            return problems
        if report["command"] != request.command:
            problems.append(f"command {report['command']!r} != {request.command!r}")
        try:
            _CHECKS[request.command](request.spec, report["results"], problems)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
            problems.append(f"malformed results: {type(err).__name__}: {err}")
        return problems


def counts(request, text: str) -> dict[str, int]:
    """Work counts a report states about itself, plus its size in bytes."""
    out = {"cli.output_bytes": len(text.encode())}
    results = json.loads(text)["results"]
    if request.command == "resolve":
        out["resolution.blowups"] = results["blowups"]
        out["resolution.vj_checks"] = len(results["vj_checks"])
    elif request.command == "verify":
        out["resolution.tuples_checked"] = results["tuples_checked"]
        out["resolution.chain_points"] = results["chain_grid"]["points"]
    elif request.command == "probe":
        out["poly.points_checked"] = results["points_checked"]
    elif request.command == "newton":
        out["newton.support_points"] = len(results["support"])
    return out

"""Command-line front end: dispatch, reporting, batch runs.

Exit codes: 0 success / all checks passed, 1 input error, 2 a verification
check failed.  Reports carry exact fractions; decimal renderings are marked
with a leading ``≈`` and never participate in any comparison.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction

from minexp import exponent as ex
from minexp import newton as nt
from minexp import poly as pl
from minexp import resolution as rs

SCHEMA_VERSION = "minexp-report/1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAIL = 2

COMMANDS = ("formula", "weighted", "newton", "resolve", "verify", "probe", "batch")

# jsonschema document for every report this tool emits (batch reports nest
# full reports under "reports").
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": SCHEMA_VERSION,
    "type": "object",
    "required": ["schema", "command", "ok"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "command": {"enum": list(COMMANDS)},
        "ok": {"type": "boolean"},
        "results": {"type": "object"},
        "reports": {"type": "array", "items": {"$ref": "#"}},
        "summary": {
            "type": "object",
            "required": ["total", "passed"],
            "properties": {
                "total": {"type": "integer", "minimum": 0},
                "passed": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "warnings": {"type": "array", "items": {"type": "string"}},
        "provenance": {"type": "array", "items": {"type": "string"}},
        "error": {"type": "string"},
    },
    "$defs": {
        "rational": {
            "type": "object",
            "required": ["num", "den"],
            "properties": {
                "num": {"type": "integer"},
                "den": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "value": {"oneOf": [{"$ref": "#/$defs/rational"}, {"const": "infinity"}]},
    },
}

HYPOTHESIS_WARNING = (
    "hypotheses attested, not verified: the inputs are assumed to form a regular "
    "sequence of homogeneous equations whose hypersurfaces are smooth away from the "
    "origin and meet with simple normal crossings"
)
UPPER_BOUND_WARNING = (
    "UPPER BOUND only: the weighted value bounds the minimal exponent from above "
    "and is not claimed to equal it"
)
NONDEGENERACY_WARNING = (
    "hypotheses attested, not verified: the reciprocal is the minimal exponent only "
    "for an isolated singularity nondegenerate with respect to its Newton polyhedron"
)
PROBE_WARNING = "a PASS is finite-field evidence, never a proof"


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# value rendering

def _rat_json(x):
    if x is ex.INFINITY:
        return "infinity"
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def _fmt(x) -> str:
    if x is ex.INFINITY:
        return "∞"
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x} (≈{float(x):.6g})"


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise InputError(f"could not parse {what} {text!r} as a comma-separated integer list")


def _parse_fraction(text, what: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"could not parse {what} {text!r} as a rational number")


def _parse_fraction_list(text: str, what: str) -> list[Fraction]:
    return [_parse_fraction(part, what) for part in text.split(",") if part.strip() != ""]


def _report(command: str, results: dict, warnings: list[str], provenance: list[str], ok=True):
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "ok": ok,
        "results": results,
        "warnings": warnings,
        "provenance": provenance,
    }


def _error_report(command: str, message: str) -> dict:
    return {"schema": SCHEMA_VERSION, "command": command, "ok": False, "error": message}


def _scan_bounds_env() -> dict:
    """Parse MINEXP_SCAN_BOUNDS, e.g. "bound=6,chain_max=2,chain_step=1"."""
    raw = os.environ.get("MINEXP_SCAN_BOUNDS", "")
    out = {}
    if not raw.strip():
        return out
    for piece in raw.split(","):
        if "=" not in piece:
            raise InputError(f"bad MINEXP_SCAN_BOUNDS entry {piece!r}; expected key=value")
        key, value = piece.split("=", 1)
        key = key.strip()
        if key == "bound":
            out[key] = int(value)
        elif key in ("chain_max", "chain_step"):
            out[key] = _parse_fraction(value.strip(), key)
        else:
            raise InputError(f"unknown MINEXP_SCAN_BOUNDS key {key!r}")
    return out


# ---------------------------------------------------------------------------
# command cores (shared by the CLI flags and the batch manifest)

def run_formula(n: int, degrees: list[int]) -> tuple[dict, int]:
    try:
        reduced = ex.normalize_degree_one(n, degrees)
    except ValueError as err:
        raise InputError(str(err))
    r_full = len(degrees)
    warnings = [HYPOTHESIS_WARNING]
    provenance = [
        "minimal exponent: minimum of the closed-form candidate sequence over the degrees",
        "lct: minimal exponent capped at the codimension",
        "predicates: derived from the exponent, cross-checked against degree sums",
    ]
    if reduced is ex.INFINITY:
        results = {
            "n": n,
            "degrees": list(degrees),
            "linear_shift": r_full,
            "minimal_exponent": "infinity",
            "smooth": True,
            "lct": _rat_json(Fraction(r_full)),
            "predicates": {
                "rational_singularities": True,
                "log_canonical": True,
                "exceeds_lct": True,
            },
        }
        return _report("formula", results, warnings, provenance), EXIT_OK
    profile, shift = reduced
    table = ex.exponent_candidates(profile.n, profile.degrees)
    alpha = shift + table.minimum
    lct = min(alpha, Fraction(r_full))
    rational = alpha > r_full
    log_canonical = alpha >= r_full
    total = sum(degrees)
    if rational != (total < n) or log_canonical != (total <= n):
        raise RuntimeError("predicate cross-check failed")  # cannot happen
    results = {
        "n": n,
        "degrees": list(degrees),
        "linear_shift": shift,
        "smooth": False,
        "minimal_exponent": _rat_json(alpha),
        "candidates": [_rat_json(v) for v in table.values],
        "pivot": table.pivot,
        "lct": _rat_json(lct),
        "predicates": {
            "rational_singularities": rational,
            "log_canonical": log_canonical,
            "exceeds_lct": rational,
        },
    }
    if shift:
        results["reduced"] = {"n": profile.n, "degrees": list(profile.degrees)}
        provenance.append(
            f"{shift} linear equation(s) removed; the exponent of the reduced cone "
            f"is shifted up by {shift}"
        )
    return _report("formula", results, warnings, provenance), EXIT_OK


def run_weighted(
    weights: list[Fraction],
    orders: list[Fraction] | None = None,
    polynomials: list[str] | None = None,
    variables: list[str] | None = None,
) -> tuple[dict, int]:
    if (orders is None) == (polynomials is None):
        raise InputError("provide exactly one of: orders, polynomials")
    if any(w <= 0 for w in weights):
        raise InputError("weights must be positive")
    results: dict = {"weights": [_rat_json(w) for w in weights]}
    if polynomials is not None:
        names = variables or [f"x{i}" for i in range(1, len(weights) + 1)]
        if len(names) != len(weights):
            raise InputError(f"{len(weights)} weights but {len(names)} variables")
        parsed = []
        for text in polynomials:
            try:
                f = pl.parse_poly(text, names)
            except pl.PolyParseError as err:
                raise InputError(f"in {text!r}: {err}")
            if f.is_zero():
                raise InputError(f"polynomial {text!r} is zero")
            if any(sum(u) < 2 for u in f.terms):
                raise InputError(
                    f"polynomial {text!r} has a term of total degree <= 1; "
                    "the bound needs a singular point at the origin"
                )
            parsed.append(f)
        orders = sorted(pl.weighted_order(f, weights) for f in parsed)
        results["polynomials"] = [str(f) for f in parsed]
    else:
        orders = sorted(orders)
    try:
        profile = ex.WeightedProfile(tuple(weights), tuple(orders))
    except ValueError as err:
        raise InputError(str(err))
    bound = ex.weighted_upper_bound(profile)
    results["orders"] = [_rat_json(d) for d in profile.orders]
    results["upper_bound"] = _rat_json(bound)
    provenance = [
        "upper bound: candidate minimum at w = total weight over the weighted orders",
    ]
    return _report("weighted", results, [UPPER_BOUND_WARNING], provenance), EXIT_OK


def run_newton(
    support: list[list[int]] | None = None,
    polynomial: str | None = None,
    variables: list[str] | None = None,
) -> tuple[dict, int]:
    if (support is None) == (polynomial is None):
        raise InputError("provide exactly one of: support, polynomial")
    if polynomial is not None:
        if not variables:
            raise InputError("a polynomial input needs its variable list")
        try:
            f = pl.parse_poly(polynomial, variables)
        except pl.PolyParseError as err:
            raise InputError(f"in {polynomial!r}: {err}")
        if f.is_zero():
            raise InputError("the zero polynomial has empty support")
        ms = nt.MonomialSupport.from_poly(f)
    else:
        if not isinstance(support, list) or not all(isinstance(p, list) for p in support):
            raise InputError(f"bad support: expected a list of integer lists, got {support!r}")
        try:
            ms = nt.MonomialSupport(len(support[0]) if support else 0, support)
        except ValueError as err:
            raise InputError(f"bad support: {err}")
    if ms.origin in ms.points:
        raise InputError("support contains the origin: not in the maximal ideal")
    result = nt.diagonal_entry(ms)
    exponent = 1 / result.c
    results = {
        "support": [list(p) for p in sorted(ms.points)],
        "c": _rat_json(result.c),
        "certificate": [
            {"point": list(p), "coefficient": _rat_json(lam)} for p, lam in result.certificate
        ],
        "dual": [_rat_json(v) for v in result.dual],
        "exponent": _rat_json(exponent),
    }
    provenance = [
        "c: least diagonal entry of the Newton polyhedron (exact simplex with certificates)",
        "exponent: reciprocal of c",
    ]
    return _report("newton", results, [NONDEGENERACY_WARNING], provenance), EXIT_OK


def run_resolve(n: int, degrees: list[int]) -> tuple[dict, int]:
    try:
        profile = ex.DegreeProfile(n, tuple(degrees))
    except ValueError as err:
        raise InputError(str(err))
    report = rs.simulate_resolution(profile)
    formula_value = ex.minimal_exponent_cone(profile)
    match = report.lower_bound == formula_value
    results = report.to_json_dict()
    results["cross_check"] = {
        "formula": _rat_json(formula_value),
        "ledger_bound": _rat_json(report.lower_bound),
        "match": match,
    }
    warnings = [HYPOTHESIS_WARNING]
    if report.mode == rs.LOG_RESOLUTION:
        warnings.append(
            "codimension equals the ambient dimension: log-resolution bookkeeping only, "
            "no factorization witness"
        )
    provenance = [
        "ledger: multiplicities and discrepancies of the scripted blow-up sequence",
        "lower bound: min over divisors of (discrepancy + 1) / multiplicity",
        "cross-check: ledger bound against the closed-form exponent",
    ]
    return _report("resolve", results, warnings, provenance), EXIT_OK if match else EXIT_FAIL


def run_verify(
    n: int,
    degrees: list[int],
    bound: int | None = None,
    chain_max: Fraction | None = None,
    chain_step: Fraction | None = None,
) -> tuple[dict, int]:
    try:
        profile = ex.DegreeProfile(n, tuple(degrees))
    except ValueError as err:
        raise InputError(str(err))
    env = _scan_bounds_env()
    bound = bound if bound is not None else env.get("bound", 8)
    chain_max = chain_max if chain_max is not None else env.get("chain_max", Fraction(4))
    chain_step = chain_step if chain_step is not None else env.get("chain_step", Fraction(1, 2))
    if bound < 1:
        raise InputError("bound must be at least 1")
    if chain_step <= 0 or chain_max < 0:
        raise InputError("chain grid parameters must be positive")

    scan = rs.verify_valuation_inequality(profile, bound)

    steps = int(chain_max / chain_step)
    axis = [i * chain_step for i in range(steps + 1)]
    chain_points = 0
    chain_failure = None
    for u in itertools.product(axis, repeat=profile.r):
        chain_points += 1
        chain = rs.descent_chain(profile, u)
        if not chain.passed:
            chain_failure = {
                "u": [_rat_json(x) for x in u],
                "chain": list(chain.chain),
                "chain_values": [_rat_json(b) for b in chain.chain_values],
            }
            break

    passed = scan.passed and chain_failure is None
    results = {
        "n": n,
        "degrees": list(degrees),
        "branch": scan.branch,
        "bound": bound,
        "exponent": _rat_json(scan.exponent),
        "tuples_checked": scan.tuples_checked,
        "counterexample": list(scan.counterexample) if scan.counterexample else None,
        "inequality_passed": scan.passed,
        "chain_grid": {
            "step": _rat_json(chain_step),
            "max": _rat_json(chain_max),
            "points": chain_points,
            "first_failure": chain_failure,
            "passed": chain_failure is None,
        },
        "passed": passed,
    }
    provenance = [
        "inequality: exhaustive integer-grid check of the divisorial valuation bound",
        "chain grid: pointwise check of the telescoping chain argument",
    ]
    return _report("verify", results, [], provenance), EXIT_OK if passed else EXIT_FAIL


def run_probe(
    polynomials: list[str], variables: list[str], field: int, limit: int = 100_000
) -> tuple[dict, int]:
    if not polynomials:
        raise InputError("need at least one polynomial")
    if not variables:
        raise InputError("need the variable list")
    fs = []
    for text in polynomials:
        try:
            fs.append(pl.parse_poly(text, variables))
        except pl.PolyParseError as err:
            raise InputError(f"in {text!r}: {err}")
    try:
        report = pl.probe_transversality(fs, field, limit)
    except ValueError as err:
        raise InputError(str(err))
    results = {
        "field": report.field_size,
        "points_checked": report.points_checked,
        "verdict": report.verdict,
        "reason": report.reason,
        "witness": None,
    }
    if report.witness is not None:
        w = report.witness
        results["witness"] = {
            "point": list(w.point),
            "vanishing": list(w.vanishing),
            "lifted_point": list(w.lifted_point),
            "genuine": w.genuine,
            "note": w.note,
        }
    warnings = [PROBE_WARNING, "the probe is advisory and never blocks a computation"]
    provenance = ["verdict: finite-field scan of smoothness + normal-crossing incidence"]
    code = EXIT_FAIL if report.verdict == "FAIL" else EXIT_OK
    return _report("probe", results, warnings, provenance), code


# ---------------------------------------------------------------------------
# batch manifests

_BATCH_KEYS = {
    "formula": {"n", "degrees"},
    "weighted": {"weights", "orders", "polynomials", "variables"},
    "newton": {"support", "polynomial", "variables"},
    "resolve": {"n", "degrees"},
    "verify": {"n", "degrees", "bound"},
    "probe": {"polynomials", "variables", "field", "limit"},
}


def _run_request(request: dict) -> tuple[dict, int]:
    if not isinstance(request, dict):
        raise InputError("each manifest entry must be an object")
    command = request.get("command")
    if command not in _BATCH_KEYS:
        raise InputError(f"unknown command {command!r} in manifest")
    extra = set(request) - _BATCH_KEYS[command] - {"command"}
    if extra:
        raise InputError(f"unknown keys {sorted(extra)} for command {command!r}")
    if command == "formula":
        return run_formula(int(request["n"]), [int(d) for d in request["degrees"]])
    if command == "weighted":
        weights = [_parse_fraction(w, "weight") for w in request["weights"]]
        orders = request.get("orders")
        if orders is not None:
            orders = [_parse_fraction(d, "order") for d in orders]
        return run_weighted(
            weights,
            orders=orders,
            polynomials=request.get("polynomials"),
            variables=request.get("variables"),
        )
    if command == "newton":
        return run_newton(
            support=request.get("support"),
            polynomial=request.get("polynomial"),
            variables=request.get("variables"),
        )
    if command == "resolve":
        return run_resolve(int(request["n"]), [int(d) for d in request["degrees"]])
    if command == "verify":
        bound = request.get("bound")
        return run_verify(
            int(request["n"]),
            [int(d) for d in request["degrees"]],
            bound=int(bound) if bound is not None else None,
        )
    if command == "probe":
        return run_probe(
            [str(p) for p in request["polynomials"]],
            [str(v) for v in request["variables"]],
            int(request["field"]),
            int(request.get("limit", 100_000)),
        )
    raise InputError(f"unhandled command {command!r}")


def run_batch(manifest_path: str) -> tuple[dict, int]:
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as err:
        raise InputError(f"cannot read manifest: {err}")
    except json.JSONDecodeError as err:
        raise InputError(f"malformed manifest JSON: {err}")
    if not isinstance(manifest, list):
        raise InputError("manifest must be a JSON array of requests")
    reports = []
    codes = []
    for i, request in enumerate(manifest):
        try:
            sub, code = _run_request(request)
        except InputError as err:
            command = request.get("command", "?") if isinstance(request, dict) else "?"
            sub, code = _error_report(str(command) if command in COMMANDS else "batch", str(err)), EXIT_INPUT
            sub["error"] = f"request {i}: {err}"
        reports.append(sub)
        codes.append(code)
    passed = sum(1 for c in codes if c == EXIT_OK)
    overall = EXIT_OK
    if any(c == EXIT_FAIL for c in codes):
        overall = EXIT_FAIL
    elif any(c == EXIT_INPUT for c in codes):
        overall = EXIT_INPUT
    report = {
        "schema": SCHEMA_VERSION,
        "command": "batch",
        "ok": overall == EXIT_OK,
        "reports": reports,
        "summary": {"total": len(reports), "passed": passed},
    }
    return report, overall


# ---------------------------------------------------------------------------
# text rendering

def _render_text(report: dict, stream) -> None:
    command = report.get("command", "?")
    print(f"command: {command}", file=stream)
    if not report.get("ok", False) and "error" in report:
        print(f"error: {report['error']}", file=stream)
        return

    def show(value):
        if value == "infinity":
            return "∞"
        if isinstance(value, dict) and set(value) == {"num", "den"}:
            return _fmt(Fraction(value["num"], value["den"]))
        return str(value)

    results = report.get("results", {})
    if command == "formula":
        print(f"n = {results['n']}, degrees = {results['degrees']}", file=stream)
        if results.get("linear_shift"):
            print(f"linear equations removed: {results['linear_shift']}", file=stream)
        if results.get("smooth"):
            print("minimal exponent = ∞ (smooth)", file=stream)
        else:
            print(f"minimal exponent = {show(results['minimal_exponent'])}", file=stream)
            cands = ", ".join(show(v) for v in results["candidates"])
            label = "candidates (reduced cone)" if results.get("linear_shift") else "candidates"
            print(f"{label} = [{cands}], pivot = {results['pivot']}", file=stream)
        print(f"lct = {show(results['lct'])}", file=stream)
        preds = results["predicates"]
        print(
            "rational singularities: {rational_singularities}; log canonical: "
            "{log_canonical}; exponent exceeds lct: {exceeds_lct}".format(**preds),
            file=stream,
        )
    elif command == "weighted":
        orders = ", ".join(show(v) for v in results["orders"])
        print(f"weighted orders = [{orders}]", file=stream)
        print(f"UPPER BOUND = {show(results['upper_bound'])}", file=stream)
    elif command == "newton":
        print(f"support = {results['support']}", file=stream)
        print(f"c = {show(results['c'])}", file=stream)
        pieces = ", ".join(
            f"{entry['point']}: {show(entry['coefficient'])}" for entry in results["certificate"]
        )
        print(f"certificate weights: {pieces}", file=stream)
        dual = ", ".join(show(v) for v in results["dual"])
        print(f"dual certificate: [{dual}]", file=stream)
        print(f"exponent = {show(results['exponent'])}", file=stream)
    elif command == "resolve":
        print(f"n = {results['n']}, degrees = {results['degrees']}, mode = {results['mode']}", file=stream)
        for step in results["trace"]:
            where = step["center"] if isinstance(step["center"], str) else ", ".join(step["center"])
            print(
                f"  blow up [{where}] -> {step['divisor']} (a={step['a']}, k={step['k']}): "
                f"{step['ideal']}",
                file=stream,
            )
        for row in results["ledger"]:
            ratio = show(row["ratio"])
            print(f"  {row['divisor']}: a = {row['a']}, k = {row['k']}, (k+1)/a = {ratio}", file=stream)
        if results.get("witness"):
            witness = results["witness"]
            residual = ", ".join(witness["residual"])
            print(f"factorization: {witness['common']} * ({residual})", file=stream)
        print(f"lower bound = {show(results['lower_bound'])}", file=stream)
        cross = results["cross_check"]
        verdict = "PASS" if cross["match"] else "FAIL"
        print(
            f"cross-check vs formula {show(cross['formula'])}: {verdict}",
            file=stream,
        )
    elif command == "verify":
        print(f"n = {results['n']}, degrees = {results['degrees']}", file=stream)
        print(
            f"branch = {results['branch']}, bound = {results['bound']}, "
            f"exponent factor = {show(results['exponent'])}",
            file=stream,
        )
        print(f"inequality grid: {results['tuples_checked']} tuples", file=stream)
        if results["counterexample"]:
            print(f"counterexample: {results['counterexample']}", file=stream)
        grid = results["chain_grid"]
        print(f"chain grid: {grid['points']} points", file=stream)
        print("PASS" if results["passed"] else "FAIL", file=stream)
    elif command == "probe":
        print(f"field = {results['field']}, points checked = {results['points_checked']}", file=stream)
        print(f"verdict: {results['verdict']}", file=stream)
        if results.get("reason"):
            print(f"reason: {results['reason']}", file=stream)
        if results.get("witness"):
            w = results["witness"]
            print(
                f"witness point {w['point']} (inputs {w['vanishing']} vanish); "
                f"lift {w['lifted_point']}; genuine: {w['genuine']}",
                file=stream,
            )
            print(f"  {w['note']}", file=stream)
    elif command == "batch":
        summary = report["summary"]
        for sub in report["reports"]:
            status = "ok" if sub.get("ok") else "FAILED"
            print(f"  {sub.get('command', '?')}: {status}", file=stream)
        print(f"batch: {summary['passed']}/{summary['total']} passed", file=stream)
    for warning in report.get("warnings", []):
        print(f"warning: {warning}", file=stream)
    for note in report.get("provenance", []):
        print(f"note: {note}", file=stream)


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="minexp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formula", help="closed-form exponent, lct and predicates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("weighted", help="weighted upper bound from orders or polynomials")
    p.add_argument("--weights", required=True)
    p.add_argument("--orders")
    p.add_argument("--poly", action="append", dest="polys")
    p.add_argument("--vars")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("newton", help="Newton polyhedron diagonal value and exponent")
    p.add_argument("--support")
    p.add_argument("--poly")
    p.add_argument("--vars")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("resolve", help="blow-up ledger, lower bound and cross-check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="brute-force valuation inequality and chain checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", required=True)
    p.add_argument("--bound", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("probe", help="finite-field transversality screen (advisory)")
    p.add_argument("--poly", action="append", dest="polys", required=True)
    p.add_argument("--vars", required=True)
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--limit", type=int, default=100_000)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("batch", help="run a JSON manifest of requests")
    p.add_argument("manifest")
    p.add_argument("--json", action="store_true")

    return parser


def _dispatch(args) -> tuple[dict, int]:
    if args.command == "formula":
        return run_formula(args.n, _parse_int_list(args.degrees, "degrees"))
    if args.command == "weighted":
        weights = _parse_fraction_list(args.weights, "weights")
        orders = _parse_fraction_list(args.orders, "orders") if args.orders else None
        variables = args.vars.split(",") if args.vars else None
        return run_weighted(weights, orders=orders, polynomials=args.polys, variables=variables)
    if args.command == "newton":
        support = None
        if args.support:
            try:
                support = json.loads(args.support)
            except json.JSONDecodeError as err:
                raise InputError(f"bad support JSON: {err}")
        variables = args.vars.split(",") if args.vars else None
        return run_newton(support=support, polynomial=args.poly, variables=variables)
    if args.command == "resolve":
        return run_resolve(args.n, _parse_int_list(args.degrees, "degrees"))
    if args.command == "verify":
        return run_verify(args.n, _parse_int_list(args.degrees, "degrees"), bound=args.bound)
    if args.command == "probe":
        return run_probe(args.polys, args.vars.split(","), args.field, args.limit)
    if args.command == "batch":
        return run_batch(args.manifest)
    raise InputError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    try:
        report, code = _dispatch(args)
    except InputError as err:
        report = _error_report(args.command, str(err))
        if getattr(args, "json", False):
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _render_text(report, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())

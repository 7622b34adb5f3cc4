"""Command-line front end: dispatch, reporting, batch runs.

Exit codes: 0 success / all checks passed, 1 input error, 2 a verification
check failed.  Reports carry exact fractions; decimal renderings are marked
with a leading ``≈`` and never participate in any comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache, partial
from typing import Callable, NamedTuple

from minexp import exponent as ex
from minexp import newton as nt
from minexp import poly as pl
from minexp import resolution as rs

SCHEMA_VERSION = "minexp-report/1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAIL = 2

# The command table: command -> (help, {request key: required}).  A request
# is a dict of "command" plus keys of that command.  Batch manifests hold
# requests as they are; the flag path turns parsed flags into one (the
# argparse dests are the request keys, and build_parser derives the flags
# from this table).  _run_request checks each value strictly (see _KEYS) and
# calls the command's core, run_<command>.
_TABLE = {
    "formula": ("closed-form exponent, lct and predicates", {"n": True, "degrees": True}),
    "weighted": (
        "weighted upper bound from orders or polynomials",
        {"weights": True, "orders": False, "polynomials": False, "variables": False},
    ),
    "newton": (
        "Newton polyhedron diagonal value and exponent",
        {"support": False, "polynomial": False, "variables": False},
    ),
    "resolve": ("blow-up ledger, lower bound and cross-check", {"n": True, "degrees": True}),
    "verify": (
        "brute-force valuation inequality and chain checks",
        {"n": True, "degrees": True, "bound": False},
    ),
    "probe": (
        "finite-field transversality screen (advisory)",
        {"polynomials": True, "variables": True, "field": True, "limit": False},
    ),
}

COMMANDS = (*_TABLE, "batch")

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


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
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
            try:
                out[key] = int(value)
            except ValueError:
                raise InputError(f"could not parse MINEXP_SCAN_BOUNDS bound {value!r} as an integer")
        elif key in ("chain_max", "chain_step"):
            out[key] = _parse_fraction(value.strip(), key)
        else:
            raise InputError(f"unknown MINEXP_SCAN_BOUNDS key {key!r}")
    return out


# ---------------------------------------------------------------------------
# request keys: the strict check of each value, and the flag that sets it

def _typed(is_item, expected: str, listed: bool = False):
    """A check that the value, or with listed=True each entry of a list value, passes is_item."""

    def check(value, key: str):
        if not (isinstance(value, list) and all(map(is_item, value)) if listed else is_item(value)):
            raise InputError(f"bad {key}: expected {expected}, got {value!r}")
        return value

    return check


_INTEGER = _typed(ex._is_int, "an integer")
_INTEGERS = _typed(ex._is_int, "a list of integers", listed=True)
_STRING = _typed(lambda v: isinstance(v, str), "a string")
_STRINGS = _typed(lambda v: isinstance(v, str), "a list of strings", listed=True)


def _rationals(value, key: str, item: str) -> list[int | Fraction]:
    """Integers and strings such as "3/2"; flag text arrives already parsed."""
    if not isinstance(value, list):
        raise InputError(f"bad {key}: expected a list of rationals, got {value!r}")
    out = []
    for v in value:
        if isinstance(v, str):
            v = _parse_fraction(v, item)
        elif not (ex._is_int(v) or isinstance(v, Fraction)):
            raise InputError(f"could not parse {item} {v!r} as a rational number")
        out.append(v)
    return out


def _support_json(text: str, key: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"bad support JSON: {err}")


class _Key(NamedTuple):
    check: Callable  # (value, key) -> the value the core gets, or InputError
    flag: str
    options: dict  # further add_argument options; a metavar names the flag, not the key
    text: Callable | None  # (flag text, key) -> request value; None: argparse converts


_KEYS = {
    "n": _Key(_INTEGER, "--n", {"type": int}, None),
    "degrees": _Key(_INTEGERS, "--degrees", {}, _parse_int_list),
    "weights": _Key(partial(_rationals, item="weight"), "--weights", {}, _parse_fraction_list),
    "orders": _Key(partial(_rationals, item="order"), "--orders", {}, _parse_fraction_list),
    "polynomials": _Key(_STRINGS, "--poly", {"action": "append", "metavar": "POLYS"}, None),
    "polynomial": _Key(_STRING, "--poly", {"metavar": "POLY"}, None),
    "variables": _Key(_STRINGS, "--vars", {"metavar": "VARS"}, lambda text, key: text.split(",")),
    # its shape is checked by run_newton, its entries by MonomialSupport
    "support": _Key(lambda value, key: value, "--support", {}, _support_json),
    "bound": _Key(_INTEGER, "--bound", {"type": int}, None),
    "field": _Key(_INTEGER, "--field", {"type": int}, None),
    "limit": _Key(_INTEGER, "--limit", {"type": int}, None),
}


# ---------------------------------------------------------------------------
# command cores (shared by the CLI flags and the batch manifest)

def _guard(fn, *args, prefix: str = ""):
    """Call a library function; the ValueError it raises on bad input becomes an InputError."""
    try:
        return fn(*args)
    except ValueError as err:
        raise InputError(f"{prefix}{err}")


def _parse_poly(text: str, variables: list[str]) -> pl.Poly:
    # a PolyParseError, or a Poly error such as duplicate variable names
    return _guard(pl.parse_poly, text, variables, prefix=f"in {text!r}: ")


def run_formula(n: int, degrees: list[int]) -> tuple[dict, int]:
    reduced = _guard(ex.normalize_degree_one, n, degrees)
    warnings = [HYPOTHESIS_WARNING]
    provenance = [
        "minimal exponent: minimum of the closed-form candidate sequence over the degrees",
        "lct: minimal exponent capped at the codimension",
        "predicates: derived from the exponent, cross-checked against degree sums",
    ]
    if reduced is ex.INFINITY:  # smooth: rational and log canonical, lct = codimension
        shift = len(degrees)
        alpha, lct, predicates = ex.INFINITY, Fraction(shift), ex.SingularityPredicates(True, True, True)
    else:
        # every degree-1 equation adds one to the exponent and to the
        # codimension, so the lct shifts with them and the predicates do not move
        profile, shift = reduced
        table = profile.table
        alpha, lct = shift + table.minimum, shift + ex.lct_cone(profile)
        predicates = ex.singularity_predicates(profile)
    results = {
        "n": n,
        "degrees": list(degrees),
        "linear_shift": shift,
        "smooth": reduced is ex.INFINITY,
        "minimal_exponent": _rat_json(alpha),
        "lct": _rat_json(lct),
        "predicates": dict(vars(predicates)),
    }
    if reduced is not ex.INFINITY:
        results["candidates"] = [_rat_json(v) for v in table.values]
        results["pivot"] = table.pivot
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
    results: dict = {"weights": [_rat_json(w) for w in weights]}
    if polynomials is not None:
        names = variables or [f"x{i}" for i in range(1, len(weights) + 1)]
        parsed = [_parse_poly(text, names) for text in polynomials]
        profile = _guard(pl.weighted_profile, parsed, weights)
        results["polynomials"] = [str(f) for f in parsed]
    else:
        profile = _guard(ex.WeightedProfile, tuple(weights), tuple(sorted(orders)))
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
        ms = _guard(nt.MonomialSupport.from_poly, _parse_poly(polynomial, variables))
    else:
        if not isinstance(support, list) or not all(isinstance(p, list) for p in support):
            raise InputError(f"bad support: expected a list of integer lists, got {support!r}")
        ms = _guard(nt.MonomialSupport, len(support[0]) if support else 0, support, prefix="bad support: ")
    result, exponent = _guard(nt.newton_diagonal, ms)
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
    profile = _guard(ex.DegreeProfile, n, tuple(degrees))
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


def run_verify(n: int, degrees: list[int], bound: int | None = None) -> tuple[dict, int]:
    profile = _guard(ex.DegreeProfile, n, tuple(degrees))
    env = _scan_bounds_env()
    bound = bound if bound is not None else env.get("bound", 8)
    chain_max = env.get("chain_max", Fraction(4))
    chain_step = env.get("chain_step", Fraction(1, 2))
    # both scans' arguments are checked before either scan starts
    _guard(rs._check_scan_bound, bound)
    _guard(rs._check_chain_grid, chain_step, chain_max)
    scan = rs.verify_valuation_inequality(profile, bound)
    chain_points, failure = rs.descent_chain_grid(profile, chain_step, chain_max)
    chain_failure = None if failure is None else {
        "u": [_rat_json(x) for x in failure.u],
        "chain": list(failure.chain),
        "chain_values": [_rat_json(b) for b in failure.chain_values],
    }

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
    if not variables:
        raise InputError("need the variable list")
    fs = [_parse_poly(text, variables) for text in polynomials]
    report = _guard(pl.probe_transversality, fs, field, limit)
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
# requests and batch manifests

def _run_request(request) -> tuple[dict, int]:
    """Check one request against the command table and run its core."""
    if not isinstance(request, dict):
        raise InputError("each manifest entry must be an object")
    command = request.get("command")
    if not isinstance(command, str) or command not in _TABLE:
        raise InputError(f"unknown command {command!r} in manifest")
    keys = _TABLE[command][1]
    extra = set(request) - set(keys) - {"command"}
    if extra:
        raise InputError(f"unknown keys {sorted(extra)} for command {command!r}")
    kwargs = {}
    for key, required in keys.items():
        value = request.get(key)
        if value is not None:
            kwargs[key] = _KEYS[key].check(value, key)
        elif required:
            raise InputError(f"missing key {key!r} for command {command!r}")
    # looked up at call time, so a wrapper installed on cli.run_* sees the call
    return globals()[f"run_{command}"](**kwargs)


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
            command = request.get("command") if isinstance(request, dict) else None
            sub = _error_report(command if command in COMMANDS else "batch", f"request {i}: {err}")
            code = EXIT_INPUT
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command, built on first use and then
    shared by every call of :func:`main` in the process."""
    parser = _Parser(prog="minexp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys) in _TABLE.items():
        p = sub.add_parser(command, help=help_text)
        for key, required in keys.items():
            p.add_argument(_KEYS[key].flag, dest=key, required=required, **_KEYS[key].options)
        p.add_argument("--json", action="store_true")
    p = sub.add_parser("batch", help="run a JSON manifest of requests")
    p.add_argument("manifest")
    p.add_argument("--json", action="store_true")
    return parser


def _flag_request(args) -> dict:
    """The request of parsed flags.  Flag text that holds a list or JSON is
    read here; such a flag that is optional and empty counts as absent."""
    request = {"command": args.command}
    for key, required in _TABLE[args.command][1].items():
        value, text = getattr(args, key), _KEYS[key].text
        if text is not None:
            value = text(value, key) if value or required else None
        request[key] = value
    return request


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.command == "batch":
            report, code = run_batch(args.manifest)
        else:
            report, code = _run_request(_flag_request(args))
    except InputError as err:
        report, code = _error_report(args.command, str(err)), EXIT_INPUT
        if not args.json:
            print(f"input error: {err}", file=sys.stderr)
            return code
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _render_text(report, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())

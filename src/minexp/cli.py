"""Command-line front end: argv, dispatch, reporting, batch runs.

Argv is ``<command> --flag text ... [--json]`` or ``batch <manifest>
[--json]``; the flags of each command come from the command table, and
``-h``/``--help`` prints help generated from it.  Exit codes: 0 success /
all checks passed, 1 input error, 2 a verification check failed.  Reports
carry exact fractions; decimal renderings are marked with a leading ``≈``
and never participate in any comparison.  The resolve report's trace,
ledger and blow-up count are read from one record per divisor, the
library's ledger row.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_string
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
# requests as they are; _read_argv builds one from argv, reading each key's
# flag and text through _KEYS, and generates --help from this table.
# _run_request checks each value strictly (see _KEYS) and calls the
# command's core, run_<command>.
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
        "valuation inequality and descent chain, decided by certificates",
        {"n": True, "degrees": True, "bound": False, "chain_step": False, "chain_max": False},
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
# reports and values

def _report(command: str, code: int, **fields) -> tuple[dict, int]:
    """Every report: the envelope around a command's fields, and its exit code.
    A report is ok exactly when its exit code is EXIT_OK."""
    return {"schema": SCHEMA_VERSION, "command": command, "ok": code == EXIT_OK, **fields}, code


# The interpreter writes no integer of more digits than its limit (0: none;
# releases before 3.10.7 have none), so no exact value of a report may have one.
_DIGITS = getattr(sys, "get_int_max_str_digits", int)()
_TOO_BIG = 10**_DIGITS if _DIGITS else math.inf


def _rat_json(x):
    """The one writer of an exact value in a report: {"num", "den"}, or
    "infinity".  A value whose numerator or denominator has more digits than
    the interpreter writes is an input error."""
    if x is ex.INFINITY:
        return "infinity"
    x = ex._as_fraction(x)
    num, den = x.numerator, x.denominator
    if abs(num) >= _TOO_BIG or den >= _TOO_BIG:
        raise InputError(f"a result has more than {_DIGITS} digits, the limit of integer text")
    return {"num": num, "den": den}


def _json_text(value, indent: str = "\n") -> str:
    """The one JSON writer: the text of json.dumps(value, indent=2,
    sort_keys=True), with strings escaped to ASCII by the stdlib's C encoder.
    (Given an indent, the stdlib encodes in pure Python.)  It writes str,
    dict with str keys, list, int, bool and None, and raises TypeError on
    anything else, such as a float or a Fraction: reports are exact.

    Three shapes that reports are made of skip the general recursion: a list
    of only ints (not bools) or only strings, a {"den", "num"} dict of two
    ints, and a str or int value in a dict."""
    kind = type(value)
    if kind is str:
        return _json_string(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        if len(value) == 2 and "num" in value and "den" in value:
            num, den = value["num"], value["den"]
            if type(num) is int and type(den) is int:
                return f'{{{inner}"den": {int.__repr__(den)},{inner}"num": {int.__repr__(num)}{indent}}}'
        items = []
        for key, item in sorted(value.items()):
            item_kind = type(item)
            if item_kind is str:
                text = _json_string(item)
            elif item_kind is int:
                text = int.__repr__(item)
            else:
                text = _json_text(item, inner)
            items.append(f"{_json_string(key)}: {text}")
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        kinds = {*map(type, value)}
        if kinds == {int}:
            texts = map(int.__repr__, value)
        elif kinds == {str}:
            texts = map(_json_string, value)
        else:
            texts = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(texts) + indent + "]"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _show(value: dict) -> str:
    """The text of a rational that _rat_json wrote, with a decimal reading
    when it is not an integer and its float is finite and nonzero."""
    num, den = value["num"], value["den"]
    if den == 1:
        return str(num)
    try:
        reading = num / den
    except OverflowError:
        return f"{num}/{den}"
    # den != 1, so num != 0: a reading of 0 is an underflow, dropped as an overflow is
    return f"{num}/{den} (≈{reading:.6g})" if reading else f"{num}/{den}"


_INT_TEXT = re.compile(r"[+-]?[0-9]+")
_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_int(text: str) -> int:
    """Integer flag text: an optional sign and ASCII digits, with surrounding
    whitespace.  Unlike int(), it rejects underscores and non-ASCII digits.
    Like int(), it raises ValueError past the interpreter's digit limit."""
    text = text.strip()
    if not _INT_TEXT.fullmatch(text):
        raise ValueError(f"invalid integer text {text!r}")
    return int(text)


def _parse_int_flag(text: str, key: str) -> int:
    try:
        return _parse_int(text)
    except ValueError:
        raise InputError(f"argument {_KEYS[key].flag}: invalid int value: {text!r}")


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [_parse_int(part) for part in text.split(",")]
    except ValueError:
        raise InputError(f"could not parse {what} {text!r} as a comma-separated integer list")


def _parse_fraction(text: str, what: str) -> Fraction:
    """Rational text, as a polynomial coefficient is written: an optional sign,
    ASCII digits, optionally "/" and ASCII digits, with surrounding whitespace.
    Unlike Fraction(), it rejects underscores, non-ASCII digits, exponents and
    decimal points."""
    match = _RATIONAL_TEXT.fullmatch(text.strip())
    try:
        if match:
            return Fraction(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError):  # past int()'s digit limit, or a zero denominator
        pass
    raise InputError(f"could not parse {what} {text!r} as a rational number")


def _parse_fraction_list(text: str, what: str) -> list[Fraction]:
    return [_parse_fraction(part, what) for part in text.split(",")]


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


def _names(value, key: str) -> list[str]:
    """A nonempty list of variable names, none of them empty or blank."""
    if not _STRINGS(value, key):
        raise InputError(f"bad {key}: expected a nonempty list of names")
    _guard(pl._check_names, tuple(value), prefix=f"bad {key}: ")
    return value


def _rational(value, what: str) -> int | Fraction:
    """An integer or a string such as "3/2"; flag text arrives already parsed."""
    if isinstance(value, str):
        return _parse_fraction(value, what)
    if not (ex._is_int(value) or isinstance(value, Fraction)):
        raise InputError(f"could not parse {what} {value!r} as a rational number")
    return value


def _rationals(value, key: str) -> list[int | Fraction]:
    if not isinstance(value, list):
        raise InputError(f"bad {key}: expected a list of rationals, got {value!r}")
    return [_rational(v, key) for v in value]


def _json_loads(text: str, prefix: str):
    """Decoded JSON text; text that is no JSON, holds a number past the
    interpreter's digit limit or nests too deeply is an InputError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(f"{prefix}{err}")
    except ValueError:  # int() refuses a number past the interpreter's digit limit
        raise InputError(f"{prefix}a number has too many digits")
    except RecursionError:
        raise InputError(f"{prefix}nested too deeply")


def _verbatim(value, key: str):
    return value


class _Key(NamedTuple):
    check: Callable  # (value, key) -> the value the core gets, or InputError
    flag: str
    text: Callable  # (flag text, key) -> request value, or InputError
    repeats: bool = False  # the flag may repeat, and its texts form the value's list


_KEYS = {
    "n": _Key(_INTEGER, "--n", _parse_int_flag),
    "degrees": _Key(_INTEGERS, "--degrees", _parse_int_list),
    "weights": _Key(_rationals, "--weights", _parse_fraction_list),
    "orders": _Key(_rationals, "--orders", _parse_fraction_list),
    "polynomials": _Key(_STRINGS, "--poly", _verbatim, repeats=True),
    "polynomial": _Key(_STRING, "--poly", _verbatim),
    "variables": _Key(_names, "--vars", lambda text, key: text.split(",")),
    # its shape is checked by run_newton, its entries by MonomialSupport
    "support": _Key(_verbatim, "--support", lambda text, key: _json_loads(text, "bad support JSON: ")),
    "bound": _Key(_INTEGER, "--bound", _parse_int_flag),
    "chain_step": _Key(_rational, "--chain-step", _parse_fraction),
    "chain_max": _Key(_rational, "--chain-max", _parse_fraction),
    "field": _Key(_INTEGER, "--field", _parse_int_flag),
    "limit": _Key(_INTEGER, "--limit", _parse_int_flag),
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
    shift, profile, alpha, lct, predicates = _guard(ex.cone_formula, n, degrees)
    provenance = [
        "minimal exponent: minimum of the closed-form candidate sequence over the degrees",
        "lct: minimal exponent capped at the codimension",
        "predicates: derived from the exponent, cross-checked against degree sums",
    ]
    results = {
        "n": n,
        "degrees": list(degrees),
        "linear_shift": shift,
        "smooth": profile is None,
        "minimal_exponent": _rat_json(alpha),
        "lct": _rat_json(lct),
        "predicates": predicates._asdict(),
    }
    if profile is not None:
        results["candidates"] = [_rat_json(v) for v in profile.table.values]
        results["pivot"] = profile.table.pivot
        if shift:
            results["reduced"] = {"n": profile.n, "degrees": list(profile.degrees)}
            provenance.append(
                f"{shift} linear equation(s) removed; the exponent of the reduced cone "
                f"is shifted up by {shift}"
            )
    return _report("formula", EXIT_OK, results=results, warnings=[HYPOTHESIS_WARNING], provenance=provenance)


def _text_formula(results: dict):
    yield f"n = {results['n']}, degrees = {results['degrees']}"
    if results["linear_shift"]:
        yield f"linear equations removed: {results['linear_shift']}"
    if results["smooth"]:
        yield "minimal exponent = ∞ (smooth)"
    else:
        yield f"minimal exponent = {_show(results['minimal_exponent'])}"
        cands = ", ".join(map(_show, results["candidates"]))
        label = "candidates (reduced cone)" if results["linear_shift"] else "candidates"
        yield f"{label} = [{cands}], pivot = {results['pivot']}"
    yield f"lct = {_show(results['lct'])}"
    yield (
        "rational singularities: {rational_singularities}; log canonical: "
        "{log_canonical}; exponent exceeds lct: {exceeds_lct}".format(**results["predicates"])
    )


def run_weighted(
    weights: list[Fraction],
    orders: list[Fraction] | None = None,
    polynomials: list[str] | None = None,
    variables: list[str] | None = None,
) -> tuple[dict, int]:
    if (orders is None) == (polynomials is None):
        raise InputError("provide exactly one of: orders, polynomials")
    if variables is not None and polynomials is None:
        raise InputError("variables apply only to polynomials")
    results: dict = {"weights": [_rat_json(w) for w in weights]}
    if polynomials is not None:
        names = [f"x{i}" for i in range(1, len(weights) + 1)] if variables is None else variables
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
    return _report(
        "weighted", EXIT_OK, results=results, warnings=[UPPER_BOUND_WARNING], provenance=provenance
    )


def _text_weighted(results: dict):
    yield f"weighted orders = [{', '.join(map(_show, results['orders']))}]"
    yield f"UPPER BOUND = {_show(results['upper_bound'])}"


def run_newton(
    support: list[list[int]] | None = None,
    polynomial: str | None = None,
    variables: list[str] | None = None,
) -> tuple[dict, int]:
    if (support is None) == (polynomial is None):
        raise InputError("provide exactly one of: support, polynomial")
    if variables is not None and polynomial is None:
        raise InputError("variables apply only to a polynomial")
    if polynomial is not None:
        if variables is None:
            raise InputError("a polynomial input needs its variable list")
        ms = _guard(nt.MonomialSupport.from_poly, _parse_poly(polynomial, variables))
    else:
        if not isinstance(support, list) or not all(isinstance(p, list) for p in support):
            raise InputError(f"bad support: expected a list of integer lists, got {support!r}")
        n = len(support[0]) if support else 1  # no first point: the library names the empty support
        ms = _guard(nt.MonomialSupport, n, support, prefix="bad support: ")
    result, exponent = _guard(nt.newton_diagonal, ms)
    results = {
        "support": [list(p) for p, _ in result.certificate],  # sorted by diagonal_entry
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
    return _report(
        "newton", EXIT_OK, results=results, warnings=[NONDEGENERACY_WARNING], provenance=provenance
    )


def _text_newton(results: dict):
    yield f"support = {results['support']}"
    yield f"c = {_show(results['c'])}"
    pieces = ", ".join(f"{entry['point']}: {_show(entry['coefficient'])}" for entry in results["certificate"])
    yield f"certificate weights: {pieces}"
    yield f"dual certificate: [{', '.join(map(_show, results['dual']))}]"
    yield f"exponent = {_show(results['exponent'])}"


def run_resolve(n: int, degrees: list[int]) -> tuple[dict, int]:
    profile = _guard(ex.DegreeProfile, n, tuple(degrees))
    report = _guard(rs.simulate_resolution, profile)  # the work budget is its one ValueError
    formula_value = ex.minimal_exponent_cone(profile)
    match = report.lower_bound == formula_value
    witness = report.witness
    results = {
        "n": profile.n,
        "degrees": list(profile.degrees),
        "mode": report.mode,
        "levels": [list(level) for level in report.levels],
        "blowups": len(report.ledger),
        "ledger": [
            {"divisor": row.divisor, "a": row.a, "k": row.k, "ratio": _rat_json(row.ratio)}
            for row in report.ledger
        ],
        "lower_bound": _rat_json(report.lower_bound),
        "witness": (
            None if witness is None else {"common": witness.common, "residual": list(witness.residual)}
        ),
        "trace": [
            {
                "center": row.center if isinstance(row.center, str) else list(row.center),
                "pivot": row.pivot,
                "divisor": row.divisor,
                "a": row.a,
                "k": row.k,
                "ideal": row.ideal,
            }
            for row in report.ledger
        ],
        "case3": [{"level": c.level, "steps": list(c.steps), "principal": c.principal} for c in report.case3],
        "vj_checks": [v._asdict() for v in report.vj_checks],
        "cross_check": {
            "formula": _rat_json(formula_value),
            "ledger_bound": _rat_json(report.lower_bound),
            "match": match,
        },
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
    code = EXIT_OK if match else EXIT_FAIL
    return _report("resolve", code, results=results, warnings=warnings, provenance=provenance)


def _text_resolve(results: dict):
    yield f"n = {results['n']}, degrees = {results['degrees']}, mode = {results['mode']}"
    for step in results["trace"]:
        where = step["center"] if isinstance(step["center"], str) else ", ".join(step["center"])
        yield f"  blow up [{where}] -> {step['divisor']} (a={step['a']}, k={step['k']}): {step['ideal']}"
    for row in results["ledger"]:
        yield f"  {row['divisor']}: a = {row['a']}, k = {row['k']}, (k+1)/a = {_show(row['ratio'])}"
    if results["witness"]:
        witness = results["witness"]
        yield f"factorization: {witness['common']} * ({', '.join(witness['residual'])})"
    yield f"lower bound = {_show(results['lower_bound'])}"
    cross = results["cross_check"]
    yield f"cross-check vs formula {_show(cross['formula'])}: {'PASS' if cross['match'] else 'FAIL'}"


def run_verify(
    n: int,
    degrees: list[int],
    bound: int = 8,
    chain_step: int | Fraction = Fraction(1, 2),
    chain_max: int | Fraction = Fraction(4),
) -> tuple[dict, int]:
    profile = _guard(ex.DegreeProfile, n, tuple(degrees))
    # the box and the grid only size the report; both are checked first
    tuples = _guard(rs._check_scan_bound, profile, bound)
    points = _guard(rs._check_chain_grid, profile, chain_step, chain_max)
    valuation = rs.valuation_certificate(profile)
    inequality_passed = valuation.verify()
    chain_passed = rs.chain_certificate(profile).verify()

    passed = inequality_passed and chain_passed
    # a certificate decides the whole cone: there is never a counterexample
    # or a first failing point, and the two keys stay null
    results = {
        "n": n,
        "degrees": list(degrees),
        "branch": valuation.branch,
        "bound": bound,
        "exponent": _rat_json(valuation.exponent),
        "tuples_checked": tuples,
        "counterexample": None,
        "inequality_passed": inequality_passed,
        "chain_grid": {
            "step": _rat_json(chain_step),
            "max": _rat_json(chain_max),
            "points": points,
            "first_failure": None,
            "passed": chain_passed,
        },
        "passed": passed,
    }
    provenance = [
        "inequality: Farkas certificate (fractional knapsack) of the divisorial valuation bound on the whole cone",
        "chain grid: sign certificate of the telescoping chain argument at every u >= 0",
    ]
    code = EXIT_OK if passed else EXIT_FAIL
    return _report("verify", code, results=results, warnings=[], provenance=provenance)


def _text_verify(results: dict):
    yield f"n = {results['n']}, degrees = {results['degrees']}"
    yield (
        f"branch = {results['branch']}, bound = {results['bound']}, "
        f"exponent factor = {_show(results['exponent'])}"
    )
    yield f"inequality grid: {results['tuples_checked']} tuples"
    yield f"chain grid: {results['chain_grid']['points']} points"
    yield "PASS" if results["passed"] else "FAIL"


def run_probe(
    polynomials: list[str], variables: list[str], field: int, limit: int = pl.PROBE_LIMIT
) -> tuple[dict, int]:
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
    return _report("probe", code, results=results, warnings=warnings, provenance=provenance)


def _text_probe(results: dict):
    yield f"field = {results['field']}, points checked = {results['points_checked']}"
    yield f"verdict: {results['verdict']}"
    if results["reason"]:
        yield f"reason: {results['reason']}"
    if results["witness"]:
        w = results["witness"]
        yield (
            f"witness point {w['point']} (inputs {w['vanishing']} vanish); "
            f"lift {w['lifted_point']}; genuine: {w['genuine']}"
        )
        yield f"  {w['note']}"


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
        with open(manifest_path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise InputError(f"cannot read manifest: {err}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise InputError(f"malformed manifest: not UTF-8 text: {err}")
    manifest = _json_loads(text, "malformed manifest JSON: ")
    if not isinstance(manifest, list):
        raise InputError("manifest must be a JSON array of requests")
    reports = []
    codes = []
    for i, request in enumerate(manifest):
        try:
            sub, code = _run_request(request)
        except InputError as err:
            command = request.get("command") if isinstance(request, dict) else None
            command = command if command in COMMANDS else "batch"
            sub, code = _report(command, EXIT_INPUT, error=f"request {i}: {err}")
        reports.append(sub)
        codes.append(code)
    passed = sum(1 for c in codes if c == EXIT_OK)
    overall = EXIT_OK
    if any(c == EXIT_FAIL for c in codes):
        overall = EXIT_FAIL
    elif any(c == EXIT_INPUT for c in codes):
        overall = EXIT_INPUT
    return _report("batch", overall, reports=reports, summary={"total": len(reports), "passed": passed})


def _text_batch(report: dict):
    for sub in report["reports"]:
        yield f"  {sub['command']}: {'ok' if sub['ok'] else 'FAILED'}"
    yield f"batch: {report['summary']['passed']}/{report['summary']['total']} passed"


# ---------------------------------------------------------------------------
# text rendering

def _render_text(report: dict, stream) -> None:
    """What every report shares: the header, the lines of the command's
    renderer _text_<command>, the warnings and the notes.  The renderer gets
    the results; a batch report has none, and its renderer gets the report."""
    command = report["command"]
    lines = [f"command: {command}", *globals()[f"_text_{command}"](report.get("results", report))]
    lines += [f"warning: {warning}" for warning in report.get("warnings", [])]
    lines += [f"note: {note}" for note in report.get("provenance", [])]
    print("\n".join(lines), file=stream)


# ---------------------------------------------------------------------------
# argv

_BATCH_HELP = "run a JSON manifest of requests"

# command -> {flag: request key}; batch takes its manifest path and no flag
_FLAGS = {command: {_KEYS[key].flag: key for key in keys} for command, (_, keys) in _TABLE.items()}
_FLAGS["batch"] = {}
_HELP_FLAGS = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _flag_like(token: str) -> bool:
    """Whether argv text stands where a flag would, not where a command or a
    manifest path would: it starts with "-", and it is not "-" alone, a
    negative number or text with a space."""
    return token[:1] == "-" and token != "-" and " " not in token and not _NEGATIVE_NUMBER.fullmatch(token)


class _Argv(NamedTuple):
    command: str | None  # None until a known command is read
    json: bool  # --json came among the command's flags
    request: dict | str | None  # the request, or batch's manifest path
    error: str | None = None  # the first input error in argv
    help: str | None = None  # the text -h/--help asks for


def _read_argv(argv) -> _Argv:
    """Read argv against the command table.

    Each flag of the command takes the next argument as its text, whatever
    it is; only a repeating flag (--poly of weighted and probe) may be given
    twice, and a flag is named in full (no prefixes, no "--flag=text").  An
    integer key's text is read where it stands; the first error in argv
    order wins, then a missing required flag (in table order), then an
    argument no flag took, then the text readers of the other keys (in
    table order).  After an error the walk goes on, to see --json."""
    extras = []
    i, end = 0, len(argv)
    while i < end and _flag_like(argv[i]):  # before the command only --help is a flag
        if argv[i] in _HELP_FLAGS:
            return _Argv(None, False, None, help=_help(None))
        extras.append(argv[i])
        i += 1
    if i == end:
        return _Argv(None, False, None, "the following arguments are required: command")
    command = argv[i]
    flags = _FLAGS.get(command)
    if flags is None:
        choices = ", ".join(map(repr, COMMANDS))
        return _Argv(None, False, None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    request = {"command": command}
    texts = {}  # the text of each key but the integers, read after the walk
    as_json = False
    error = manifest = None
    i += 1
    while i < end:
        token = argv[i]
        i += 1
        key = flags.get(token)
        if key is not None:
            if i == end:
                error = error or f"argument {token}: expected one argument"
                break
            text = argv[i]
            i += 1
            spec = _KEYS[key]
            if error:
                pass
            elif spec.repeats:
                texts.setdefault(key, []).append(text)
            elif key in texts or key in request:
                error = f"argument {token}: may be given only once"
            elif spec.text is _parse_int_flag:
                try:
                    request[key] = _parse_int_flag(text, key)
                except InputError as err:
                    error = str(err)
            else:
                texts[key] = text
        elif token == "--json":
            as_json = True
        elif token in _HELP_FLAGS:
            if error is None:
                return _Argv(command, False, None, help=_help(command))
        elif manifest is None and command == "batch" and not _flag_like(token):
            manifest = token
        else:
            extras.append(token)
    keys = _TABLE[command][1] if command != "batch" else {}
    if error is None:
        required = [_KEYS[key].flag for key, needed in keys.items() if needed and key not in texts and key not in request]
        if command == "batch" and manifest is None:
            required.append("manifest")
        if required:
            error = f"the following arguments are required: {', '.join(required)}"
        elif extras:
            error = f"unrecognized arguments: {' '.join(extras)}"
    if error is not None:
        return _Argv(command, as_json, None, error)
    if command == "batch":
        return _Argv(command, as_json, manifest)
    try:
        for key in keys:
            if key in texts:
                request[key] = _KEYS[key].text(texts[key], key)
    except InputError as err:
        return _Argv(command, as_json, None, str(err))
    return _Argv(command, as_json, request)


def _help(command: str | None) -> str:
    """The --help text of a command, or of minexp with command None, from the command table."""
    if command is None:
        rows = [(name, help_text) for name, (help_text, _) in _TABLE.items()] + [("batch", _BATCH_HELP)]
        return "\n".join([
            "usage: minexp <command> [flags] [--json]",
            "",
            "Exact minimal exponents, lct and singularity predicates of cones over complete intersections.",
            "",
            "commands:",
            *(f"  {name:<8}  {help_text}" for name, help_text in rows),
            "",
            "minexp <command> --help lists the flags of a command.",
        ])
    if command == "batch":
        help_text, usage = _BATCH_HELP, ["MANIFEST"]
    else:
        help_text, keys = _TABLE[command]
        usage = []
        for key, required in keys.items():
            flag = f"{_KEYS[key].flag} {key.upper()}"
            flag = flag if required else f"[{flag}]"
            usage.append(f"{flag}..." if _KEYS[key].repeats else flag)
    return "\n".join([
        f"usage: minexp {command} {' '.join(usage)} [--json]",
        "",
        help_text,
        "",
        "Each flag takes the next argument as its text: the value of the manifest key named in",
        "capitals.  Brackets mark an optional flag, and ... a flag that may repeat.",
    ])


def main(argv=None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args.help is not None:
        print(args.help)
        return EXIT_OK
    try:
        if args.error is not None:
            raise InputError(args.error)
        if args.command == "batch":
            report, code = run_batch(args.request)
        else:
            report, code = _run_request(args.request)
    except InputError as err:
        # args.json stays False until a known command is read: such an error is text
        if not args.json:
            print(f"input error: {err}", file=sys.stderr)
            return EXIT_INPUT
        report, code = _report(args.command, EXIT_INPUT, error=str(err))
    if args.json:
        print(_json_text(report))
    else:
        _render_text(report, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())

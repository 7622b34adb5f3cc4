"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All numeric comparisons are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import jsonschema

from _oracles import TableProfile, chain_grid_by_points, diagonal_by_vertex_enumeration, valuation_scan_by_grid
from minexp.cli import EXIT_FAIL, EXIT_INPUT, EXIT_OK, REPORT_SCHEMA, main
from minexp.exponent import (
    DegreeProfile,
    WeightedProfile,
    exponent_candidates,
    lct_cone,
    minimal_exponent_cone,
    singularity_predicates,
    weighted_upper_bound,
)
from minexp.newton import MonomialSupport, diagonal_entry, newton_diagonal
from minexp.poly import parse_poly, weighted_profile
from minexp.resolution import chain_certificate, simulate_resolution, valuation_certificate

F = Fraction


def _verdict(cid: str, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] {cid} {status}: {description}{suffix}")
    assert ok, f"{cid} failed: {description}{suffix}"


def _profiles(max_n: int, max_r: int, degree_range: range):
    for n in range(1, max_n + 1):
        for r in range(1, min(max_r, n) + 1):
            for degrees in itertools.combinations_with_replacement(degree_range, r):
                yield DegreeProfile(n, degrees)


def test_c01_formula_exactness():
    failures = []
    cases = 0
    for n in range(1, 13):
        for d in range(2, 9):
            for r in range(1, n + 1):
                cases += 1
                if minimal_exponent_cone(DegreeProfile(n, (d,) * r)) != F(n, d):
                    failures.append((n, d, r))
    derived = [
        ((6, (2, 3)), F(7, 3)),
        ((3, (2, 3)), F(4, 3)),
        ((4, (2, 3, 4)), F(5, 3)),
    ]
    for (n, degrees), expected in derived:
        cases += 1
        if minimal_exponent_cone(DegreeProfile(n, degrees)) != expected:
            failures.append((n, degrees))
    _verdict(
        "C1",
        "closed-form exponent is exactly n/d on equal degrees plus three pinned profiles",
        not failures,
        f"{cases} cases" if not failures else f"failures: {failures[:3]}",
    )


def test_c02_candidate_identity_suite():
    rng = random.Random(20240601)
    failures = 0
    for _ in range(10_000):
        r = rng.randint(1, 6)
        degrees = sorted(rng.randint(1, 9) for _ in range(r))
        w = F(rng.randint(-30, 60), rng.randint(1, 12))
        table = exponent_candidates(w, degrees)
        values = table.values
        prefix = 0
        ok = True
        for i in range(r - 1):
            prefix += degrees[i]
            di, dj = degrees[i], degrees[i + 1]
            if values[i] - values[i + 1] != F(w - prefix) * (dj - di) / (di * dj):
                ok = False
            if di == dj and values[i] != values[i + 1]:
                ok = False
            if di < dj and (values[i] >= values[i + 1]) != (prefix <= w):
                ok = False
        prefix = 0
        expected_pivot = r
        for i, d in enumerate(degrees, 1):
            prefix += d
            if prefix > w:
                expected_pivot = i
                break
        if table.pivot != expected_pivot or table.minimum != min(values):
            ok = False
        if values[table.pivot - 1] != table.minimum:
            ok = False
        if not ok:
            failures += 1
    _verdict(
        "C2",
        "candidate-sequence identities and the pivot law on 10,000 random profiles",
        failures == 0,
        "10000 profiles",
    )


def _fermat_cone_support(profile: DegreeProfile) -> MonomialSupport:
    """The support of the cone hypersurface g = f_1*y_1 + ... + f_r*y_r over
    the Fermat-type forms f_j = x_1^{d_j} + ... + x_n^{d_j}: the points
    d_j*e_i + e_{n+j}, built from the degrees alone."""
    n, dim = profile.n, profile.n + profile.r
    points = []
    for j, d in enumerate(profile.degrees):
        for i in range(n):
            point = [0] * dim
            point[i], point[n + j] = d, 1
            points.append(point)
    return MonomialSupport(dim, points)


def test_c03_three_route_agreement():
    # the three routes agree on the exponent; the Newton diagonal of the
    # Fermat-type cone hypersurface gives the lct, min(exponent, r)
    failures = []
    count = 0
    for profile in _profiles(12, 4, range(2, 9)):
        count += 1
        formula = minimal_exponent_cone(profile)
        ledger = simulate_resolution(profile).lower_bound
        weighted = weighted_upper_bound(
            WeightedProfile((1,) * profile.n, profile.degrees)
        )
        newton = newton_diagonal(_fermat_cone_support(profile))[1]
        if not (formula == ledger == weighted and newton == lct_cone(profile)):
            failures.append((profile, formula, ledger, weighted, newton))
    _verdict(
        "C3",
        "formula = resolution-ledger bound = all-ones weighted bound, and the Newton "
        "exponent of the Fermat-type cone hypersurface = lct, on every profile",
        not failures,
        f"{count} profiles" if not failures else f"first: {failures[0]}",
    )


def test_c04_resolution_trace_fidelity(request, capsys):
    golden_path = request.path.parent / "data" / "golden_resolve_n6_d23.json"
    golden = json.loads(golden_path.read_text())
    code = main(["resolve", "--n", "6", "--degrees", "2,3", "--json"])
    report = json.loads(capsys.readouterr().out)["results"]
    del report["cross_check"]
    ok = code == EXIT_OK and report == golden
    detail = ""
    if not ok:
        diff = {k for k in golden if report.get(k) != golden[k]}
        detail = f"mismatched keys: {sorted(diff)}"
    _verdict("C4", "chart trace matches the golden transforms exactly", ok, detail)


def test_c05_valuation_inequality_scan():
    # the oracle's grid on C5's profiles, then the certificate on the whole C3
    # grid: it verifies, and the knapsack at the factor plus 10^-6 fails
    failures = []
    tuples = 0
    count = 0
    for profile in _profiles(8, 3, range(2, 7)):
        count += 1
        report = valuation_scan_by_grid(profile, 8)
        tuples += report.tuples_checked
        if not report.passed:
            failures.append((profile, report.counterexample))
    epsilon = F(1, 10**6)
    certified = 0
    for profile in _profiles(12, 4, range(2, 9)):
        raised = TableProfile(profile.n, profile.degrees, [x + epsilon for x in profile.table.values])
        if not valuation_certificate(profile).verify() or valuation_certificate(raised).verify():
            failures.append((profile, "certificate"))
        certified += 1
    _verdict(
        "C5",
        "valuation inequality holds on the full B=8 grid in both branches, and its certificate "
        "verifies at the exponent and fails at the exponent + 10^-6",
        not failures,
        f"{count} profiles, {tuples} tuples, {certified} certificates" if not failures else f"first: {failures[0]}",
    )


def test_c06_descent_chain_grid():
    # the oracle's grid on C6's profiles, then the certificate on the whole C3
    # grid: it verifies, and fails with any one sign flipped
    failures = []
    points = 0
    for profile in _profiles(8, 3, range(2, 7)):
        checked, failure = chain_grid_by_points(profile, F(1, 2), F(4))  # 0, 1/2, ..., 4
        points += checked
        if failure is not None:
            failures.append((profile, failure.u))
            break
    certified = 0
    for profile in _profiles(12, 4, range(2, 9)):
        certificate = chain_certificate(profile)
        signs = certificate.signs
        # sign k flipped: 1 and -1 swap, and 0 becomes 1
        flipped = [signs[:k] + (-signs[k] or 1,) + signs[k + 1 :] for k in range(profile.r)]
        if not certificate.verify() or any(certificate._replace(signs=f).verify() for f in flipped):
            failures.append((profile, "certificate"))
        certified += 1
    _verdict(
        "C6",
        "chain links and the terminal bound hold on the half-integer grid, and the sign "
        "certificate verifies and fails with any one sign flipped",
        not failures,
        f"{points} chains, {certified} certificates" if not failures else f"first: {failures[0]}",
    )


def _random_support(rng):
    dim = rng.randint(1, 3)
    count = rng.randint(1, 5)
    points = set()
    while len(points) < count:
        p = tuple(rng.randint(0, 6) for _ in range(dim))
        if any(p):
            points.add(p)
    return MonomialSupport(dim, frozenset(points))


def test_c07_newton_oracle():
    rng = random.Random(777)
    failures = []
    results = []
    for _ in range(500):
        support = _random_support(rng)
        result = diagonal_entry(support)
        results.append(result)
        if result.c != diagonal_by_vertex_enumeration(support.points):
            failures.append(support)
    cusp = parse_poly("x1^2 + x2^3", ["x1", "x2"])
    cusp_support = MonomialSupport.from_poly(cusp)
    cusp_ok = (
        1 / diagonal_entry(cusp_support).c == F(5, 6)
        and weighted_upper_bound(weighted_profile([cusp], [3, 2])) == F(5, 6)
    )
    test_c07_newton_oracle.results = results  # reused by the certificate audit
    _verdict(
        "C7",
        "diagonal value matches vertex enumeration on 500 supports; cusp exponent 5/6 both ways",
        not failures and cusp_ok,
        "500 supports" if not failures else f"first: {failures[0]}",
    )


def test_c08_certificate_audit():
    results = getattr(test_c07_newton_oracle, "results", None)
    if results is None:  # criterion 7 did not run first; rebuild the sample
        rng = random.Random(777)
        results = [diagonal_entry(_random_support(rng)) for _ in range(500)]
    failures = 0
    for result in results:
        pts = [p for p, _ in result.certificate]
        lams = [l for _, l in result.certificate]
        n = len(pts[0])
        ok = sum(lams) == 1 and all(l >= 0 for l in lams)
        column = [sum(l * p[i] for l, p in zip(lams, pts)) for i in range(n)]
        ok = ok and all(y <= result.c for y in column) and max(column) == result.c
        v = result.dual
        ok = ok and all(x >= 0 for x in v) and sum(v) <= 1
        ok = ok and min(sum(x * e for x, e in zip(v, p)) for p in pts) == result.c
        if not ok:
            failures += 1
    _verdict(
        "C8",
        "primal and dual certificates re-verify with independent arithmetic",
        failures == 0,
        f"{len(results)} certificates",
    )


def test_c09_predicates_agree_with_degree_sums():
    failures = []
    count = 0
    for profile in _profiles(12, 4, range(2, 9)):
        count += 1
        preds = singularity_predicates(profile)  # raises if the cross-check fails
        alpha = minimal_exponent_cone(profile)
        r = profile.r
        total = profile.degree_sum
        ok = (
            preds.rational_singularities == (alpha > r) == (total < profile.n)
            and preds.log_canonical == (alpha >= r) == (total <= profile.n)
            and preds.exceeds_lct == (min(alpha, F(r)) < alpha)
        )
        if not ok:
            failures.append(profile)
    _verdict(
        "C9",
        "predicates from the exponent agree with the degree-sum criteria everywhere",
        not failures,
        f"{count} profiles" if not failures else f"first: {failures[0]}",
    )


def test_c10_cli_contract(tmp_path, capsys):
    manifest = [
        {"command": "formula", "n": 6, "degrees": [2, 3]},
        {"command": "formula", "n": 5, "degrees": [1, 2, 3]},
        {"command": "formula", "n": 3, "degrees": [1, 1, 1]},
        {"command": "weighted", "weights": [1, 1, 1, 1], "orders": [2, 3]},
        {"command": "weighted", "weights": ["3", "2"], "polynomials": ["x1^2+x2^3"]},
        {"command": "newton", "support": [[2, 0], [0, 3]]},
        {"command": "resolve", "n": 4, "degrees": [2, 3, 4]},
        {"command": "resolve", "n": 5, "degrees": [2, 2]},
        {"command": "verify", "n": 3, "degrees": [2, 3], "bound": 4},
        {"command": "probe", "polynomials": ["x1^2+x2^2+x3^2"], "variables": ["x1", "x2", "x3"], "field": 5},
    ]
    path = tmp_path / "manifest10.json"
    path.write_text(json.dumps(manifest))
    code = main(["batch", str(path), "--json"])
    out = capsys.readouterr().out
    report = json.loads(out)
    validator = jsonschema.Draft202012Validator(REPORT_SCHEMA)
    validator.validate(report)
    ok = code == EXIT_OK and report["summary"] == {"total": 10, "passed": 10}
    for sub in report["reports"]:
        validator.validate(sub)
    # spot checks of the aggregated values
    ok = ok and report["reports"][0]["results"]["minimal_exponent"] == {"num": 7, "den": 3}
    ok = ok and report["reports"][1]["results"]["minimal_exponent"] == {"num": 8, "den": 3}
    ok = ok and report["reports"][2]["results"]["minimal_exponent"] == "infinity"
    ok = ok and report["reports"][5]["results"]["exponent"] == {"num": 5, "den": 6}

    # exit-code semantics: a failing probe flips the batch to 2, bad input to 1
    failing = manifest + [
        {"command": "probe", "polynomials": ["x1^2"], "variables": ["x1", "x2"], "field": 3}
    ]
    path2 = tmp_path / "manifest_fail.json"
    path2.write_text(json.dumps(failing))
    code2 = main(["batch", str(path2), "--json"])
    capsys.readouterr()
    bad = [{"command": "formula", "n": 2, "degrees": [2, 3, 4]}]
    path3 = tmp_path / "manifest_bad.json"
    path3.write_text(json.dumps(bad))
    code3 = main(["batch", str(path3), "--json"])
    capsys.readouterr()
    ok = ok and code2 == EXIT_FAIL and code3 == EXIT_INPUT
    _verdict("C10", "10-request manifest: schema-valid reports and exit-code semantics", ok)

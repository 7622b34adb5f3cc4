"""A standing table of mutants: each entry is a plausible fault in a library
function and the check that must catch it.

A mutant is made from the function's own source: one snippet, which must
occur exactly once, is replaced, and the mutated function is compiled in the
module's namespace and monkeypatched in.  A refactor that renames a function
or rewrites a snippet makes its entry fail here, so the entry is updated
with it instead of lost.  Each check first passes on the library as it is,
then must fail under the mutant.  A check that runs a Tier-1 test raises if
the test's module binds the mutated name to the unmutated function, which
the test would run instead: such a test calls the function through its
module.

The table covers every route and certificate: the simplex, its slack start,
its costs and the Newton certificate, the blow-up chain, its start chart, its
chart checks and the chart a failed one names, its closed-form ledger and its
ratios, the edges of the work budgets, the candidate formula, its values
against the Newton route on the Fermat pivot chart, its degree-1 shift and its
degree-sum check, both ``verify`` certificates, the weighted order, the
probe's multiple-root test, its zero prefix, its memo key, its one-row test
and its rank, the resolve report's cross-check against the formula, and the
two writers of a report, the JSON writer (its type check and its sorted keys)
and the monomial writer.
A simplex mutant that cycles needs no pivot cap:
the solver raises on a revisited basis (see ``newton._iterate``).
"""

from __future__ import annotations

import inspect
import itertools
import json
import random
import textwrap
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

import pytest

from _oracles import (
    diagonal_lp_by_full_tableau,
    exponent_candidates_by_fractions,
    probe_by_line_scan,
    rank_by_elimination,
    simulate_resolution_by_charts,
)
from minexp import cli, exponent, newton, poly, resolution
from minexp.exponent import DegreeProfile, WeightedProfile, weighted_upper_bound
from minexp.newton import DiagonalResult
from minexp.poly import PolyParseError, parse_poly
from minexp.resolution import ChainCertificate, ResolutionError, ValuationCertificate
from test_acceptance import _pivot_chart_routes
from test_cli import NOT_IN_A_REPORT, _resolve_with_the_bound_off_by_one
from test_newton import _certificate, _cone_support, _random_points
from test_poly import PREFIX_CASES, _forms
# by module: their tests imported by name would be collected here too
import test_newton
import test_poly
import test_resolution

F = Fraction


# --- the simplex and the Newton certificate ----------------------------------------

def _simplex_supports():
    """Small fixed supports: every support of at most 3 nonzero points in
    the plane with coordinates <= 3, where many optima are not unique, so a
    different pivot path often ends at different weights or a different
    dual; cones sum_j f_j * y_j with a few extra monomials; and dense random
    supports of dimension 7-10.  In the last two, columns stay stale across
    pivots and ratio tests tie."""
    pool = [p for p in itertools.product(range(4), repeat=2) if any(p)]
    supports = [list(pts) for count in (1, 2, 3) for pts in itertools.combinations(pool, count)]
    rng = random.Random(13)
    for n, degrees, extra in ((4, (2, 3), 2), (5, (2, 3), 3), (6, (2, 4), 3)) * 2:
        supports.append(_cone_support(rng, n, degrees, extra))
    for _ in range(8):
        dim = rng.randint(7, 10)
        count = rng.randint(10, 16)
        supports.append(_random_points(rng, dim, count, 6))
    return supports


@cache
def _oracle_results():
    return [(pts, diagonal_lp_by_full_tableau(pts)) for pts in _simplex_supports()]


def simplex_matches_full_tableau() -> bool:
    """The revised simplex gives the full tableau's c, weights and dual,
    and raises nothing: neither its own ``RuntimeError`` checks, a revisited
    basis among them, nor an arithmetic fault such as a division by zero."""
    for pts, expected in _oracle_results():
        try:
            if newton._solve_diagonal_lp(pts) != expected:
                return False
        except Exception:
            return False
    return True


def slack_start_is_a_feasible_basis() -> bool:
    """``test_the_start_is_feasible_on_every_small_support``: on 1,947 small
    supports the state the simplex begins from is d * B^-1 of its basis,
    with the all-ones right-hand side in its last slot, and every basic
    column prices at 0."""
    with pytest.MonkeyPatch.context() as patch:
        return _test_passes(test_newton.test_the_start_is_feasible_on_every_small_support, patch)


def verify_rejects_dual_summing_above_one() -> bool:
    """The ``(F(1, 2), F(1))`` case of ``test_verify_rejects_each_broken_condition``:
    the dual's minimum over the points is c = 1, but it sums to 3/2."""
    return not _certificate(1, (0, 1, 0), (F(1, 2), F(1))).verify()


# --- the blow-up chain, the formula and the certificates ------------------------------

# every profile with n <= 6, r <= 3 and degrees 2..5: one, two and three
# levels, r = n (log resolution) and r < n, both verify branches, and ties.
# The table keeps (n, degrees) pairs, not profiles: a profile caches its
# candidate table, and one cached before an ``exponent_candidates`` mutant is
# installed would hide it, depending on the order of the tests.
_PROFILES = [
    (n, degrees)
    for n in range(1, 7)
    for r in range(1, min(3, n) + 1)
    for degrees in itertools.combinations_with_replacement(range(2, 6), r)
]


def _profiles():
    """A fresh profile for each pair of ``_PROFILES``."""
    return [DegreeProfile(n, degrees) for n, degrees in _PROFILES]


def resolution_passes_its_own_checks() -> bool:
    """``simulate_resolution`` raises no ``ResolutionError``: among its checks,
    the ledger's rows equal their closed form."""
    for profile in _profiles():
        try:
            resolution.simulate_resolution(profile)
        except ResolutionError:
            return False
    return True


def resolution_matches_the_chart_oracle() -> bool:
    """The report equals the chart oracle's, and its lower bound the formula's."""
    for profile in _profiles():
        try:
            report = resolution.simulate_resolution(profile)
        except ResolutionError:
            return False
        if report != simulate_resolution_by_charts(profile)[0] or report.lower_bound != profile.table.minimum:
            return False
    return True


def _test_passes(test: Callable[..., None], *args) -> bool:
    """Whether a Tier-1 test passes on ``args``: it raises no assertion, no
    failed ``pytest.raises``, no ``ResolutionError`` of a chain check and no
    ``ValueError`` of a budget check.

    A test whose module binds an installed mutant's name to the unmutated
    function would run that function and pass vacuously, so it raises
    instead: such a test must call the function through its module.
    """
    for mutant in MUTANTS.values():
        original = getattr(getattr(mutant.owner, mutant.name), "unmutated", None)
        if original is not None and test.__globals__.get(mutant.name) is original:
            raise RuntimeError(f"{test.__module__} binds {mutant.name} by name: call it through its module")
    try:
        test(*args)
    except (AssertionError, ResolutionError, ValueError, pytest.fail.Exception):
        return False
    return True


def resolution_budget_admits_its_exact_work() -> bool:
    """``test_resolution_budget_admits_its_exact_work``: a budget of exactly
    a profile's work admits it, and one unit less refuses it."""
    with pytest.MonkeyPatch.context() as patch:
        return _test_passes(test_resolution.test_resolution_budget_admits_its_exact_work, patch)


def vj_check_raises_a_generator_off_its_closed_form() -> bool:
    """``test_vj_generator_off_its_closed_form_is_raised_after_the_ledger``:
    on (6; 2,4), E2's z1 generator with its pivot exponent raised by one,
    u0^2*u1^4, fails its closed form u0^2*u1^3 after the ledger passes, and
    with a ledger fault besides, the ledger reports first."""
    with pytest.MonkeyPatch.context() as patch:
        return _test_passes(test_resolution.test_vj_generator_off_its_closed_form_is_raised_after_the_ledger, patch)


def level_end_is_compared_with_its_degree() -> bool:
    """``test_side_chain_check_is_derived_from_the_main_chain``: on (6; 2,3)
    with its one level's degree lowered to 2 in the schedule, the level's
    last blow-up makes a = 3, not 2, and the chain raises."""
    with pytest.MonkeyPatch.context() as patch:
        return _test_passes(test_resolution.test_side_chain_check_is_derived_from_the_main_chain, patch)


def followed_chart_is_compared_whole() -> bool:
    """``test_followed_chart_is_compared_past_its_z0_column``: on (6; 2,3),
    E2's followed chart with its two generators' strict parts swapped keeps
    every z0 exponent, and the chain raises, its message naming the chart as
    built and its closed form."""
    with pytest.MonkeyPatch.context() as patch:
        return _test_passes(test_resolution.test_followed_chart_is_compared_past_its_z0_column, patch)


def vj_generators_have_their_closed_form() -> bool:
    """``test_vj_generator_has_its_closed_form``: on the C3 grid and two
    wide profiles, every vj check's generator is z0^{a_{j-1}}*z_p^{a_j},
    and the chain raises no ``ResolutionError``."""
    return _test_passes(test_resolution.test_vj_generator_has_its_closed_form)


def chain_grid_axis_is_cut_just_over_the_budget() -> bool:
    """``test_chain_grid_axis_is_cut_just_over_the_budget``: one axis of
    10^6 points fits, and one of 10^6 + 1 does not."""
    return _test_passes(test_resolution.test_chain_grid_axis_is_cut_just_over_the_budget)


def scan_bound_of_one_is_accepted() -> bool:
    """``test_scan_bound_of_one_is_a_box_of_two_points_per_axis``: bound 1
    is accepted and sizes a box of 2^free tuples."""
    return _test_passes(test_resolution.test_scan_bound_of_one_is_a_box_of_two_points_per_axis)


def certificates_verify() -> bool:
    """Both ``verify`` certificates verify on every profile."""
    return all(
        resolution.valuation_certificate(profile).verify() and resolution.chain_certificate(profile).verify()
        for profile in _profiles()
    )


def valuation_verify_rejects_weights_summing_below_one() -> bool:
    """The ``sum`` case of ``test_valuation_certificate_rejects_each_broken_condition``."""
    certificate = resolution.valuation_certificate(DegreeProfile(3, (2, 3)))
    return not certificate._replace(weights=(F(3, 4), F(1, 5))).verify()


def chain_verify_rejects_every_flipped_sign() -> bool:
    """One flipped sign fails the chain certificate of every profile, as in
    ``test_certificates_on_the_c3_grid``."""
    for profile in _profiles():
        certificate = resolution.chain_certificate(profile)
        for k, sign in enumerate(certificate.signs):
            signs = certificate.signs[:k] + (-sign or 1,) + certificate.signs[k + 1 :]
            if certificate._replace(signs=signs).verify():
                return False
    return True


def candidates_match_the_fraction_oracle() -> bool:
    """The candidate table, its pivot included, equals the fraction oracle's
    for w = 1..12 over degrees 2..5, r <= 3, where the prefix sum often
    equals w."""
    for w in range(1, 13):
        for r in (1, 2, 3):
            for degrees in itertools.combinations_with_replacement(range(2, 6), r):
                try:
                    if exponent.exponent_candidates(w, degrees) != exponent_candidates_by_fractions(w, degrees):
                        return False
                except AssertionError:  # the library's own pivot check
                    return False
    return True


def degree_one_formula_matches_the_weighted_route() -> bool:
    """With degree-1 equations among the degrees, ``cone_formula``'s exponent
    equals the weighted route's with unit weights, which reads the degrees
    as they are: a degree-1 candidate i is n, and every later one is the
    shifted candidate."""
    for n in range(2, 8):
        for ones in (1, 2):
            for degrees in itertools.combinations_with_replacement(range(2, 5), 2):
                if ones + len(degrees) > n:
                    continue
                degrees = (1,) * ones + degrees
                unit = weighted_upper_bound(WeightedProfile((1,) * n, degrees))
                if exponent.cone_formula(n, degrees).minimal_exponent != unit:
                    return False
    return True


def pivot_charts_give_the_exponent() -> bool:
    """On every profile, 1/c of the Newton polyhedron of the Fermat pivot
    chart and that chart's weighted bound equal the candidate minimum, as
    in ``test_c03_three_route_agreement``."""
    for profile in _profiles():
        if _pivot_chart_routes(profile) != (profile.table.minimum,) * 2:
            return False
    return True


def cone_formula_passes_its_degree_sum_check() -> bool:
    """``cone_formula`` raises no ``AssertionError`` on (4; 2, 2), where the
    degree sum equals n and the exponent equals r: the singularities are log
    canonical but not rational."""
    try:
        exponent.cone_formula(4, (2, 2))
    except AssertionError:  # the library's own degree-sum check
        return False
    return True


# --- the weighted order and the probe ------------------------------------------------

_WEIGHTED = [
    ("x1^2 + x2^3", ("x1", "x2"), (F(1, 2), F(2, 3))),
    ("x1^2 + x1*x2^2", ("x1", "x2"), (F(1, 2), F(2, 3))),
    ("x1*x2*x3 + x1^4 + x3^5", ("x1", "x2", "x3"), (F(1, 3), F(1), F(5, 7))),
    ("x1^3 + x2^2", ("x1", "x2"), (F(3), F(2))),
]


def weighted_order_matches_fractions() -> bool:
    """``_weighted_order`` equals the least weighted degree over the terms,
    summed in ``Fraction``s, for rational weights (unit weights would hide a
    lost denominator)."""
    for text, names, weights in _WEIGHTED:
        f = parse_poly(text, names)
        least = min(sum(e * w for e, w in zip(u, weights)) for u in f.terms)
        if poly._weighted_order(f, weights) != least:
            return False
    return True


def probe_matches_the_line_scan() -> bool:
    """The probe's report equals the line-scan oracle's on the prefix cases
    of ``test_poly``; the oracle ranks every gradient by a full Gauss-Jordan
    pass, at every point where an input vanishes."""
    for texts, names, q, *_ in PREFIX_CASES:
        fs = _forms(texts, names)
        try:
            if poly.probe_transversality(fs, q) != probe_by_line_scan(fs, q):
                return False
        except ValueError:  # pow found no inverse: a pivot that is 0 mod q
            return False
    return True


def probe_passes_a_smooth_quadric() -> bool:
    """``test_probe_smooth_quadric_passes``: x1^2 + x2^2 + x3^2 passes over
    F_5, where the zero point, a singular point of every form of degree at
    least 2, is no line representative."""
    return _test_passes(test_poly.test_probe_smooth_quadric_passes)


@cache
def _rank_cases():
    """200 matrices over F_2..F_7 of 1-4 dense rows, half of them with a
    row that is a sum of multiples of the others.  The probe's forms have
    sparse gradients, whose dependent rows are mostly zero or equal: the
    line-scan check above catches a difference left unreduced mod q only on
    the prefix case whose two gradient rows are proportional by 2 mod 7."""
    rng = random.Random(17)
    cases = []
    for _ in range(200):
        q, ncols = rng.choice([2, 3, 5, 7]), rng.randint(2, 5)
        rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            rows.append([sum(rng.randrange(q) * row[j] for row in rows) % q for j in range(ncols)])
        rng.shuffle(rows)
        cases.append((rows, q))
    return cases


def rank_matches_gauss_jordan() -> bool:
    """``_rank`` over F_q equals the oracle's Gauss-Jordan rank."""
    for rows, q in _rank_cases():
        field = (lambda x: pow(x, -1, q), lambda x: x % q)
        try:
            if poly._rank(rows, *field) != rank_by_elimination(rows, *field):
                return False
        except ValueError:  # pow found no inverse: a pivot that is 0 mod q
            return False
    return True


def rank_matches_gauss_jordan_and_the_probe() -> bool:
    """Both checks of ``_rank``: on dense matrices, and through the probe
    on the prefix cases, one of which has two gradient rows proportional
    but not equal mod 7."""
    return rank_matches_gauss_jordan() and probe_matches_the_line_scan()


# --- the cross-check of a report ------------------------------------------------------

def resolve_fails_a_ledger_bound_off_the_formula() -> bool:
    """``test_resolve_fails_a_ledger_bound_off_the_formula``: with the
    ledger's bound raised by one, resolve exits 2, in text and --json, and
    its report reads "ok": false, "match": false and FAIL."""
    (code, out), (text_code, text) = _resolve_with_the_bound_off_by_one()
    report = json.loads(out)
    return (
        code == text_code == cli.EXIT_FAIL
        and report["ok"] is False
        and report["results"]["cross_check"]["match"] is False
        and "\ncross-check vs formula 7/3 (≈2.33333): FAIL\n" in text
    )


# --- the two writers ---------------------------------------------------------------------

# lists and tuples of only ints, of only strings, of ints with a bool, nested
# ones, and a rational beside its near misses
_JSON_CORPUS = [
    [1, 2, 3], ["a", "b"], [1, True, 2], [False], [None, "x", 0, -7],
    (1, 2, 3), ("a",), (1, True), (), ((1, 2), [("x", False)], {"t": (None, ())}),
    {"a": [True, [1, 2], {"b": False}], "c": 10**30}, {"num": 1, "den": 2}, {"num": True, "den": 2},
    [{"num": -3, "den": 4}, [], {}, ["é"]],
]


def json_writer_matches_the_stdlib() -> bool:
    """``_json_text`` writes what ``json.dumps(sort_keys=True)`` writes, a
    bool in a list or a tuple of ints included."""
    return all(cli._json_text(value) == json.dumps(value, sort_keys=True) for value in _JSON_CORPUS)


def json_writer_refuses_what_no_report_holds() -> bool:
    """``test_json_writer_rejects_what_no_report_holds``: ``_json_text``
    raises TypeError on each of its values, among them those the C encoder
    would write silently: a str or int subclass and a non-str key."""
    for value in NOT_IN_A_REPORT.values():
        try:
            cli._json_text(value)
        except TypeError:
            continue
        return False
    return True


_POLYS = [
    ("x1^2*x2 - 3/2*x2^3 + x1 - 7", ("x1", "x2")),
    ("a*b^4*c^2 + 2*a^10", ("a", "b", "c")),
    ("x^3 + y", ("x", "y")),
]


def poly_text_round_trips() -> bool:
    """``parse_poly(str(f), f.variables) == f``: the monomial writer writes
    the grammar the parser reads."""
    for text, names in _POLYS:
        f = parse_poly(text, names)
        try:
            if parse_poly(str(f), names) != f:
                return False
        except PolyParseError:
            return False
    return True


class Mutant(NamedTuple):
    owner: object  # the module or class that holds the function
    name: str
    old: str
    new: str
    check: Callable[[], bool]


MUTANTS = {
    "pivot_divides_by_d_not_dens": Mutant(
        newton, "_pivot",
        "col = [(x * p - g * a) // e for",
        "col = [(x * p - g * a) // d for",
        simplex_matches_full_tableau,
    ),
    "entering_column_reads_a_stale_column": Mutant(
        newton, "_iterate",
        "column = [c + a * x for c, x in zip(column, _fresh(inverse, dens, k, d))]",
        "column = [c + a * x for c, x in zip(column, inverse[k])]",
        simplex_matches_full_tableau,
    ),
    "bland_takes_the_last_eligible_column": Mutant(
        newton, "_iterate",
        "for j, entries in enumerate(columns):",
        "for j, entries in reversed(list(enumerate(columns))):",
        simplex_matches_full_tableau,
    ),
    "ratio_tie_goes_to_the_larger_basis_index": Mutant(
        newton, "_iterate",
        "basis[r] < basis[leave]",
        "basis[r] > basis[leave]",
        simplex_matches_full_tableau,
    ),
    "start_rhs_slot_is_zero": Mutant(
        newton, "_solve_diagonal_lp",
        "+ [[1] * dim]",
        "+ [[0] * dim]",
        slack_start_is_a_feasible_basis,
    ),
    "points_priced_at_zero": Mutant(
        newton, "_solve_diagonal_lp",
        "cost = [-1] * npts",
        "cost = [0] * npts",
        simplex_matches_full_tableau,
    ),
    "verify_drops_the_dual_sum_check": Mutant(
        DiagonalResult, "verify",
        "if any(x < 0 for x in v) or sum(v) > v_den:",
        "if any(x < 0 for x in v):",
        verify_rejects_dual_summing_above_one,
    ),
    "blowup_discrepancy_off_by_one": Mutant(
        resolution, "_blowup",
        "width - 1 + k",
        "width + k",
        resolution_passes_its_own_checks,
    ),
    "ledger_rows_start_at_n": Mutant(
        resolution, "ledger_rows",
        "initial=profile.n - 1",
        "initial=profile.n",
        resolution_passes_its_own_checks,
    ),
    "levels_centre_one_too_wide": Mutant(
        resolution, "_levels",
        "[(q, d, d - low)",
        "[(q + 1, d, d - low)",
        resolution_matches_the_chart_oracle,
    ),
    "start_chart_squares_the_strict_parts": Mutant(
        resolution, "_start_chart",
        "+ (1,) +",
        "+ (2,) +",
        resolution_matches_the_chart_oracle,
    ),
    "principal_check_drops_the_pivot_comparison": Mutant(
        resolution, "simulate_resolution",
        "+ (closed_a,) +",
        "+ (g[p],) +",
        vj_check_raises_a_generator_off_its_closed_form,
    ),
    "vj_check_reads_the_next_generator": Mutant(
        resolution, "simulate_resolution",
        "ideal[p - 1 : p], totals[p - 1 : p]",
        "ideal[p : p + 1], totals[p : p + 1]",
        resolution_matches_the_chart_oracle,
    ),
    "principal_check_reads_the_next_total": Mutant(
        resolution, "simulate_resolution",
        "totals[p - 1 : p]",
        "totals[p : p + 1]",
        vj_generators_have_their_closed_form,
    ),
    "vj_check_drops_its_deferred_raise": Mutant(
        resolution, "simulate_resolution",
        "if fault is not None:\n        raise ResolutionError(fault)\n",
        "\n",
        vj_check_raises_a_generator_off_its_closed_form,
    ),
    "ledger_ratio_drops_the_one": Mutant(
        resolution, "simulate_resolution",
        "Fraction(k + 1, a)",
        "Fraction(k, a)",
        resolution_matches_the_chart_oracle,
    ),
    "side_chain_end_bound_lowered_by_one": Mutant(
        resolution, "simulate_resolution",
        "max(d, closed_a)",
        "max(d, closed_a - 1)",
        resolution_passes_its_own_checks,
    ),
    "level_end_drops_its_degree_comparison": Mutant(
        resolution, "simulate_resolution",
        "and power != closed_a",
        "and False",
        level_end_is_compared_with_its_degree,
    ),
    "chart_check_reads_only_the_z0_column": Mutant(
        resolution, "simulate_resolution",
        "and ideal != closed:",
        "and [g[0] for g in ideal] != [g[0] for g in closed]:",
        followed_chart_is_compared_whole,
    ),
    "chart_fault_renders_the_closed_form": Mutant(
        resolution, "simulate_resolution",
        "_render(names, ideal)",
        "_render(names, closed)",
        followed_chart_is_compared_whole,
    ),
    "resolution_budget_refuses_its_exact_work": Mutant(
        resolution, "_check_resolution_budget",
        "if work > RESOLVE_BUDGET:",
        "if work >= RESOLVE_BUDGET:",
        resolution_budget_admits_its_exact_work,
    ),
    "axis_cap_cuts_below_the_budget": Mutant(
        resolution, "_check_budget",
        "min(axis, SCAN_BUDGET + 1)",
        "min(axis, SCAN_BUDGET - 1)",
        chain_grid_axis_is_cut_just_over_the_budget,
    ),
    "scan_bound_refuses_one": Mutant(
        resolution, "_check_scan_bound",
        "if bound < 1:",
        "if bound < 2:",
        scan_bound_of_one_is_accepted,
    ),
    "valuation_certificate_drops_its_cap": Mutant(
        resolution, "valuation_certificate",
        "min(cap, left)",
        "left",
        certificates_verify,
    ),
    "valuation_verify_drops_the_weight_sum": Mutant(
        ValuationCertificate, "verify",
        "and sum(lams) == den\n",
        "\n",
        valuation_verify_rejects_weights_summing_below_one,
    ),
    "chain_verify_drops_its_sign_test": Mutant(
        ChainCertificate, "verify",
        "if sign != (gap > 0) - (gap < 0):",
        "if sign not in (-1, 0, 1):",
        chain_verify_rejects_every_flipped_sign,
    ),
    "candidates_pivot_on_a_tie": Mutant(
        exponent, "exponent_candidates",
        "if pivot is None and prefix > total:",
        "if pivot is None and prefix >= total:",
        candidates_match_the_fraction_oracle,
    ),
    "candidates_subtract_the_previous_prefix": Mutant(
        exponent, "exponent_candidates",
        "Fraction(i * m + total - prefix, m)",
        "Fraction(i * m + total - (prefix - m), m)",
        pivot_charts_give_the_exponent,
    ),
    "cone_formula_drops_the_degree_one_shift": Mutant(
        exponent, "cone_formula",
        "shift + alpha, shift + min(alpha, Fraction(r))",
        "alpha, min(alpha, Fraction(r))",
        degree_one_formula_matches_the_weighted_route,
    ),
    "cone_formula_reads_rational_as_log_canonical": Mutant(
        exponent, "cone_formula",
        "rational, log_canonical = alpha > r, alpha >= r",
        "rational, log_canonical = alpha >= r, alpha >= r",
        cone_formula_passes_its_degree_sum_check,
    ),
    "weighted_order_drops_its_denominator": Mutant(
        poly, "_weighted_order",
        "for u in f.terms), den)",
        "for u in f.terms))",
        weighted_order_matches_fractions,
    ),
    "every_root_counts_as_simple": Mutant(
        poly, "_zeros",
        "return roots, multiple",
        "return roots, []",
        probe_matches_the_line_scan,
    ),
    "zero_prefix_keeps_the_origin": Mutant(
        poly, "_vanishing_points",
        "if t == 1 or prefix != zero:",
        "if t <= 1 or prefix != zero:",
        probe_passes_a_smooth_quadric,
    ),
    "memo_keyed_by_the_first_input_alone": Mutant(
        poly, "_vanishing_points",
        "memo.get(key)\n        if points is None:\n"
        "            zeros = [_zeros(parts, key[span], q) for parts, span in split]\n            points = memo[key]",
        "memo.get(key[split[0][1]])\n        if points is None:\n"
        "            zeros = [_zeros(parts, key[span], q) for parts, span in split]\n            points = memo[key[split[0][1]]]",
        probe_matches_the_line_scan,
    ),
    "last_partial_drops_its_exponent": Mutant(
        poly, "_zeros",
        "e * c * pow(t, e - 1, q)",
        "c * pow(t, e - 1, q)",
        probe_matches_the_line_scan,
    ),
    "independent_row_needs_every_entry": Mutant(
        poly, "_independent",
        "return any(_eval_power_terms(gm, point, q) for gm in grads[vanishing[0]])",
        "return all(_eval_power_terms(gm, point, q) for gm in grads[vanishing[0]])",
        probe_matches_the_line_scan,
    ),
    "rank_skips_the_first_free_row": Mutant(
        poly, "_rank",
        "for r in range(rank, len(mat)):",
        "for r in range(rank + 1, len(mat)):",
        probe_matches_the_line_scan,
    ),
    "rank_leaves_a_difference_unreduced": Mutant(
        poly, "_rank",
        "mat[r] = [reduce(x - factor * y) for",
        "mat[r] = [x - factor * y for",
        rank_matches_gauss_jordan_and_the_probe,
    ),
    "resolve_cross_check_always_matches": Mutant(
        cli, "run_resolve",
        "match = report.lower_bound == formula_value",
        "match = True",
        resolve_fails_a_ledger_bound_off_the_formula,
    ),
    "json_check_admits_a_subclass_in_a_list": Mutant(
        cli, "_check_json",
        "for item in value:\n            if type(item) not in _JSON_SCALARS:",
        "for item in value:\n            if not isinstance(item, (str, int, type(None))):",
        json_writer_refuses_what_no_report_holds,
    ),
    "json_writer_drops_its_sorted_keys": Mutant(
        cli, "_json_text",
        "return _encode(value)",
        "return json.dumps(value)",
        json_writer_matches_the_stdlib,
    ),
    "render_writes_a_python_power": Mutant(
        poly, "_render",
        'f"{name}^{e}"',
        'f"{name}**{e}"',
        poly_text_round_trips,
    ),
}


def _install(monkeypatch, mutant: Mutant) -> None:
    function = getattr(mutant.owner, mutant.name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(mutant.old) == 1, f"{mutant.name} no longer holds {mutant.old!r}"
    namespace: dict = {}
    exec(compile(source.replace(mutant.old, mutant.new), inspect.getfile(function), "exec"),
         function.__globals__, namespace)
    mutated = namespace[mutant.name]
    mutated.unmutated = function  # read by _test_passes
    monkeypatch.setattr(mutant.owner, mutant.name, mutated)


@pytest.mark.parametrize("key", MUTANTS)
def test_check_passes_on_the_library(key):
    assert MUTANTS[key].check()


@pytest.mark.parametrize("key", MUTANTS)
def test_check_catches_the_mutant(key, monkeypatch):
    mutant = MUTANTS[key]
    _install(monkeypatch, mutant)
    assert not mutant.check(), f"no check catches {key}"


def test_a_shifted_candidate_is_caught_by_the_chart_oracle(monkeypatch):
    # the library pass reads every profile's table first; each check builds
    # its profiles afresh, so no table cached before the mutant hides it,
    # and the ledger's bound no longer equals the formula's
    assert resolution_matches_the_chart_oracle()
    _install(monkeypatch, MUTANTS["candidates_subtract_the_previous_prefix"])
    assert not resolution_matches_the_chart_oracle()


def test_an_unreduced_rank_is_caught_by_both_of_its_checks(monkeypatch):
    # the dense matrices catch it, and so does the probe on its own cases
    _install(monkeypatch, MUTANTS["rank_leaves_a_difference_unreduced"])
    assert not rank_matches_gauss_jordan()
    assert not probe_matches_the_line_scan()


def test_a_memo_keyed_by_the_first_input_is_caught_by_the_random_diagonal_sets(monkeypatch):
    # the prefix cases catch it, and so do the random diagonal sets alone,
    # whose scans run far: the memo's one-input key changes 47 of 200 reports
    test = test_poly.test_probe_matches_line_scan_oracle_on_diagonal_sets
    assert _test_passes(test)
    _install(monkeypatch, MUTANTS["memo_keyed_by_the_first_input_alone"])
    assert not _test_passes(test)


# a dense support of dimension 5 on which the simplex under
# pivot_divides_by_d_not_dens cycles: without the revisit check it runs past
# 5,000 pivots, and with it the solve stops at its ninth pivot.  Of 3,000
# supports drawn as _random_points(rng, rng.randint(5, 9), rng.randint(8,
# 16), 6) with rng = random.Random(7), that mutant revisits a basis on 531;
# this is the first drawn of the smallest (dimension 5, 8 points).
_CYCLING_SUPPORT = [
    [0, 1, 2, 4, 5], [1, 4, 5, 2, 3], [3, 0, 5, 1, 6], [3, 5, 4, 4, 5],
    [3, 6, 6, 3, 5], [4, 6, 1, 5, 1], [5, 3, 6, 1, 5], [5, 5, 6, 5, 5],
]


def test_a_revisited_basis_propagates_through_the_cli(monkeypatch, capsys):
    # an internal fault, as a ResolutionError is: no report, no exit code
    argv = ["newton", "--support", json.dumps(_CYCLING_SUPPORT), "--json"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    _install(monkeypatch, MUTANTS["pivot_divides_by_d_not_dens"])
    with pytest.raises(RuntimeError, match="^the simplex revisited a basis; impossible under Bland's rule$"):
        cli.main(argv)
    assert capsys.readouterr().out == ""

"""A standing table of mutants: each entry is a plausible fault in a library
function and the check that must catch it.

A mutant is made from the function's own source: one snippet, which must
occur exactly once, is replaced, and the mutated function is compiled in the
module's namespace and monkeypatched in.  A refactor that renames a function
or rewrites a snippet makes its entry fail here, so the entry is updated
with it instead of lost.  Each check first passes on the library as it is,
then must fail under the mutant.
"""

from __future__ import annotations

import inspect
import itertools
import random
import textwrap
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

import pytest

from _oracles import diagonal_lp_by_full_tableau
from minexp import newton
from minexp.newton import DiagonalResult
from test_newton import _certificate, _cone_support, _random_points

F = Fraction

# a solve of the library takes at most 41 pivots on the supports below; a
# mutant whose pivot rule cycles is stopped after this many and is caught
PIVOT_CAP = 1_000


class _Cycling(RuntimeError):
    pass


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
    and raises none of its own ``RuntimeError`` checks."""
    for pts, expected in _oracle_results():
        try:
            if newton._solve_diagonal_lp(pts) != expected:
                return False
        except RuntimeError:  # the solver's own checks, or the pivot cap
            return False
    return True


def verify_rejects_dual_summing_above_one() -> bool:
    """The ``(F(1, 2), F(1))`` case of ``test_verify_rejects_each_broken_condition``:
    the dual's minimum over the points is c = 1, but it sums to 3/2."""
    return not _certificate(1, (0, 1, 0), (F(1, 2), F(1))).verify()


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
        "for j in allowed:",
        "for j in reversed(allowed):",
        simplex_matches_full_tableau,
    ),
    "ratio_tie_goes_to_the_larger_basis_index": Mutant(
        newton, "_iterate",
        "basis[r] < basis[leave]",
        "basis[r] > basis[leave]",
        simplex_matches_full_tableau,
    ),
    "verify_drops_the_dual_sum_check": Mutant(
        DiagonalResult, "verify",
        "if any(x < 0 for x in v) or sum(v) > v_den:",
        "if any(x < 0 for x in v):",
        verify_rejects_dual_summing_above_one,
    ),
}


def _install(monkeypatch, mutant: Mutant) -> None:
    function = getattr(mutant.owner, mutant.name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(mutant.old) == 1, f"{mutant.name} no longer holds {mutant.old!r}"
    namespace: dict = {}
    exec(compile(source.replace(mutant.old, mutant.new), inspect.getfile(function), "exec"),
         function.__globals__, namespace)
    monkeypatch.setattr(mutant.owner, mutant.name, namespace[mutant.name])


@pytest.mark.parametrize("key", MUTANTS)
def test_check_passes_on_the_library(key):
    assert MUTANTS[key].check()


def _cap_pivots(monkeypatch) -> None:
    """Raise ``_Cycling`` once one solve has made PIVOT_CAP pivots."""
    pivot, solve = newton._pivot, newton._solve_diagonal_lp
    count = 0

    def capped_pivot(*args):
        nonlocal count
        count += 1
        if count > PIVOT_CAP:
            raise _Cycling
        return pivot(*args)

    def counted_solve(pts):
        nonlocal count
        count = 0
        return solve(pts)

    monkeypatch.setattr(newton, "_pivot", capped_pivot)
    monkeypatch.setattr(newton, "_solve_diagonal_lp", counted_solve)


@pytest.mark.parametrize("key", MUTANTS)
def test_check_catches_the_mutant(key, monkeypatch):
    mutant = MUTANTS[key]
    _install(monkeypatch, mutant)
    _cap_pivots(monkeypatch)
    assert not mutant.check(), f"no check catches {key}"

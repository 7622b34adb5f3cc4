"""Blow-up chart calculus, the divisor ledger and the certificates of verify."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import _oracles
import test_mutants
from _oracles import (
    EXCEPTIONAL,
    PLAIN,
    STRICT,
    ChartState,
    Coordinate,
    blowup_chart,
    TableProfile,
    chain_grid_by_points,
    descent_chain_by_fractions,
    simulate_resolution_by_charts,
    valuation_scan_by_grid,
)
from minexp import resolution as rs
from minexp.cli import EXIT_OK, main
from minexp.exponent import DegreeProfile
from minexp.resolution import (
    LOG_RESOLUTION,
    STRONG_FACTORIZING,
    FactorizationWitness,
)
from test_acceptance import _pivot_chart_routes

F = Fraction
DATA = Path(__file__).parent / "data"


def _resolve_results(capsys, n, degrees):
    """The results of ``resolve --json``, where the CLI builds them from the library report."""
    assert main(["resolve", "--n", str(n), "--degrees", ",".join(map(str, degrees)), "--json"]) == EXIT_OK
    return json.loads(capsys.readouterr().out)["results"]


def test_grouped_degrees(capsys):
    # the degrees group into levels (value, multiplicity); the side chain of
    # level l ends in the chart after e_l - e_0 blow-ups, in a pure power e_l
    report = rs.simulate_resolution(DegreeProfile(8, (2, 2, 3, 5, 5, 5)))
    assert report.levels == ((2, 2), (3, 1), (5, 3))
    assert _resolve_results(capsys, 8, (2, 2, 3, 5, 5, 5))["levels"] == [[2, 2], [3, 1], [5, 3]]
    assert [(c.level, c.principal) for c in report.case3] == [(1, "u0^3"), (2, "w0^5")]
    assert len(report.ledger) == 5 - 2 + 1


def _two_gen_state():
    coords = (
        Coordinate("z0", EXCEPTIONAL, a=2, k=5),
        Coordinate("z1", STRICT),
        Coordinate("z2", STRICT),
        Coordinate("z3", PLAIN),
    )
    ideal = ((2, 1, 0, 0), (3, 0, 1, 0))
    return ChartState(coords, ideal)


def test_blowup_pivot_on_exceptional():
    state = _two_gen_state()
    charts = blowup_chart(state, ["z0", "z1"])
    pivot0 = next(c for c in charts if c.born_pivot == "z0")
    assert pivot0.render_ideal() == "(u0^3*u1, u0^3*u2)"
    newc = pivot0.coords[0]
    assert newc.role == EXCEPTIONAL and newc.a == 3 and newc.k == 6
    assert [c.role for c in pivot0.coords] == [EXCEPTIONAL, STRICT, STRICT, PLAIN]


def test_blowup_pivot_on_strict_is_divisorial():
    state = _two_gen_state()
    charts = blowup_chart(state, ["z0", "z1"])
    pivot1 = next(c for c in charts if c.born_pivot == "z1")
    assert pivot1.render_ideal() == "(u0^2*u1^3, u0^3*u1^3*u2)"
    # the first generator divides the second: principal, supported on u0, u1
    assert pivot1.coords[1].role == EXCEPTIONAL
    assert pivot1.coords[1].a == 3 and pivot1.coords[1].k == 6
    assert pivot1.coords[0].role == EXCEPTIONAL  # strict transform of the old divisor


def test_blowup_zero_ideal_is_identity_like():
    coords = (Coordinate("z0", PLAIN), Coordinate("z1", PLAIN))
    state = ChartState(coords, ())
    charts = blowup_chart(state, ["z0", "z1"])
    assert len(charts) == 2
    for i, chart in enumerate(charts):
        assert chart.ideal == ()
        assert chart.render_ideal() == "(0)"
        # no generator: the new divisor has multiplicity a = 0, and k = |center| - 1
        assert chart.coords[i] == Coordinate(f"u{i}", EXCEPTIONAL, 0, 1)
    _assert_public_checks_pass(charts)


def test_blowup_validation():
    state = _two_gen_state()
    with pytest.raises(ValueError, match="^center must contain at least two coordinates$"):
        blowup_chart(state, ["z0"])
    with pytest.raises(ValueError, match="^center must contain at least two coordinates$"):
        blowup_chart(state, ["z1", "z1"])  # repeats count once
    with pytest.raises(ValueError, match="^center coordinate 'nope' is not in the chart$"):
        blowup_chart(state, ["z0", "nope"])


@pytest.mark.parametrize(
    "target, field, value, message",
    [
        (None, "ideal", ((2, 1, 0),), r"^generator \(2, 1, 0\) does not match the coordinate count$"),
        (None, "ideal", ((2, 1, 0, -1),), r"^generator \(2, 1, 0, -1\) must have nonnegative integer exponents$"),
        (None, "ideal", ((2, 1.5, 0, 0),), r"^generator \(2, 1.5, 0, 0\) must have nonnegative integer exponents$"),
        (None, "ideal", ((0, 0, 0, 0),), "^a generator is the unit monomial; not a proper ideal$"),
        (0, "a", -1, "^negative ledger tags on u0$"),
        (0, "k", None, r"^exceptional coordinate u0 needs \(a, k\) tags$"),
        (1, "a", 2, "^non-exceptional coordinate u1 cannot carry tags$"),
        (3, "role", "bogus", "^unknown coordinate role 'bogus'$"),
    ],
)
def test_blowup_checks_the_data_its_charts_share(target, field, value, message):
    # blowup_chart runs the chart and coordinate checks once per blow-up, on
    # the parent's generators and the renamed coordinates: a parent altered
    # after its own checks is caught by the blow-up
    state = _two_gen_state()
    object.__setattr__(state if target is None else state.coords[target], field, value)
    with pytest.raises(ValueError, match=message):
        blowup_chart(state, ["z0", "z1"])


def test_chart_state_validation():
    with pytest.raises(ValueError, match="^unknown coordinate role 'bogus'$"):
        Coordinate("z0", "bogus")
    with pytest.raises(ValueError, match=r"^exceptional coordinate z0 needs \(a, k\) tags$"):
        Coordinate("z0", EXCEPTIONAL)
    with pytest.raises(ValueError, match=r"^exceptional coordinate z0 needs \(a, k\) tags$"):
        Coordinate("z0", EXCEPTIONAL, a=1)
    for a, k in [(-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match="^negative ledger tags on z0$"):
            Coordinate("z0", EXCEPTIONAL, a=a, k=k)
    for role, a, k in [(STRICT, 1, 1), (STRICT, None, 1), (PLAIN, 1, None)]:
        with pytest.raises(ValueError, match="^non-exceptional coordinate z1 cannot carry tags$"):
            Coordinate("z1", role, a=a, k=k)

    two = (Coordinate("z0", PLAIN), Coordinate("z1", PLAIN))
    with pytest.raises(ValueError, match=r"^duplicate coordinate names: \['z0', 'z0'\]$"):
        ChartState((two[0], two[0]), ((1, 0),))
    with pytest.raises(ValueError, match=r"^generator \(1,\) does not match the coordinate count$"):
        ChartState(two, ((1, 0), (1,)))
    for bad in [(1, -1), (1.0, 0), ("1", 0), (None, 1)]:
        with pytest.raises(ValueError, match="must have nonnegative integer exponents$"):
            ChartState(two, ((1, 0), bad))
    with pytest.raises(ValueError, match="^a generator is the unit monomial; not a proper ideal$"):
        ChartState((two[0],), ((0,),))
    # the first generator that fails is the one named, whatever fails later
    with pytest.raises(ValueError, match=r"^generator \(0, -2\) must have"):
        ChartState(two, ((0, -2), (1,), (0, 0)))
    with pytest.raises(ValueError, match=r"^generator \(1,\) does not match"):
        ChartState(two, ((1,), (0, -2)))
    # bool is an int, as before
    assert ChartState(two, [[True, 0]]).ideal == ((True, 0),)


def _assert_public_checks_pass(charts):
    """Every chart rebuilt through the validating constructors is itself."""
    for chart in charts:
        assert ChartState(chart.coords, chart.ideal, chart.depth, chart.born_pivot, chart.born_pivot_index) == chart
        for c in chart.coords:
            assert Coordinate(c.name, c.role, c.a, c.k) == c


def _blowups_of_resolution(profile, monkeypatch):
    """The charts of each blow-up step made while ``profile`` is resolved,
    one list per step, each chart rebuilt through the public ChartState and
    Coordinate: the generators the step's totals determine for each pivot
    (``_pivot_chart``), under the names of the step's depth, with z0 tagged
    as in the parent and the pivot tagged as the new divisor.  The parent's z0 carries the previous step's (a, k),
    or (d_1, n - 1) at the first step; every other coordinate of the main
    chain is strict."""
    step = rs._blowup
    calls = []
    parent_tags = [(profile.degrees[0], profile.n - 1)]

    def recording(ideal, k, width):
        assert k == parent_tags[-1][1]
        a, k, totals = step(ideal, k, width)
        depth = len(calls) + 1
        names, parent = rs._names(depth, len(ideal[0])), rs._names(depth - 1, len(ideal[0]))
        rebuilt = []
        tags = [parent_tags[-1]] + [None] * (len(names) - 1)
        for p in range(width):
            chart = rs._pivot_chart(ideal, totals, p)
            chart_tags = tags[:p] + [(a, k)] + tags[p + 1 :]
            coords = [
                Coordinate(name, STRICT, None, None) if tag is None else Coordinate(name, EXCEPTIONAL, *tag)
                for name, tag in zip(names, chart_tags)
            ]
            rebuilt.append(ChartState(coords, chart, depth, parent[p], p))
        calls.append(rebuilt)
        parent_tags.append((a, k))
        return a, k, totals

    with monkeypatch.context() as patch:
        patch.setattr(rs, "_blowup", recording)
        rs.simulate_resolution(profile)
    return calls


def _oracle_blowups(profile, monkeypatch):
    """The charts of each blowup_chart call of the chart oracle on ``profile``."""
    calls = []

    def recording(state, center):
        charts = blowup_chart(state, center)
        calls.append(charts)
        return charts

    with monkeypatch.context() as patch:
        patch.setattr(_oracles, "blowup_chart", recording)
        simulate_resolution_by_charts(profile)
    return calls


def _golden_profiles():
    cases = json.loads((DATA / "golden_resolve_reports.json").read_text())
    argvs = {tuple(case["argv"][:5]) for case in cases}
    return [DegreeProfile(6, (2, 3))] + [
        DegreeProfile(int(argv[2]), tuple(map(int, argv[4].split(",")))) for argv in sorted(argvs)
    ]


def _c3_grid():
    """Every profile of the C3 grid: n <= 12, r <= 4, degrees 2..8."""
    for n in range(1, 13):
        for r in range(1, min(4, n) + 1):
            for degrees in itertools.combinations_with_replacement(range(2, 9), r):
                yield DegreeProfile(n, degrees)


def _c3_sample():
    """Three profiles from each (n, r) stratum of the C3 grid."""
    rng = random.Random(3)
    for n in range(1, 13):
        for r in range(1, min(4, n) + 1):
            stratum = list(itertools.combinations_with_replacement(range(2, 9), r))
            for degrees in rng.sample(stratum, 3):
                yield DegreeProfile(n, degrees)


WIDE = DegreeProfile(60, tuple(range(2, 40)))
# r = 89: 88 side chains and 3,916 vj checks, past every golden file and the
# chart oracle's reach
WIDEST = DegreeProfile(200, tuple(range(2, 91)))


def test_derived_charts_pass_the_public_checks(monkeypatch):
    # every chart of every blow-up step, rebuilt through the validating
    # constructors, is the chart oracle's chart of the same blow-up
    profiles = _golden_profiles() + list(_c3_sample()) + [WIDE, DegreeProfile(40, (3, 5, 19, 24))]
    assert len(profiles) == 5 + 3 * 42 + 2
    total = 0
    for profile in profiles:
        charts = _blowups_of_resolution(profile, monkeypatch)
        assert charts == _oracle_blowups(profile, monkeypatch), profile
        total += sum(map(len, charts))
    assert total > 1000


def test_resolution_matches_the_chart_oracle(monkeypatch):
    # every report field, and the generators of every pivot chart, which the
    # chain determines by its totals and does not build, and a vj check
    # gives by its generator alone; the oracle's terminal chart carries the
    # last ledger row's tags and gives the witness
    blowup, oracle_blowup = rs._blowup, _oracles.blowup_chart
    library, oracle = [], []

    def library_pivot_charts(ideal, k, width):
        a, k, totals = blowup(ideal, k, width)
        library.append([tuple(rs._pivot_chart(ideal, totals, p)) for p in range(1, width)])
        return a, k, totals

    def oracle_pivot_charts(state, center):
        charts = oracle_blowup(state, center)
        oracle.append([chart.ideal for chart in charts[1:]])
        return charts

    monkeypatch.setattr(rs, "_blowup", library_pivot_charts)
    monkeypatch.setattr(_oracles, "blowup_chart", oracle_pivot_charts)
    profiles = list(_c3_grid()) + _golden_profiles() + [WIDE]
    assert len(profiles) == 3122 + 5 + 1
    pivot_charts = 0
    for profile in profiles:
        library.clear()
        oracle.clear()
        report = rs.simulate_resolution(profile)
        expected, _, terminal = simulate_resolution_by_charts(profile)
        assert report == expected, profile
        assert library == oracle, profile
        assert sum(map(len, library)) == len(report.vj_checks), profile
        pivot_charts += len(report.vj_checks)
        last = report.ledger[-1]
        assert [(c.a, c.k) for c in terminal.coords if c.role == EXCEPTIONAL] == [(last.a, last.k)], profile
        if report.mode == STRONG_FACTORIZING:
            assert _oracles._factorization_witness(terminal, profile) == report.witness, profile
        else:
            assert report.witness is None, profile
    assert pivot_charts == 18004 + 71 + 703  # the C3 grid, the golden profiles, WIDE


def test_pivot_charts_are_determined_by_the_ledger(monkeypatch):
    # a vj check gives no chart: the chart of pivot z_p made with E_j is
    # E_{j-1}'s followed chart, (z0^max(d_i, a) z_i)_i with a row E_{j-1}'s
    # multiplicity, with each z_p exponent replaced by the generator's total
    # over row E_j's centre
    for profile in _golden_profiles() + list(_c3_sample()) + [WIDE]:
        steps = _blowups_of_resolution(profile, monkeypatch)
        report = rs.simulate_resolution(profile)
        assert len(steps) == len(report.ledger) - 1, profile
        unit = [(0,) * (i - 1) + (1,) + (0,) * (profile.r - i) for i in range(1, profile.r + 1)]
        for charts, before, row in zip(steps, report.ledger, report.ledger[1:]):
            ideal = [(max(d, before.a),) + z for d, z in zip(profile.degrees, unit)]
            width = len(row.center)
            for p, chart in enumerate(charts[1:], 1):
                assert chart.ideal == tuple(g[:p] + (sum(g[:width]),) + g[p + 1 :] for g in ideal), (profile, row)


@pytest.mark.parametrize("profile", [WIDE, DegreeProfile(24, (2, 2, 4, 7, 7))], ids=["n60", "golden_n24"])
def test_side_chains_make_no_blowups(monkeypatch, profile):
    # each side chain is read off the main chain: one blow-up step per
    # main-chain blow-up after the origin, none replayed
    report = rs.simulate_resolution(profile)
    assert len(report.case3) == len(report.levels) - 1 > 1
    assert len(_blowups_of_resolution(profile, monkeypatch)) == profile.degrees[-1] - profile.degrees[0]


def test_side_chain_check_is_derived_from_the_main_chain(monkeypatch):
    # (6; 2,3) with its one level's degree lowered to e_1 = 2, as the schedule
    # (q, e_1, count) = (1, 2, 1): the z1 chart of the one blow-up is
    # principal, generated by u0^2*u1^3, and the followed chart has its
    # closed form, so the ledger and both chart checks pass.  But the side
    # chain's pure power becomes u0^2*u1^2, which that generator does not
    # divide, and its end would read u0^2: the level's last blow-up makes
    # a = 3, not e_1.  With the real schedule (1, 3, 1) the two are equal.
    profile = DegreeProfile(6, (2, 3))
    levels = rs._levels(profile)[0]
    with monkeypatch.context() as patch:
        patch.setattr(rs, "_levels", lambda _: (levels, [(1, 2, 1)]))
        with pytest.raises(rs.ResolutionError, match=r"^level 1 ends in E2 of multiplicity 3, not its degree 2$"):
            rs.simulate_resolution(profile)
    report = rs.simulate_resolution(profile)
    rows = report.ledger[1:]
    assert [(row.center, row.divisor, row.a, row.k) for row in rows] == [(("z0", "z1"), "E2", 3, 6)]
    assert [(v.divisor, v.pivot, v.generator) for v in report.vj_checks] == [("E2", "z1", "u0^2*u1^3")]


def test_vj_generator_has_its_closed_form():
    # divisor E_j's check on the pivot of index i is generated by
    # L0^{a_{j-1}}*Li^{a_j}, L the letter of E_j's charts: z_i's strict
    # transform, its z0 exponent the last divisor's a and its pivot exponent
    # the new one's; the pivot is named in the letter of E_{j-1}'s charts.
    # The wide profiles are past the chart oracle's reach.  The chain is read
    # through the module, so that a mutant of it installed there is run.
    profiles = list(_c3_grid()) + [DegreeProfile(120, tuple(range(2, 61))), WIDEST]
    total = 0
    for profile in profiles:
        report = rs.simulate_resolution(profile)
        a = {row.divisor: row.a for row in report.ledger}
        for check in report.vj_checks:
            j = int(check.divisor[1:])
            letter, i = rs._letter(j - 1), check.pivot.removeprefix(rs._letter(j - 2))
            assert check.generator == f"{letter}0^{a[f'E{j - 1}']}*{letter}{i}^{a[check.divisor]}", (profile, check)
        # one check per pivot p >= 1 of each blow-up
        assert len(report.vj_checks) == sum(q * count for q, _, count in rs._levels(profile)[1]), profile
        total += len(report.vj_checks)
    assert len(report.vj_checks) == 3916
    assert total == 19715 + 3916


def test_side_chain_end_checks_its_cut_generators(monkeypatch):
    # (6; 2,2,4): level 1's side chain is cut to the q = 2 generators of
    # degree 2, and ends in the chart after E3, the last blow-up, where each
    # carries z0 to e_1 = 4.  A cut generator one power of z0 short there,
    # the first or the q-th, would leave that end short of v0^4; the chart
    # check raises it
    pivot_chart = rs._pivot_chart
    short = []

    def short_end(ideal, totals, p):
        chart = pivot_chart(ideal, totals, p)
        if p == 0 and chart[0][0] == 4:  # E3's, the only followed chart whose first generator carries z0^4
            j = short[0]
            chart[j] = (chart[j][0] - 1, *chart[j][1:])
        return chart

    profile = DegreeProfile(6, (2, 2, 4))
    assert [(c.level, c.principal) for c in rs.simulate_resolution(profile).case3] == [(1, "v0^4")]
    monkeypatch.setattr(rs, "_pivot_chart", short_end)
    for j, chart in [(0, r"v0\^3\*v1, v0\^4\*v2"), (1, r"v0\^4\*v1, v0\^3\*v2")]:
        short[:] = [j]
        message = rf"^chart of E3: \({chart}, v0\^4\*v3\) != closed form \(v0\^4\*v1, v0\^4\*v2, v0\^4\*v3\)$"
        with pytest.raises(rs.ResolutionError, match=message):
            rs.simulate_resolution(profile)


def test_followed_chart_is_compared_past_its_z0_column(monkeypatch):
    # (6; 2,3): E2's followed chart with the strict parts of its two
    # generators swapped keeps every z0 exponent, and the ledger, whose (a, k)
    # come from the totals, passes; the whole chart is off its closed form
    pivot_chart = rs._pivot_chart

    def swapped(ideal, totals, p):
        chart = pivot_chart(ideal, totals, p)
        return [(g[0], *h[1:]) for g, h in zip(chart, chart[::-1])] if p == 0 else chart

    monkeypatch.setattr(rs, "_pivot_chart", swapped)
    message = r"^chart of E2: \(u0\^3\*u2, u0\^3\*u1\) != closed form \(u0\^3\*u1, u0\^3\*u2\)$"
    with pytest.raises(rs.ResolutionError, match=message):
        rs.simulate_resolution(DegreeProfile(6, (2, 3)))


def test_side_chain_end_is_checked_after_the_ledger(monkeypatch):
    # the first blow-up's z0 chart loses one power of z0 in every generator,
    # so it is off its closed form and level 1's side chain would end short
    # of z0^{e_1}; with a level after it, the next divisor's a is short too,
    # and the ledger reports first
    pivot_chart = rs._pivot_chart
    depth = []

    def short_first_chart(ideal, totals, p):
        chart = pivot_chart(ideal, totals, p)
        if p == 0:
            depth.append(1)
            if len(depth) == 1:
                chart = [(g[0] - 1, *g[1:]) for g in chart]
        return chart

    monkeypatch.setattr(rs, "_pivot_chart", short_first_chart)
    message = r"^chart of E2: \(u0\^2\*u1, u0\^2\*u2\) != closed form \(u0\^3\*u1, u0\^3\*u2\)$"
    with pytest.raises(rs.ResolutionError, match=message):
        rs.simulate_resolution(DegreeProfile(6, (2, 3)))
    depth.clear()
    message = r"^ledger rows \[\(2, 7\), \(3, 8\), \(3, 10\), \(4, 12\)\] != closed form"
    with pytest.raises(rs.ResolutionError, match=message):
        rs.simulate_resolution(DegreeProfile(8, (2, 3, 5)))


def test_side_chain_ends_have_their_closed_form():
    # on the C3 grid and the widest profile, level l's side chain ends in the
    # chart after e_l - e_0 blow-ups, whose letter names z0's power e_l
    for profile in [*_c3_grid(), WIDEST]:
        report = rs.simulate_resolution(profile)
        e = [d for d, _ in report.levels]
        expected = [rs.Case3Report(m, f"{rs._letter(e[m] - e[0])}0^{e[m]}") for m in range(1, len(e))]
        assert list(report.case3) == expected, profile
    assert len(report.case3) == 88


def _chart_letter(depth):
    """The letter of the charts at ``depth``, as the reports print it."""
    return "zuvwstqm"[depth] if depth < 8 else f"c{depth}_"


@pytest.mark.parametrize("profile", [DegreeProfile(120, tuple(range(2, 61))), WIDEST], ids=["n120", "n200"])
def test_wide_reports_read_as_strings_built_here(profile):
    # past the chart oracle's reach, each side-chain end and the witness are
    # strings built here from the degrees alone: level l ends at depth
    # e_l - e_0 in L0^e_l, L the depth's letter; and the terminal chart, at
    # depth d_r - d_1, is L0^d_r times L1..Lr
    degrees, report = profile.degrees, rs.simulate_resolution(profile)
    e = sorted(set(degrees))
    assert [(c.level, c.principal) for c in report.case3] == [
        (m, f"{_chart_letter(e[m] - e[0])}0^{e[m]}") for m in range(1, len(e))
    ]
    letter = _chart_letter(degrees[-1] - degrees[0])
    residual = tuple(f"{letter}{j}" for j in range(1, len(degrees) + 1))
    assert report.witness == FactorizationWitness(f"{letter}0^{degrees[-1]}", residual)


def test_oracle_charts_read_as_strings_built_here():
    # the chart oracle renders every chart the main chain follows, which the
    # library checks against its closed form and does not render: after the
    # blow-up of depth t, whose divisor has a = d_1 + t, generator j is
    # L0^max(d_j, a)*Lj, L the depth's letter.  On (6; 2,3) these are C4's
    # hand-checked transforms
    assert simulate_resolution_by_charts(DegreeProfile(6, (2, 3)))[1] == ["(z0^2*z1, z0^3*z2)", "(u0^3*u1, u0^3*u2)"]
    profiles = [DegreeProfile(n, degrees) for n, degrees in test_mutants._PROFILES] + list(_c3_sample())
    charts = 0
    for profile in profiles:
        degrees = profile.degrees
        ideals = []
        for t in range(degrees[-1] - degrees[0] + 1):
            a, letter = degrees[0] + t, _chart_letter(t)
            ideals.append("(" + ", ".join(f"{letter}0^{max(d, a)}*{letter}{j}" for j, d in enumerate(degrees, 1)) + ")")
        assert simulate_resolution_by_charts(profile)[1] == ideals, profile
        charts += len(ideals)
    assert (len(profiles), charts) == (154 + 3 * 42, 683)


def _hand_built_chart(roles, ideal):
    """Coordinate names z0, z1, ... and a ChartState of those names with
    ``roles`` (each exceptional one tagged (1, 1)) and generators ``ideal``."""
    names = [f"z{i}" for i in range(len(roles))]
    coords = [
        Coordinate(name, role, *((1, 1) if role == EXCEPTIONAL else (None, None))) for name, role in zip(names, roles)
    ]
    return names, ChartState(coords, ideal)


@pytest.mark.parametrize(
    "pivot, ideal, message",
    [
        (1, [(2, 3, 0), (2, 3, 1)], None),
        (2, [(3, 1, 3), (2, 0, 3)], None),
        (1, [(1, 1, 1)], r"^principal generator z0\*z1\*z2 is not exceptional-supported$"),
        (2, [(1, 1, 2), (1, 1, 1)], r"^principal generator z0\*z1\*z2 is not exceptional-supported$"),
        (1, [(2, 1, 0), (1, 2, 0)], r"^ideal \(z0\^2\*z1, z0\*z1\^2\) is not principal$"),
        (1, [(1, 2, 0), (1, 1, 1)], r"^ideal \(z0\*z1\^2, z0\*z1\*z2\) is not principal$"),
    ],
    ids=["pivot", "pivot_2", "past_the_pivot", "before_the_pivot", "not_principal", "short_at_the_pivot"],
)
def test_principal_generator_lies_on_z0_and_the_pivot(pivot, ideal, message):
    # a chart off the main chain, of pivot p, has the exceptional coordinates
    # z0 and z_p, and generator p - 1 is z_p's own strict transform.  The
    # oracle searches the chart, of those roles, for its componentwise
    # minimum; the library compares that generator with its closed form
    # instead (test_vj_generator_off_its_closed_form_is_raised_after_the_ledger)
    _, chart = _hand_built_chart([EXCEPTIONAL if i in (0, pivot) else STRICT for i in range(3)], ideal)
    if message is None:
        assert _oracles._principal_exceptional_generator(chart) == ideal[pivot - 1]
    else:
        with pytest.raises(rs.ResolutionError, match=message):
            _oracles._principal_exceptional_generator(chart)


def test_vj_generator_off_its_closed_form_is_raised_after_the_ledger(monkeypatch):
    # (6; 2,4): the first pivot chart off the main chain, E2's on z1, gets
    # its pivot exponent raised by one, to u0^2*u1^4.  The followed chart
    # (p = 0) is left alone, so the ledger and the chart check pass: the
    # closed form u0^2*u1^3 fails.
    # The chain is read through the module, as a mutant of it is installed there.
    pivot_chart = rs._pivot_chart
    bumped = []

    def bump_first_pivot(ideal, totals, p):
        chart = pivot_chart(ideal, totals, p)
        if p and not bumped:
            bumped.append(p)
            chart = [g[:p] + (g[p] + 1,) + g[p + 1 :] for g in chart]
        return chart

    monkeypatch.setattr(rs, "_pivot_chart", bump_first_pivot)
    with pytest.raises(rs.ResolutionError, match=r"^vj check of E2 on z1: u0\^2\*u1\^4 != closed form u0\^2\*u1\^3$"):
        rs.simulate_resolution(DegreeProfile(6, (2, 4)))
    # with a ledger fault besides (every new a read as 0), the ledger reports first
    bumped.clear()
    blowup = rs._blowup
    monkeypatch.setattr(rs, "_blowup", lambda ideal, k, width: (0, *blowup(ideal, k, width)[1:]))
    with pytest.raises(rs.ResolutionError, match=r"^ledger rows \[\(2, 5\), \(0, 6\), \(0, 7\)\] != closed form"):
        rs.simulate_resolution(DegreeProfile(6, (2, 4)))
    assert bumped == [1]


def test_a_blowup_past_the_closed_form_is_a_ledger_fault(monkeypatch):
    # a schedule of two blow-ups for (6; 2,3)'s one degree step: E3 has no
    # closed-form row for its vj check to read, and the ledger reports the
    # extra row, not an IndexError
    profile = DegreeProfile(6, (2, 3))
    levels = rs._levels(profile)[0]
    monkeypatch.setattr(rs, "_levels", lambda _: (levels, [(1, 4, 2)]))
    message = r"^ledger rows \[\(2, 5\), \(3, 6\), \(3, 7\)\] != closed form \[\(2, 5\), \(3, 6\)\]$"
    with pytest.raises(rs.ResolutionError, match=message):
        rs.simulate_resolution(profile)


def _hand_built_witness(roles, ideal, r):
    """The oracle's factorization witness of a hand-built terminal chart of
    coordinates with ``roles`` and generators ``ideal``.  The library reads
    its witness off its terminal chart's closed form instead, which its
    chart check compares (test_side_chain_end_checks_its_cut_generators)."""
    _, chart = _hand_built_chart(roles, ideal)
    return _oracles._factorization_witness(chart, DegreeProfile(r + 1, (2,) * r))


@pytest.mark.parametrize(
    "roles, ideal, r, message",
    [
        ([EXCEPTIONAL, STRICT, STRICT], [(2, 1, 0), (2, 0, 2)], 2,
         r"^residual generator \(0, 0, 2\) is not a single coordinate$"),
        ([EXCEPTIONAL, STRICT, STRICT], [(2, 1, 1), (3, 1, 0)], 2,
         r"^residual generator \(0, 1, 1\) is not a single coordinate$"),
        ([EXCEPTIONAL, STRICT, STRICT], [(2, 1, 0), (3, 0, 0)], 2, "^residual coordinate z0 is not strict$"),
        ([EXCEPTIONAL, EXCEPTIONAL, STRICT], [(2, 1, 0), (2, 0, 1)], 2, "^residual coordinate z1 is not strict$"),
        ([EXCEPTIONAL, STRICT, PLAIN], [(2, 1, 0), (2, 0, 1)], 2, "^residual coordinate z2 is not strict$"),
        ([EXCEPTIONAL, STRICT, STRICT], [(2, 1, 0), (2, 1, 0)], 2,
         "^residual generators do not span r distinct coordinates$"),
        ([EXCEPTIONAL, STRICT, STRICT], [(2, 1, 0)], 2, "^residual generators do not span r distinct coordinates$"),
    ],
    ids=["power", "two_coordinates", "exceptional", "second_exceptional", "plain", "repeated", "too_few"],
)
def test_witness_rejects_a_terminal_chart_that_does_not_factor(roles, ideal, r, message):
    with pytest.raises(rs.ResolutionError, match=message):
        _hand_built_witness(roles, ideal, r)


def test_witness_of_a_hand_built_terminal_chart():
    witness = _hand_built_witness([EXCEPTIONAL, STRICT, STRICT], [(2, 1, 0), (2, 0, 1)], 2)
    assert witness == FactorizationWitness("z0^2", ("z1", "z2"))


@st.composite
def _charts_and_centers(draw):
    m = draw(st.integers(2, 6))
    coords = []
    for i in range(m):
        role = draw(st.sampled_from([EXCEPTIONAL, STRICT, PLAIN]))
        a, k = (draw(st.integers(0, 9)), draw(st.integers(0, 30))) if role == EXCEPTIONAL else (None, None)
        coords.append(Coordinate(f"x{i}", role, a, k))
    ideal = draw(st.lists(st.tuples(*[st.integers(0, 5)] * m).filter(any), max_size=5))
    names = [c.name for c in coords]
    center = draw(st.lists(st.sampled_from(names), min_size=2, max_size=m + 2).filter(lambda c: len(set(c)) > 1))
    return ChartState(coords, ideal, depth=draw(st.integers(0, 10))), center


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_charts_and_centers())
def test_random_blowups_pass_the_public_checks(case):
    state, center = case
    charts = blowup_chart(state, center)
    _assert_public_checks_pass(charts)
    pivots = [i for i, name in enumerate(state.names()) if name in center]
    assert [chart.born_pivot_index for chart in charts] == pivots
    totals = [sum(g[i] for i in pivots) for g in state.ideal]
    k = len(pivots) - 1 + sum(state.coords[i].k for i in pivots if state.coords[i].role == EXCEPTIONAL)
    for p, chart in zip(pivots, charts):
        assert chart.ideal == tuple(g[:p] + (t,) + g[p + 1 :] for g, t in zip(state.ideal, totals))
        assert chart.coords[p].role == EXCEPTIONAL
        assert (chart.coords[p].a, chart.coords[p].k) == (min(totals, default=0), k)
        others = [(c.role, c.a, c.k) for i, c in enumerate(chart.coords) if i != p]
        assert others == [(c.role, c.a, c.k) for i, c in enumerate(state.coords) if i != p]
    # the library's step on the centre of the first len(center) coordinates,
    # given the sum of the centre's discrepancies (in the main chain, z0's alone)
    width = len(pivots)
    k = sum(c.k for c in state.coords[:width] if c.role == EXCEPTIONAL)
    a, k, totals = rs._blowup(list(state.ideal), k, width)
    charts = blowup_chart(state, state.names()[:width])
    assert [rs._pivot_chart(state.ideal, totals, p) for p in range(width)] == [list(chart.ideal) for chart in charts]
    assert [(a, k)] * width == [(chart.coords[p].a, chart.coords[p].k) for p, chart in enumerate(charts)]


# --- the scripted resolution ---------------------------------------------------

def test_simulate_examples():
    rep = rs.simulate_resolution(DegreeProfile(4, (2, 3, 4)))
    assert [(r.a, r.k) for r in rep.ledger] == [(2, 3), (3, 4), (4, 6)]
    assert [r.ratio for r in rep.ledger] == [F(2), F(5, 3), F(7, 4)]
    assert rep.lower_bound == F(5, 3)
    assert len(rep.ledger) == 4 - 2 + 1

    rep = rs.simulate_resolution(DegreeProfile(6, (2, 3)))
    assert [(r.a, r.k) for r in rep.ledger] == [(2, 5), (3, 6)]
    assert rep.lower_bound == F(7, 3)

    rep = rs.simulate_resolution(DegreeProfile(5, (2, 2)))
    assert [(r.a, r.k) for r in rep.ledger] == [(2, 4)]
    assert rep.lower_bound == F(5, 2)
    assert len(rep.ledger) == 2 - 2 + 1


def test_simulate_log_resolution_mode():
    rep = rs.simulate_resolution(DegreeProfile(2, (2, 2)))
    assert rep.mode == LOG_RESOLUTION
    assert rep.witness is None
    assert [(r.a, r.k) for r in rep.ledger] == [(2, 1)]
    assert rep.lower_bound == 1

    rep = rs.simulate_resolution(DegreeProfile(3, (2, 2)))
    assert rep.mode == STRONG_FACTORIZING
    assert rep.witness is not None


def test_simulate_witness_shape():
    rep = rs.simulate_resolution(DegreeProfile(7, (2, 2, 4)))
    assert rep.mode == STRONG_FACTORIZING
    witness = rep.witness
    assert witness.common
    assert len(witness.residual) == 3
    assert len(set(witness.residual)) == 3
    # residual generators are bare coordinates (exponent one)
    assert all("^" not in res and "*" not in res for res in witness.residual)
    # the oracle's terminal chart: every generator is (common) * (one strict coordinate)
    _, _, term = simulate_resolution_by_charts(DegreeProfile(7, (2, 2, 4)))
    assert [c.role for c in term.coords] == [EXCEPTIONAL] + [STRICT] * 3  # r + 1, no plain
    common = tuple(min(g[i] for g in term.ideal) for i in range(len(term.coords)))
    for g in term.ideal:
        res = [e - c for e, c in zip(g, common)]
        assert sum(res) == 1 and term.coords[res.index(1)].role == STRICT


def test_golden_trace(capsys):
    results = _resolve_results(capsys, 6, (2, 3))
    del results["cross_check"]
    golden = json.loads((DATA / "golden_resolve_n6_d23.json").read_text())
    assert results == golden


def test_ledger_lower_bound_examples():
    # the lower bound is the least (k + 1)/a of the ledger's rows, and it is
    # that row's own ratio object, which the report's ratio field reads too
    cases = [
        (DegreeProfile(4, (2, 3, 4)), [(2, 3), (3, 4), (4, 6)], F(5, 3)),
        (DegreeProfile(6, (2, 3)), [(2, 5), (3, 6)], F(7, 3)),
    ]
    cases += [(DegreeProfile(n, (d,)), [(d, n - 1)], F(n, d)) for n in range(2, 9) for d in range(2, 7)]
    for profile, pairs, bound in cases:
        rep = rs.simulate_resolution(profile)
        assert [(row.a, row.k) for row in rep.ledger] == pairs
        assert rep.lower_bound == bound
        assert any(rep.lower_bound is row.ratio for row in rep.ledger)


def test_ledger_agrees_with_formula_small_scan():
    for n in range(1, 9):
        for r in range(1, min(3, n) + 1):
            for degrees in itertools.combinations_with_replacement(range(2, 7), r):
                profile = DegreeProfile(n, degrees)
                rep = rs.simulate_resolution(profile)
                assert rep.lower_bound == profile.table.minimum, profile


def test_ledger_shape():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 10)
        r = rng.randint(1, min(4, n))
        degrees = tuple(sorted(rng.randint(2, 8) for _ in range(r)))
        rep = rs.simulate_resolution(DegreeProfile(n, degrees))
        a_values = [row.a for row in rep.ledger]
        assert a_values == list(range(degrees[0], degrees[-1] + 1))
        k_values = [row.k for row in rep.ledger]
        assert all(x < y for x, y in zip(k_values, k_values[1:]))
        assert len(rep.ledger) == degrees[-1] - degrees[0] + 1


def test_ledger_rows_closed_form():
    # a runs through the degree steps; k starts at n - 1, and each blow-up of
    # level l adds the number of degrees below e_l
    assert rs.ledger_rows(DegreeProfile(9, (2, 2, 4, 5))) == [(2, 8), (3, 10), (4, 12), (5, 15)]
    assert rs.ledger_rows(DegreeProfile(9, (3, 3, 3))) == [(3, 8)]
    for n, degrees in [(6, (2, 3)), (12, (2, 3, 3, 7)), (60, tuple(range(2, 40)))]:
        profile = DegreeProfile(n, degrees)
        assert rs.ledger_rows(profile) == [(row.a, row.k) for row in rs.simulate_resolution(profile).ledger]


def test_ledger_is_checked_against_its_closed_form(monkeypatch):
    # a discrepancy off by one still rises, so only the closed form catches it
    blowup = rs._blowup

    def off_by_one(ideal, k, width):
        a, k, totals = blowup(ideal, k, width)
        return a, k + 1, totals

    monkeypatch.setattr(rs, "_blowup", off_by_one)
    with pytest.raises(rs.ResolutionError, match=r"^ledger rows \[\(2, 5\), \(3, 7\)\] != closed form \[\(2, 5\), \(3, 6\)\]$"):
        rs.simulate_resolution(DegreeProfile(6, (2, 3)))


def test_equal_degrees_single_row():
    rep = rs.simulate_resolution(DegreeProfile(9, (3, 3, 3)))
    assert [(r.a, r.k) for r in rep.ledger] == [(3, 8)]
    assert rep.lower_bound == F(9, 3)


@st.composite
def _wide_profiles(draw):
    n = draw(st.integers(1, 60))
    degrees = draw(st.lists(st.integers(2, 30), min_size=1, max_size=min(8, n)))
    return DegreeProfile(n, tuple(sorted(degrees)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_wide_profiles())
def test_c3_wide_route_agreement(profile):
    # C3 (tests/test_acceptance.py) on profiles past its grid: n <= 60, r <= 8, degrees <= 30
    formula = profile.table.minimum
    report = rs.simulate_resolution(profile)
    assert report == simulate_resolution_by_charts(profile)[0]
    assert report.lower_bound == formula
    assert min(F(k + 1, a) for a, k in rs.ledger_rows(profile)) == formula
    # the divisor with a = d_pivot is among the ledger's minimizers (the minimum may be tied)
    pivot_degree = profile.degrees[profile.table.pivot - 1]
    assert any(row.a == pivot_degree and row.ratio == formula for row in report.ledger)
    # the valuation certificate's factor is the formula, and both lemmas hold
    valuation = rs.valuation_certificate(profile)
    assert valuation.exponent == formula
    assert valuation.verify() and rs.chain_certificate(profile).verify()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_wide_profiles())
def test_c3_wide_pivot_chart_routes(profile):
    # the Newton and weighted routes on the Fermat pivot chart (C3) past its
    # grid: both give the formula's exponent.  The unit-weight weighted bound
    # of the profile itself would not count, since it is the candidate
    # formula again; these routes cost about 24 ms a profile, hence their
    # own, smaller example budget
    assert _pivot_chart_routes(profile) == (profile.table.minimum,) * 2


# --- the valuation inequality ---------------------------------------------------

def test_valuation_scan_lct_branch():
    profile = DegreeProfile(3, (2, 3))
    certificate = rs.valuation_certificate(profile)
    assert certificate.branch == "lct"
    assert certificate.exponent == F(4, 3)
    # lambda_1 at its cap 3/4, and 4/3 * (3/4 * 2 + 1/4 * 3) = 3 = n
    assert certificate.weights == (F(3, 4), F(1, 4))
    assert certificate.verify()
    report = valuation_scan_by_grid(profile, 6)
    assert (report.branch, report.exponent) == (certificate.branch, certificate.exponent)
    assert report.passed and report.counterexample is None
    assert report.tuples_checked == 6 * 7 * 7 == rs._check_scan_bound(profile, 6)


def test_valuation_hand_tuple():
    # b = (1, 0, 0) for n=3, degrees (2,3): lhs 3 >= (4/3) * min(2, 3) = 8/3
    alpha = F(4, 3)
    assert 3 * 1 + 0 + 0 >= alpha * min(1 * 2 + 0, 1 * 3 + 0)


def test_valuation_scan_complementary_branch():
    profile = DegreeProfile(6, (2, 3))
    certificate = rs.valuation_certificate(profile)
    assert certificate.branch == "complementary"
    assert certificate.exponent == F(7, 3)
    # lambda_2 is uncapped, since b_2 is pinned: 7/3 * (3/7 * 2 + 4/7 * 3) = 6 = n
    assert certificate.weights == (F(3, 7), F(4, 7))
    assert certificate.verify()
    report = valuation_scan_by_grid(profile, 6)
    assert report.passed
    assert report.tuples_checked == 6 * 7 == rs._check_scan_bound(profile, 6)  # b_r pinned to zero


@pytest.mark.parametrize(
    "change",
    [
        {"weights": (F(3, 4), F(1, 5))},  # the weights sum below 1
        {"weights": (F(5, 4), F(-1, 4))},  # a negative weight
        {"weights": (F(4, 5), F(1, 5))},  # 4/3 * 4/5 > 1: over its cap
        {"weights": (F(3, 4), F(1, 4)), "n": 2},  # 4/3 * 9/4 = 3 > n
        {"weights": (F(1),)},  # one weight for two degrees
        {"exponent": F(-4, 3)},  # a negative factor reverses the inequality
    ],
    ids=["sum", "negative", "cap", "cost", "length", "factor"],
)
def test_valuation_certificate_rejects_each_broken_condition(change):
    certificate = rs.valuation_certificate(DegreeProfile(3, (2, 3)))
    assert certificate.verify()
    assert not certificate._replace(**change).verify()


def test_valuation_certificate_caps_every_free_weight():
    certificate = rs.ValuationCertificate(6, (2, 3), "lct", F(2), (F(1, 4), F(3, 4)))
    assert not certificate.verify()  # 2 * 3/4 > 1
    # b_2 is pinned in the complementary branch, so lambda_2 has no cap
    assert certificate._replace(branch="complementary").verify()


# --- the descent chain -------------------------------------------------------------

def test_descent_chain_hand_example():
    profile = DegreeProfile(3, (2, 3))
    report = descent_chain_by_fractions(profile, (0, 0))
    assert report.chain == (1, 2)
    assert report.chain_values == (F(3, 2), F(4, 3))
    assert report.links_ok == (True,)
    assert report.terminal_ok
    assert report.passed
    # n - P_1 = 1 and B = n - P_2 = -2, whose candidate 4/3 = 2 + B/3 holds with equality
    certificate = rs.chain_certificate(profile)
    assert certificate.signs == (1, -1)
    assert certificate.verify()


def test_descent_chain_all_ties_collapse():
    report = descent_chain_by_fractions(DegreeProfile(8, (3, 3, 3)), (F(1, 2),) * 3)
    assert report.chain == (3,)
    assert report.chain_values == ((8 + 3 * F(1, 2)) / (3 + F(1, 2)),)
    assert report.passed


def test_descent_chain_grid():
    profile = DegreeProfile(4, (2, 3, 4))
    assert chain_grid_by_points(profile, F(1), F(3)) == (4**3, None)
    assert rs._check_chain_grid(profile, F(1), F(3)) == 4**3
    assert rs.chain_certificate(profile).signs == (1, -1, -1)
    assert rs.chain_certificate(profile).verify()


def test_descent_chain_matches_fraction_oracle():
    # the certificate's case split, link by link, on the chains the fraction
    # oracle builds: where n >= P_k the link holds through the next chain
    # value, where n < P_k through its candidate; the terminal likewise
    rng = random.Random(11)
    profiles = [
        DegreeProfile(n, tuple(sorted(rng.randint(2, 7) for _ in range(r))))
        for n, r in [(3, 1), (4, 2), (6, 2), (9, 2), (5, 3), (8, 3), (12, 3), (7, 4), (10, 4)]
    ]
    # mixed denominators, and entries given as int and str as well as Fraction
    entries = [F(0), F(1, 3), F(2, 5), F(7, 6), F(1), F(5, 2), 3, "11/4", F(13, 9)]
    links = 0
    for profile in profiles:
        certificate = rs.chain_certificate(profile)
        assert certificate.verify()
        alphas = profile.table.values
        points = [tuple(rng.choice(entries) for _ in range(profile.r)) for _ in range(60)]
        if profile.r <= 3:
            points += itertools.product([F(i, 2) for i in range(9)], repeat=profile.r)
        for u in points:
            report = descent_chain_by_fractions(profile, u)
            assert report.passed, (profile, u)
            nexts = report.chain_values[1:] + (profile.r,)
            for k, value, after in zip(report.chain, report.chain_values, nexts):
                assert value >= (after if certificate.signs[k - 1] >= 0 else alphas[k - 1]), (profile, u, k)
                links += 1
    assert links > 5000


def test_descent_chain_validation():
    with pytest.raises(ValueError, match="^chain grid parameters must be positive$"):
        rs._check_chain_grid(DegreeProfile(4, (2, 3)), F(0), F(1))
    with pytest.raises(ValueError, match="^chain grid parameters must be positive$"):
        rs._check_chain_grid(DegreeProfile(4, (2, 3)), F(1), F(-1))
    with pytest.raises(ValueError, match="^bound must be at least 1$"):
        rs._check_scan_bound(DegreeProfile(4, (2, 3)), 0)


@pytest.mark.parametrize("sign", [-1, 0, 1])
def test_chain_certificate_rejects_a_wrong_sign(sign):
    # (3; 2, 3) has the signs (1, -1); every other sign at either index fails
    certificate = rs.chain_certificate(DegreeProfile(3, (2, 3)))
    for k in range(2):
        signs = list(certificate.signs)
        if signs[k] != sign:
            signs[k] = sign
            assert not certificate._replace(signs=tuple(signs)).verify()
    assert not certificate._replace(signs=(1,)).verify()


# --- the certificates against the grids ---------------------------------------------

def _flipped(signs, k):
    """``signs`` with entry k flipped: 1 and -1 swap, and 0 becomes 1."""
    return signs[:k] + (-signs[k] or 1,) + signs[k + 1 :]


def test_certificates_on_the_c3_grid():
    # both certificates verify on every profile; the knapsack at the factor
    # plus 10^-6 finds no weights, and one flipped sign fails the chain's
    epsilon = F(1, 10**6)
    profiles = list(_c3_grid())
    assert len(profiles) == 3122
    for profile in profiles:
        valuation = rs.valuation_certificate(profile)
        chain = rs.chain_certificate(profile)
        assert valuation.verify() and chain.verify(), profile
        raised = TableProfile(profile.n, profile.degrees, [x + epsilon for x in profile.table.values])
        assert rs.valuation_certificate(raised).exponent == valuation.exponent + epsilon
        assert not rs.valuation_certificate(raised).verify(), profile
        for k in range(profile.r):
            assert not chain._replace(signs=_flipped(chain.signs, k)).verify(), (profile, k)


def _scan_cases():
    """(profile, bound, step, max): the C3 sample with its own tables, then
    random tables over random profiles, with r = 1 in the complementary branch
    among them."""
    rng = random.Random(13)
    for profile in _c3_sample():
        yield profile, 4 if profile.r < 4 else 2, F(1, 2), F(2)
    for _ in range(600):
        n = rng.randint(1, 12)
        r = rng.choice([1, 1, 2, 3, 4][: min(4, n) + 1])
        degrees = tuple(sorted(rng.randint(2, 8) for _ in range(r)))
        values = [F(rng.randint(1, 60), rng.randint(1, 9)) for _ in range(r)]
        step, maximum = rng.choice([(F(1), F(3)), (F(1, 2), F(2)), (F(2, 3), F(2)), (F(3, 2), F(5, 2))])
        yield TableProfile(n, degrees, values), rng.randint(1, 6 if r < 4 else 3), step, maximum


def test_verify_scans_match_exhaustive_oracles():
    # a certificate that verifies decides its lemma on the whole cone, so
    # the oracle's grid passes; on a random table either may fail
    seen = dict.fromkeys(
        ["lct fail", "complementary fail", "complementary r = 1 fail", "fail past the first tuple",
         "pass", "valuation certificate", "chain fail", "chain fail past the first point", "chain pass",
         "chain certificate"],
        0,
    )
    for profile, bound, step, maximum in _scan_cases():
        valuation = rs.valuation_certificate(profile).verify()
        chain = rs.chain_certificate(profile).verify()
        if type(profile) is DegreeProfile:
            assert valuation and chain, profile
        scan = valuation_scan_by_grid(profile, bound)
        seen["valuation certificate"] += valuation
        if valuation:
            assert scan.passed, (profile, profile.table, bound)
        if scan.passed:
            seen["pass"] += 1
        else:
            seen[f"{scan.branch} fail"] += 1
            seen["complementary r = 1 fail"] += scan.branch == "complementary" and profile.r == 1
            seen["fail past the first tuple"] += scan.tuples_checked > 1
            # (n*b0 + S(t))/t depends on t/b0 alone and is monotone between the
            # integer degrees, and the first slice reaches every integer t/b0 of
            # the widest range: a scan that fails somewhere fails in that slice
            assert scan.counterexample[0] == 1
        points, failure = chain_grid_by_points(profile, step, maximum)
        seen["chain certificate"] += chain
        if chain:
            assert failure is None, (profile, profile.table, step, maximum)
        seen["chain pass"] += failure is None
        seen["chain fail"] += failure is not None
        seen["chain fail past the first point"] += failure is not None and points > 1
    assert all(seen.values()), seen


# (profile, points, failing chain index, u) on the grid {0, 1, 2}^r: tables
# whose one failing check is, in turn, the terminal check at r, an interior
# link and the link at 1, then two passing tables whose one link at u = 0
# holds only with equality, the first through the next chain value, the
# second through its candidate.  The terminal value r + base/M_r only rises
# with u_r, so a terminal check that fails somewhere fails at the first
# point; the links fail only past it, where their index first joins the chain.
# The chain certificate fails on the first three and verifies on the last two.
_HAND_GRIDS = [
    (TableProfile(3, (2, 2, 2), [F(0), F(0), F(2)]), 1, 3, (0, 0, 0)),
    (TableProfile(3, (2, 3, 3), [F(0), F(2), F(0)]), 2, 2, (0, 0, 1)),
    (TableProfile(3, (6, 6, 6), [F(1), F(0), F(0)]), 5, 1, (0, 1, 1)),
    (TableProfile(2, (2, 3), [F(100), F(0)]), 9, None, None),  # v_1 = v_2 = 1
    (TableProfile(2, (3, 4), [F(2, 3), F(0)]), 9, None, None),  # v_1 = 2/3 < v_2 = 3/4
]


@pytest.mark.parametrize("profile, points, index, u", _HAND_GRIDS)
def test_chain_grid_on_hand_built_tables(profile, points, index, u):
    grid = chain_grid_by_points(profile, F(1), F(2))
    assert grid[0] == points
    report = grid[1]
    if index is None:
        assert report is None
    else:
        assert report.u == u
        checks = report.links_ok + (report.terminal_ok,)
        assert [k for k, ok in zip(report.chain, checks) if not ok] == [index]
    assert rs.chain_certificate(profile).verify() is (index is None)


def test_certificates_decide_a_one_point_grid_of_any_length():
    # a one-point axis passes the budget at any r, and each certificate is O(r)
    profile = DegreeProfile(6000, (2,) * 2500)
    assert rs._check_chain_grid(profile, F(1), F(0)) == 1
    assert rs.valuation_certificate(profile).verify()
    assert rs.chain_certificate(profile).verify()


# --- work budgets -----------------------------------------------------------------

def test_scan_budgets():
    assert rs.SCAN_BUDGET == 10**6
    lct, complementary = DegreeProfile(3, (2, 3)), DegreeProfile(6, (2, 3))
    # the valuation grid has bound * (bound + 1)^r tuples, one axis fewer when b_r is pinned
    fits = [(lct, 99, 990_000), (complementary, 999, 999_000)]
    over = [(lct, 100), (complementary, 1000), (lct, 10**50)]  # 1,020,100 and 1,001,000 tuples
    for profile, bound, size in fits:
        assert rs._check_scan_bound(profile, bound) == size
    for profile, bound in over:
        with pytest.raises(ValueError, match="^valuation grid exceeds the work budget of 1000000 points$"):
            rs._check_scan_bound(profile, bound)
    # the chain grid has (max // step + 1)^r points: 1000^2 fit, 1001^2 do not
    assert rs._check_chain_grid(lct, F(1), F(999)) == 10**6
    for step, maximum in [(F(1), F(1000)), (F(1, 1000), F(4)), (F(1), F(10**50))]:
        with pytest.raises(ValueError, match="^chain grid exceeds the work budget of 1000000 points$"):
            rs._check_chain_grid(lct, step, maximum)


def test_chain_grid_axis_is_cut_just_over_the_budget():
    # the one axis of (3; 2) with step 1: 10^6 points fit, and 10^6 + 1, past
    # the budget by one, do not, though the axis is cut to one over it
    profile = DegreeProfile(3, (2,))
    assert rs._check_chain_grid(profile, F(1), F(10**6 - 1)) == 10**6
    with pytest.raises(ValueError, match="^chain grid exceeds the work budget of 1000000 points$"):
        rs._check_chain_grid(profile, F(1), F(10**6))


def test_scan_bound_of_one_is_a_box_of_two_points_per_axis():
    # bound 1 is the least accepted: b0 = 1 and each free b_j in {0, 1};
    # (3; 2, 3) has two free axes, (6; 2, 3) one, its b_r pinned
    assert rs._check_scan_bound(DegreeProfile(3, (2, 3)), 1) == 2**2
    assert rs._check_scan_bound(DegreeProfile(6, (2, 3)), 1) == 2**1


# --- the work budget of a resolution --------------------------------------------

def test_resolution_budget_admits_the_wide_baselines():
    # the widest profiles measured for resolve; n=200 builds about 3.4e7 of the 1e8
    for n, low, high in [(60, 2, 39), (120, 2, 60), (200, 2, 90)]:
        rs._check_resolution_budget(DegreeProfile(n, tuple(range(low, high + 1))))
    report = rs.simulate_resolution(DegreeProfile(60, tuple(range(2, 40))))
    assert len(report.ledger) == 39 - 2 + 1


def test_resolution_budget_counts_every_chart():
    # the main chain of (4; 2, D) has 1 + 2 * (D - 2) charts of 3 x 2 entries;
    # each chart costs 400 more
    def work(high):
        return (1 + 2 * (high - 2)) * (6 + 400)

    high = max(h for h in range(120_000, 130_000) if work(h) <= rs.RESOLVE_BUDGET)
    assert high == 123_154
    rs._check_resolution_budget(DegreeProfile(4, (2, high)))
    with pytest.raises(ValueError, match="^resolution exceeds the work budget of 100000000 chart entries$"):
        rs._check_resolution_budget(DegreeProfile(4, (2, high + 1)))


def test_resolution_budget_admits_its_exact_work(monkeypatch):
    # a budget of exactly the work of (4; 2, 10), 17 charts, admits it, and
    # one unit less refuses it
    work = (1 + 2 * 8) * (6 + 400)
    monkeypatch.setattr(rs, "RESOLVE_BUDGET", work)
    rs._check_resolution_budget(DegreeProfile(4, (2, 10)))
    monkeypatch.setattr(rs, "RESOLVE_BUDGET", work - 1)
    with pytest.raises(ValueError, match=f"^resolution exceeds the work budget of {work - 1} chart entries$"):
        rs._check_resolution_budget(DegreeProfile(4, (2, 10)))


def test_resolution_over_the_budget_builds_no_chart(monkeypatch):
    def charts(*args):
        raise AssertionError("a chart was built")

    monkeypatch.setattr(rs, "_start_chart", charts)
    monkeypatch.setattr(rs, "_blowup", charts)
    for profile in [DegreeProfile(4, (2, 10**8)), DegreeProfile(10**5, (2,) * 10**4), DegreeProfile(4, (2, 10**4000))]:
        with pytest.raises(ValueError, match="^resolution exceeds the work budget of 100000000 chart entries$"):
            rs.simulate_resolution(profile)

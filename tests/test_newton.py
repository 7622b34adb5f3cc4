"""Newton polyhedron diagonal values against the vertex-enumeration oracle."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import diagonal_by_vertex_enumeration, diagonal_lp_by_full_tableau
from minexp import newton
from minexp.newton import (
    DiagonalResult,
    MonomialSupport,
    diagonal_entry,
    newton_diagonal,
)
from minexp.exponent import weighted_upper_bound
from minexp.poly import parse_poly, weighted_profile

F = Fraction


def _support(*points):
    return MonomialSupport(len(points[0]), frozenset(points))


def test_cusp_diagonal():
    result = diagonal_entry(_support((2, 0), (0, 3)))
    assert result.c == F(6, 5)
    weights = dict(result.certificate)
    assert weights[(2, 0)] == F(3, 5)
    assert weights[(0, 3)] == F(2, 5)


def test_fermat_diagonal_symmetric():
    for n in range(1, 5):
        for d in range(1, 6):
            points = []
            for i in range(n):
                p = [0] * n
                p[i] = d
                points.append(tuple(p))
            result = diagonal_entry(_support(*points))
            assert result.c == F(d, n)


def test_single_diagonal_point():
    assert diagonal_entry(_support((1, 1))).c == 1


def test_single_point_is_componentwise_max():
    assert diagonal_entry(_support((2, 5, 1))).c == 5


def test_newton_exponent_examples():
    assert newton_diagonal(_support((2, 0), (0, 3)))[1] == F(5, 6)
    assert newton_diagonal(_support((2, 0, 0), (0, 2, 0), (0, 0, 2)))[1] == F(3, 2)
    assert newton_diagonal(_support((1, 1)))[1] == 1


def test_newton_exponent_rejects_origin():
    with pytest.raises(ValueError, match="maximal ideal"):
        newton_diagonal(_support((0, 0), (2, 0)))


def test_newton_diagonal_pairs_the_result_with_its_reciprocal():
    support = _support((2, 0), (0, 3))
    assert newton_diagonal(support) == (diagonal_entry(support), F(5, 6))
    with pytest.raises(ValueError, match="^support contains the origin: not in the maximal ideal$"):
        newton_diagonal(_support((0, 0), (2, 0)))


def test_support_validation():
    with pytest.raises(ValueError):
        MonomialSupport(2, frozenset())
    with pytest.raises(ValueError):
        MonomialSupport(2, frozenset({(1,)}))
    with pytest.raises(ValueError):
        MonomialSupport(1, frozenset({(-1,)}))


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2", F(2), None])
def test_support_rejects_non_integer_entries(bad):
    with pytest.raises(ValueError, match="not an integer"):
        MonomialSupport(2, [(bad, 2), (0, 3)])


def test_support_checks_entries_before_duplicates_merge():
    with pytest.raises(ValueError, match="not an integer"):
        MonomialSupport(2, [(1, 2), (1.0, 2)])
    assert MonomialSupport(2, [[1, 2], (1, 2)]).points == frozenset({(1, 2)})


def _random_points(rng, dim, count, top):
    """``count`` distinct nonzero points of dimension ``dim``, coordinates <= ``top``."""
    points = set()
    while len(points) < count:
        p = tuple(rng.randint(0, top) for _ in range(dim))
        if any(p):
            points.add(p)
    return sorted(points)


def _random_support(rng, max_dim=3, max_coord=6):
    dim = rng.randint(1, max_dim)
    count = rng.randint(1, 5)
    return MonomialSupport(dim, _random_points(rng, dim, count, max_coord))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(1, 6).flatmap(
        lambda dim: st.sets(
            st.tuples(*[st.integers(0, 40)] * dim).filter(any), min_size=1, max_size=7
        )
    )
)
def test_large_coordinates_match_vertex_enumeration_oracle(points):
    # coordinates up to 40 make the tableau's integers large, so every exact
    # division of a pivot is exercised on multi-digit minors
    support = MonomialSupport(len(next(iter(points))), frozenset(points))
    assert diagonal_entry(support).c == diagonal_by_vertex_enumeration(points)


def _rational_pivot(rows, red, leave, enter):
    piv = rows[leave][enter]
    rows[leave] = [x / piv for x in rows[leave]]
    for r, row in enumerate(rows):
        if r != leave:
            f = row[enter]
            rows[r] = [x - f * y for x, y in zip(row, rows[leave])]
    f = red[enter]
    red[:] = [x - f * y for x, y in zip(red, rows[leave])]


def test_integer_pivot_matches_rational_tableau():
    # A0 = [A | I | b] with the identity basic, as in the simplex.  The
    # solver keeps only d * B^-1, as the columns ``inverse`` on the identity
    # slots, column k stored at the denominator dens[k], and the reduced
    # costs there.  Every column rescaled to d must divide exactly, and then
    # every column of the tableau is d * B^-1 . A0[:, j] and every reduced
    # cost d * cost_j - y . A0[:, j], y = d * cost_I - red, with the random
    # first reduced-cost row as the cost.  Both must equal the rational
    # tableau after each pivot, on a positive pivot element as the simplex
    # chooses.  The test rescales copies, so stale columns stay stale in
    # ``inverse`` across pivots; a column whose pivot-row entry is 0 keeps
    # its list and its denominator.
    rng = random.Random(5)
    pivots = kept = 0
    for _ in range(60):
        m, k = rng.randint(2, 4), rng.randint(2, 5)
        a0 = [
            [rng.randint(-9, 9) for _ in range(k)] + [int(i == j) for j in range(m)] + [rng.randint(0, 9)]
            for i in range(m)
        ]
        cost = [rng.randint(-9, 9) for _ in range(k + m + 1)]
        basis = list(range(k, k + m))
        exact = [[F(x) for x in row] for row in a0]
        exact_red = [F(x) for x in cost]
        inverse = [[int(i == j) for i in range(m)] for j in range(m)]
        dens = [1] * m
        red = cost[k : k + m]
        d = 1
        for step in range(7):
            assert all(x * d % e == 0 for col, e in zip(inverse, dens) for x in col)
            fresh = [[x * d // e for x in col] for col, e in zip(inverse, dens)]
            columns = [
                [sum(col[r] * row[j] for col, row in zip(fresh, a0)) for r in range(m)]
                for j in range(k + m + 1)
            ]
            y = [d * c - x for c, x in zip(cost[k : k + m], red)]
            prices = [d * cost[j] - sum(yi * row[j] for yi, row in zip(y, a0)) for j in range(k + m + 1)]
            assert [[F(col[r], d) for col in columns] for r in range(m)] == exact
            assert [F(x, d) for x in prices] == exact_red
            choices = [(r, j) for r in range(m) for j in range(k + m) if j not in basis and columns[j][r] > 0]
            if not choices or step == 6:
                break
            leave, enter = rng.choice(choices)
            before = list(zip(inverse, dens))
            d = newton._pivot(inverse, dens, red, d, leave, columns[enter], prices[enter])
            for col, e, (old, old_e) in zip(inverse, dens, before):
                if old[leave] == 0:
                    assert col is old and e == old_e
                    kept += 1
                else:
                    assert e == d
            basis[leave] = enter
            _rational_pivot(exact, exact_red, leave, enter)
            pivots += 1
            assert d > 0
    assert pivots > 200
    assert kept > 100


def _cone_support(rng, n, degrees, extra):
    """The support of sum_j c_j * f_j * y_j with Fermat-type f_j = sum_i x_i^d_j,
    plus ``extra`` monomials x_i^a * x_k^(d_j - a) * y_j."""
    r = len(degrees)
    points = set()
    for j, d in enumerate(degrees):
        for i in range(n):
            p = [0] * (n + r)
            p[i], p[n + j] = d, 1
            points.add(tuple(p))
    fermat = len(points)
    while len(points) < fermat + extra:
        j = rng.randrange(r)
        i, k = rng.sample(range(n), 2)
        a = rng.randint(1, degrees[j] - 1)
        p = [0] * (n + r)
        p[i], p[k], p[n + j] = a, degrees[j] - a, 1
        points.add(tuple(p))
    return sorted(points)


def _golden_supports():
    golden = json.loads((Path(__file__).parent / "data" / "golden_newton_reports.json").read_text())
    return [
        [tuple(p) for p in json.loads(case["stdout"])["results"]["support"]]
        for case in golden
        if case["exit"] == 0
    ]


def _equivalence_supports():
    rng = random.Random(1414)
    supports = _golden_supports()
    # the cone shapes of the newton_cone benchmark workload: (n, degrees, extra)
    for n, degrees, extra in ((7, (2, 3, 4), 2), (9, (2, 4, 6), 2), (12, (4, 4, 4), 2), (14, (3, 4, 5), 2)):
        supports += [_cone_support(rng, n, degrees, extra) for _ in range(3)]
    # wide Fermat-type cones
    for n, degrees in ((12, (2, 3, 5, 8)), (24, (2, 2, 4, 7, 7)), (34, (5, 9, 13, 17))):
        supports.append(_cone_support(rng, n, degrees, 0))
    for _ in range(200):
        dim = rng.randint(1, 6)
        top = rng.choice((6, 40))
        count = min(rng.randint(1, 10), (top + 1) ** dim - 1)
        supports.append(_random_points(rng, dim, count, top))
    # dense supports of dimension 7-16 with 10-30 points take about 50 pivots
    # each: a column whose pivot-row entry stays 0 stays stale, at the
    # denominator it was last written at, across many of them
    for _ in range(40):
        dim = rng.randint(7, 16)
        count = rng.randint(10, 30)
        supports.append(_random_points(rng, dim, count, 6))
    return supports


def test_revised_simplex_matches_full_tableau_oracle():
    # the solver keeps only d * B^-1; the oracle keeps the full tableau and
    # makes the same pivots, so c, the weights and the dual are equal
    supports = _equivalence_supports()
    assert len(supports) == 13 + 12 + 3 + 200 + 40
    for pts in supports:
        assert newton._solve_diagonal_lp(pts) == diagonal_lp_by_full_tableau(pts), pts


def _check_start(inverse, dens, basis, red, d, cost, columns):
    """The state the simplex begins from is a feasible basis: ``inverse``
    is d * B^-1 for the basic columns, its last slot d * B^-1 applied to
    the all-ones right-hand side and >= 0, and every basic column prices
    at 0."""
    dim = len(basis)
    assert dens == [d] * (dim + 1)
    for r, j in enumerate(basis):
        column = [0] * dim
        for k, a in columns[j]:
            column = [c + a * x for c, x in zip(column, inverse[k])]
        assert column == [d * (i == r) for i in range(dim)]
        assert d * cost[j] + sum(red[k] * a for k, a in columns[j]) == 0
    assert inverse[-1] == [sum(col[i] for col in inverse[:-1]) for i in range(dim)]
    assert min(inverse[-1]) >= 0


def test_the_start_is_feasible_on_every_small_support(monkeypatch):
    # every support of at most 4 nonzero points with dimension <= 2 and
    # coordinates <= 3 (1,947 supports): the slack start, checked where the
    # simplex begins, is a feasible basis, and the result is the full
    # tableau's, with the vertex-enumeration oracle's c
    starts = []
    iterate = newton._iterate

    def checked(*state):
        _check_start(*state)
        starts.append(state)
        return iterate(*state)

    monkeypatch.setattr(newton, "_iterate", checked)
    count = 0
    for dim in (1, 2):
        pool = [p for p in itertools.product(range(4), repeat=dim) if any(p)]
        for size in (1, 2, 3, 4):
            for pts in itertools.combinations(pool, size):
                pts = list(pts)
                result = newton._solve_diagonal_lp(pts)
                assert len(starts) == count + 1
                assert result == diagonal_lp_by_full_tableau(pts), pts
                assert result[0] == diagonal_by_vertex_enumeration(pts), pts
                count += 1
    assert count == 1947


def test_a_support_holding_the_origin_has_c_zero():
    # the packing program is unbounded there, the origin's column being 0,
    # so diagonal_entry answers before the solve: all weight on the origin,
    # the least point, and the dual e_0
    result = diagonal_entry(_support((0, 0, 0), (1, 2, 3), (0, 1, 0)))
    assert result == DiagonalResult(
        F(0), (((0, 0, 0), F(1)), ((0, 1, 0), F(0)), ((1, 2, 3), F(0))), (F(1), F(0), F(0))
    )
    assert diagonal_entry(_support((0,))) == DiagonalResult(F(0), (((0,), F(1)),), (F(1),))
    assert diagonal_by_vertex_enumeration([(0, 0), (2, 0)]) == diagonal_entry(_support((0, 0), (2, 0))).c == 0


def test_the_kernel_given_the_origin_raises_its_unbounded_program():
    # the origin's column is empty and prices at -d, so it enters first and
    # no row bounds it: the kernel's own error, not a failed unpack
    with pytest.raises(RuntimeError, match="^unbounded linear program; "):
        newton._solve_diagonal_lp([(0, 0), (2, 0)])


def test_matches_vertex_enumeration_oracle():
    rng = random.Random(99)
    for _ in range(80):
        support = _random_support(rng)
        assert diagonal_entry(support).c == diagonal_by_vertex_enumeration(support.points)


def test_certificates_verify():
    rng = random.Random(31)
    for _ in range(100):
        support = _random_support(rng)
        assert diagonal_entry(support).verify()


def test_tampered_certificate_fails_verify():
    good = diagonal_entry(_support((2, 0), (0, 3)))
    bad = DiagonalResult(good.c + 1, good.certificate, good.dual)
    assert not bad.verify()
    bad = DiagonalResult(good.c, good.certificate, (F(1), F(1)))
    assert not bad.verify()
    assert not DiagonalResult(F(1), (), ()).verify()  # no points


_POINTS = ((0, 2), (1, 1), (2, 0))


def _certificate(c, weights, dual):
    return DiagonalResult(F(c), tuple(zip(_POINTS, map(F, weights))), dual)


def test_verify_accepts_a_hand_made_certificate():
    # c = 1: weight 1 on (1, 1); the dual (1/2, 1/2) meets every point at 1
    assert _certificate(1, (0, 1, 0), (F(1, 2), F(1, 2))).verify()


@pytest.mark.parametrize(
    "c, weights, dual",
    [
        (1, (F(-1, 2), 2, F(-1, 2)), (F(1, 2), F(1, 2))),  # negative weight, sums to 1
        (1, (0, F(1, 2), 0), (F(1, 2), F(1, 2))),  # weights sum below 1
        (F(3, 2), (0, 1, 0), (F(3, 4), F(3, 4))),  # bound not tight at c
        (1, (0, 1, 0), (F(1, 2), F(1))),  # dual sums above 1, its minimum is still c
        (1, (0, 1, 0), (F(-1, 2), F(3, 2))),  # negative dual entry
        (1, (0, 1, 0), (F(1, 4), F(1, 2))),  # dual minimum below c
        (1, (0, 1, 0), (F(1, 2),)),  # dual of the wrong length
    ],
)
def test_verify_rejects_each_broken_condition(c, weights, dual):
    assert not _certificate(c, weights, dual).verify()


def test_adding_points_never_increases_c():
    rng = random.Random(17)
    for _ in range(50):
        support = _random_support(rng)
        extra = tuple(rng.randint(0, 6) for _ in range(support.n))
        if not any(extra):
            continue
        bigger = MonomialSupport(support.n, support.points | {extra})
        assert diagonal_entry(bigger).c <= diagonal_entry(support).c


def test_scaling_scales_c():
    rng = random.Random(23)
    for _ in range(30):
        support = _random_support(rng)
        m = rng.randint(2, 4)
        scaled = MonomialSupport(
            support.n, frozenset(tuple(m * x for x in p) for p in support.points)
        )
        assert diagonal_entry(scaled).c == m * diagonal_entry(support).c


def test_weighted_floor_inequality():
    # if every support point has weighted value >= W0 then c * sum(w) >= W0
    rng = random.Random(41)
    for _ in range(50):
        support = _random_support(rng)
        w = [F(rng.randint(1, 8), rng.randint(1, 3)) for _ in range(support.n)]
        floor = min(sum(x * wi for x, wi in zip(p, w)) for p in support.points)
        c = diagonal_entry(support).c
        assert c * sum(w) >= floor


def _order_bound(f, weights):
    """(w_1 + ... + w_n) / wt(f): the weighted upper bound of one polynomial."""
    return weighted_upper_bound(weighted_profile([f], weights))


def test_weighted_order_bound_examples():
    f = parse_poly("x1^2 + x2^3", ["x1", "x2"])
    assert _order_bound(f, [1, 1]) == 1
    assert _order_bound(f, [3, 2]) == F(5, 6)
    g = parse_poly("x1^4", ["x1"])
    assert _order_bound(g, [1]) == F(1, 4)


def test_weighted_order_bound_rejects_smooth_or_unit():
    with pytest.raises(ValueError, match="total degree <= 1"):
        _order_bound(parse_poly("x1 + x2^2", ["x1", "x2"]), [1, 1])
    with pytest.raises(ValueError, match="total degree <= 1"):
        _order_bound(parse_poly("3", ["x1"]), [1])
    with pytest.raises(ValueError, match="input 1 is zero"):
        _order_bound(parse_poly("0", ["x1"]), [1])


def test_cusp_bound_agrees_with_newton_route():
    f = parse_poly("x1^2 + x2^3", ["x1", "x2"])
    assert _order_bound(f, [3, 2]) == newton_diagonal(MonomialSupport.from_poly(f))[1]

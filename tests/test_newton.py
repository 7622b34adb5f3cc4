"""Newton polyhedron diagonal values against the vertex-enumeration oracle."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import diagonal_by_vertex_enumeration
from minexp import newton
from minexp.newton import (
    DiagonalResult,
    MonomialSupport,
    diagonal_entry,
    newton_exponent,
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
    assert newton_exponent(_support((2, 0), (0, 3))) == F(5, 6)
    assert newton_exponent(_support((2, 0, 0), (0, 2, 0), (0, 0, 2))) == F(3, 2)
    assert newton_exponent(_support((1, 1))) == 1


def test_newton_exponent_rejects_origin():
    with pytest.raises(ValueError, match="maximal ideal"):
        newton_exponent(_support((0, 0), (2, 0)))


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


def _random_support(rng, max_dim=3, max_coord=6):
    dim = rng.randint(1, max_dim)
    count = rng.randint(1, 5)
    points = set()
    while len(points) < count:
        p = tuple(rng.randint(0, max_coord) for _ in range(dim))
        if any(p):
            points.add(p)
    return MonomialSupport(dim, frozenset(points))


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
    # [A | I | b] with the identity basic, as in the simplex; pivots may be
    # negative (the phase-1 drive-out can meet one) and must keep D > 0
    rng = random.Random(5)
    negative = 0
    for _ in range(60):
        m, k = rng.randint(2, 4), rng.randint(2, 5)
        rows = [
            [rng.randint(-9, 9) for _ in range(k)] + [int(i == j) for j in range(m)] + [rng.randint(0, 9)]
            for i in range(m)
        ]
        red = [rng.randint(-9, 9) for _ in range(k + m + 1)]
        basis = list(range(k, k + m))
        exact = [[F(x) for x in row] for row in rows]
        exact_red = [F(x) for x in red]
        d = 1
        for _ in range(6):
            choices = [
                (r, j) for r in range(m) for j in range(k + m) if j not in basis and rows[r][j]
            ]
            if not choices:
                break
            leave, enter = rng.choice(choices)
            negative += rows[leave][enter] < 0
            d = newton._pivot(rows, basis, red, d, leave, enter)
            _rational_pivot(exact, exact_red, leave, enter)
            assert d > 0
            assert [[F(x, d) for x in row] for row in rows] == exact
            assert [F(x, d) for x in red] == exact_red
    assert negative > 10


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
    assert _order_bound(f, [3, 2]) == newton_exponent(MonomialSupport.from_poly(f))

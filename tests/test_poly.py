"""Polynomial parsing, weighted orders and the auxiliary constructions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import probe_by_affine_scan
from minexp.poly import (
    Poly,
    PolyParseError,
    cone_hypersurface,
    dehomogenized_hypersurface,
    is_homogeneous,
    parse_poly,
    probe_transversality,
    weighted_order,
)

F = Fraction


# --- parsing -----------------------------------------------------------------

def test_parse_direct_terms():
    f = parse_poly("x1^2 - x2^3", ["x1", "x2"])
    assert dict(f.terms) == {(2, 0): F(1), (0, 3): F(-1)}


def test_parse_combines_like_terms():
    f = parse_poly("x1*x1 + x1^2", ["x1"])
    assert dict(f.terms) == {(2,): F(2)}


def test_parse_rational_coefficient():
    f = parse_poly("3/2*x1^2*x2", ["x1", "x2"])
    assert dict(f.terms) == {(2, 1): F(3, 2)}


def test_parse_cancellation_gives_zero():
    f = parse_poly("x1 - x1", ["x1"])
    assert f.is_zero()
    assert str(f) == "0"


def test_parse_leading_sign_and_constants():
    f = parse_poly("-x1 + 5/3", ["x1"])
    assert dict(f.terms) == {(1,): F(-1), (0,): F(5, 3)}


def test_parse_unknown_variable_reports_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1 + y2", ["x1"])
    assert err.value.position == 5


def test_parse_zero_denominator():
    with pytest.raises(PolyParseError):
        parse_poly("1/0*x1", ["x1"])


@pytest.mark.parametrize("bad", ["x1 +", "x1^0", "x1^-2", "2x1", "x1 * * x2", "x1^2/3"])
def test_parse_syntax_errors(bad):
    with pytest.raises(PolyParseError):
        parse_poly(bad, ["x1", "x2"])


_VARS = ("x1", "x2", "x3")


@st.composite
def polys(draw, min_terms=0):
    nvars = draw(st.integers(1, 3))
    names = _VARS[:nvars]
    nterms = draw(st.integers(min_terms, 5))
    terms = {}
    for _ in range(nterms):
        exps = tuple(draw(st.integers(0, 6)) for _ in range(nvars))
        coeff = F(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9)))
        terms[exps] = coeff
    return Poly(names, terms)


@settings(max_examples=200, derandomize=True)
@given(polys())
def test_print_parse_round_trip(f):
    assert parse_poly(str(f), f.variables) == f


@settings(max_examples=100, derandomize=True)
@given(polys(min_terms=1), polys(min_terms=1), st.lists(st.fractions(min_value=F(1, 4), max_value=4), min_size=3, max_size=3))
def test_weighted_order_is_a_valuation(f, g, ws):
    nvars = max(len(f.variables), len(g.variables))
    names = _VARS[:nvars]
    f = f.embed(names)
    g = g.embed(names)
    w = ws[:nvars]
    assert weighted_order(f * g, w) == weighted_order(f, w) + weighted_order(g, w)


# --- weighted order and homogeneity -----------------------------------------

def test_weighted_order_examples():
    f = parse_poly("x1^2 + x2^3", ["x1", "x2"])
    assert weighted_order(f, [1, 1]) == 2
    assert weighted_order(f, [3, 2]) == 6
    g = parse_poly("x1^2*x2", ["x1", "x2"])
    assert weighted_order(g, [F(1, 2), 1]) == 2


def test_weighted_order_rejects_zero():
    with pytest.raises(ValueError):
        weighted_order(Poly.zero(["x1"]), [1])


def test_is_homogeneous_examples():
    f = parse_poly("x1^2 + x1*x2", ["x1", "x2"])
    assert is_homogeneous(f, [1, 1]) == (True, 2)
    g = parse_poly("x1^2 + x2^3", ["x1", "x2"])
    assert is_homogeneous(g, [1, 1]) == (False, None)
    assert is_homogeneous(g, [3, 2]) == (True, 6)


@settings(max_examples=100, derandomize=True)
@given(polys(min_terms=1))
def test_homogeneous_implies_order_equals_degree(f):
    w = [1] * len(f.variables)
    flag, degree = is_homogeneous(f, w)
    if flag:
        assert weighted_order(f, w) == degree


# --- cone and chart hypersurfaces --------------------------------------------

def test_cone_single():
    f = parse_poly("x1", ["x1"])
    g = cone_hypersurface([f])
    assert g.variables == ("x1", "y1")
    assert dict(g.terms) == {(1, 1): F(1)}


def test_cone_two_blocks():
    fs = [parse_poly("x1^2", ["x1", "x2"]), parse_poly("x2^3", ["x1", "x2"])]
    g = cone_hypersurface(fs)
    assert g.variables == ("x1", "x2", "y1", "y2")
    assert dict(g.terms) == {(2, 0, 1, 0): F(1), (0, 3, 0, 1): F(1)}


def test_cone_expansion():
    fs = [parse_poly("x1 + x2", ["x1", "x2"]), parse_poly("x1*x2", ["x1", "x2"])]
    g = cone_hypersurface(fs)
    assert dict(g.terms) == {
        (1, 0, 1, 0): F(1),
        (0, 1, 1, 0): F(1),
        (1, 1, 0, 1): F(1),
    }


def test_cone_rejects_mismatched_variables():
    with pytest.raises(ValueError):
        cone_hypersurface([parse_poly("x1", ["x1"]), parse_poly("x2", ["x2"])])


def test_cone_weighted_order_splits_over_blocks():
    rng = random.Random(7)
    for _ in range(50):
        nvars = rng.randint(1, 3)
        names = _VARS[:nvars]
        r = rng.randint(1, 3)
        fs = []
        for _ in range(r):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 5) for _ in range(nvars))
                terms[exps] = F(rng.choice([-3, -1, 1, 2, 5]))
            if not terms:
                terms[(0,) * nvars] = F(1)
            fs.append(Poly(names, terms))
        if any(f.is_zero() for f in fs):
            continue
        w = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(nvars)]
        eps = [F(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(r)]
        g = cone_hypersurface(fs)
        assert weighted_order(g, w + eps) == min(
            weighted_order(f, w) + e for f, e in zip(fs, eps)
        )


def test_dehomogenize_single_is_identity_on_terms():
    f = parse_poly("x1^2", ["x1"])
    h = dehomogenized_hypersurface([f], 1)
    assert h.variables == ("x1",)
    assert dict(h.terms) == {(2,): F(1)}


def test_dehomogenize_last_pivot():
    fs = [parse_poly("x1^2", ["x1", "x2"]), parse_poly("x2^3", ["x1", "x2"])]
    h = dehomogenized_hypersurface(fs, 2)
    assert h.variables == ("x1", "x2", "z1")
    assert h == parse_poly("x2^3 + x1^2*z1", ["x1", "x2", "z1"])


def test_dehomogenize_first_pivot():
    fs = [parse_poly("x1^2", ["x1", "x2"]), parse_poly("x2^3", ["x1", "x2"])]
    h = dehomogenized_hypersurface(fs, 1)
    assert h.variables == ("x1", "x2", "z2")
    assert h == parse_poly("x1^2 + x2^3*z2", ["x1", "x2", "z2"])


def test_dehomogenize_index_out_of_range():
    with pytest.raises(ValueError):
        dehomogenized_hypersurface([parse_poly("x1", ["x1"])], 2)


# --- transversality probe -----------------------------------------------------

def test_probe_smooth_hyperplane_passes():
    f = parse_poly("x1", ["x1", "x2"])
    report = probe_transversality([f], 3)
    assert report.verdict == "PASS"
    assert report.points_checked == 8


def test_probe_double_line_fails_genuinely():
    f = parse_poly("x1^2", ["x1", "x2"])
    report = probe_transversality([f], 3)
    assert report.verdict == "FAIL"
    witness = report.witness
    assert witness is not None
    assert witness.point[0] == 0 and any(witness.point)
    assert witness.vanishing == (1,)
    assert witness.genuine


def test_probe_smooth_quadric_passes():
    f = parse_poly("x1^2 + x2^2 + x3^2", ["x1", "x2", "x3"])
    report = probe_transversality([f], 5)
    assert report.verdict == "PASS"
    assert report.points_checked == 5**3 - 1


def test_probe_snc_pair_passes():
    fs = [parse_poly("x1", ["x1", "x2", "x3"]), parse_poly("x2", ["x1", "x2", "x3"])]
    assert probe_transversality(fs, 3).verdict == "PASS"


def test_probe_tangent_pair_fails():
    # both vanish along x1 = 0 with proportional gradients
    fs = [parse_poly("x1", ["x1", "x2"]), parse_poly("2*x1", ["x1", "x2"])]
    report = probe_transversality(fs, 5)
    assert report.verdict == "FAIL"
    assert report.witness.genuine


def test_probe_rejects_composite_field():
    f = parse_poly("x1", ["x1"])
    with pytest.raises(ValueError):
        probe_transversality([f], 9)


def test_probe_rejects_inhomogeneous():
    f = parse_poly("x1^2 + x1", ["x1"])
    with pytest.raises(ValueError):
        probe_transversality([f], 3)


def test_probe_budget_inconclusive():
    f = parse_poly("x1 + x2 + x3", ["x1", "x2", "x3"])
    report = probe_transversality([f], 5, limit=10)
    assert report.verdict == "INCONCLUSIVE"
    assert "budget" in report.reason


def test_probe_denominator_clash_inconclusive():
    f = parse_poly("1/3*x1^2", ["x1", "x2"])
    report = probe_transversality([f], 3)
    assert report.verdict == "INCONCLUSIVE"


def _random_form(rng, names, q):
    """A homogeneous form of degree 1..q+1 (so q | d occurs) with 1-4 terms;
    now and then a coefficient denominator is divisible by q."""
    degree = rng.randint(1, q + 1)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * len(names)
        for _ in range(degree):
            exps[rng.randrange(len(names))] += 1
        den = q if rng.random() < 0.02 else rng.choice([d for d in (1, 1, 1, 2, 3, 4) if d % q])
        terms[tuple(exps)] = F(rng.choice([c for c in range(-q, q + 1) if c]), den)
    return Poly(names, terms)


def test_probe_matches_affine_scan_oracle():
    rng = random.Random(5)
    shapes = [(q, n) for q in (2, 3, 5, 7, 11, 13) for n in range(1, 5) if q**n <= 30_000]
    seen = {"PASS": 0, "INCONCLUSIVE": 0, "FAIL": 0, "several forms": 0, "leading zero": 0, "late": 0}
    for _ in range(250):
        q, n = rng.choice(shapes)
        names = [f"x{i}" for i in range(1, n + 1)]
        fs = [_random_form(rng, names, q) for _ in range(rng.randint(1, 3))]
        if any(f.is_zero() for f in fs):
            continue
        limit = q**n - 2 if rng.random() < 0.1 else 100_000
        report = probe_transversality(fs, q, limit)
        assert report == probe_by_affine_scan(fs, q, limit), (fs, q, limit)
        seen[report.verdict] += 1
        if report.verdict == "FAIL":
            witness = report.witness
            seen["several forms"] += len(witness.vanishing) > 1
            seen["leading zero"] += witness.point[0] == 0
            seen["late"] += witness.point[0] != 0 and n > 1
    assert all(seen.values()), seen

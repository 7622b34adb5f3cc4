"""Closed-form exponent engine: candidate table, predicates, reductions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from _oracles import exponent_candidates_by_fractions
from minexp.exponent import (
    INFINITY,
    DegreeProfile,
    SingularityPredicates,
    WeightedProfile,
    cone_formula,
    exponent_candidates,
    lct_cone,
    minimal_exponent,
    minimal_exponent_cone,
    singularity_predicates,
    weighted_upper_bound,
)
from minexp.poly import parse_poly, weighted_profile

F = Fraction


def test_candidates_basic():
    table = exponent_candidates(6, [2, 3])
    assert table.values == (F(3), F(7, 3))
    assert table.pivot == 2
    assert table.minimum == F(7, 3)
    profile = DegreeProfile(6, (2, 3))
    assert profile.table == table
    assert profile.table is profile.table  # built once per profile


def test_candidates_tie_reports_late_pivot():
    # equal degrees give equal candidates; the pivot convention still points
    # at the first index whose prefix sum exceeds w
    table = exponent_candidates(3, [2, 2])
    assert table.values == (F(3, 2), F(3, 2))
    assert table.pivot == 2
    assert table.minimum == F(3, 2)


def test_candidates_middle_pivot():
    table = exponent_candidates(4, [2, 3, 4])
    assert table.values == (F(2), F(5, 3), F(7, 4))
    assert table.pivot == 2
    assert table.minimum == F(5, 3)


def test_candidates_validation():
    with pytest.raises(ValueError):
        exponent_candidates(4, [])
    with pytest.raises(ValueError):
        exponent_candidates(4, [3, 2])
    with pytest.raises(ValueError):
        exponent_candidates(4, [0, 2])


def _outcome(candidates, w, degrees):
    try:
        return candidates(w, degrees)
    except (ValueError, TypeError) as error:
        # tagged: a table is a tuple too
        return "error", type(error), str(error)


def test_candidates_match_the_fraction_oracle():
    # random rational w and degrees, as Fraction, int and str, over mixed
    # denominators; now and then a list that is empty, unsorted, not positive
    # or holds a float, so that every error text and its order is compared
    kinds = ["table", "degree list must be nonempty", "degrees must be positive", "degrees must be sorted",
             "floating-point value"]
    rng = random.Random(18)
    seen = set()
    for _ in range(4000):
        degrees = sorted(F(rng.randint(-3, 40), rng.randint(1, 9)) for _ in range(rng.randint(0, 6)))
        if rng.random() < 0.1:
            rng.shuffle(degrees)
        degrees = [rng.choice([d, str(d), d.numerator if d.denominator == 1 else d]) for d in degrees]
        if degrees and rng.random() < 0.02:
            degrees[rng.randrange(len(degrees))] = 2.0
        w = rng.choice([F(rng.randint(-30, 200), rng.randint(1, 12)), rng.randint(-5, 60), "7/3", 6.0])
        outcome = _outcome(exponent_candidates, w, degrees)
        assert outcome == _outcome(exponent_candidates_by_fractions, w, degrees), (w, degrees)
        text = outcome[2] if outcome[0] == "error" else "table"
        seen.update(kind for kind in kinds if text.startswith(kind))
    assert seen == set(kinds), seen


def _random_profile(rng):
    r = rng.randint(1, 6)
    degrees = sorted(rng.randint(1, 9) for _ in range(r))
    w = F(rng.randint(-30, 60), rng.randint(1, 12))
    return w, degrees


def test_candidate_identities_random():
    rng = random.Random(2024)
    for _ in range(800):
        w, degrees = _random_profile(rng)
        table = exponent_candidates(w, degrees)
        values = table.values
        prefix = 0
        for i in range(len(degrees) - 1):
            prefix += degrees[i]
            di, dj = degrees[i], degrees[i + 1]
            diff = F(w - prefix) * (dj - di) / (di * dj)
            assert values[i] - values[i + 1] == diff
            if di == dj:
                assert values[i] == values[i + 1]
            else:
                assert (values[i] >= values[i + 1]) == (prefix <= w)
        # pivot law against a direct scan
        assert table.minimum == min(values)
        prefix = 0
        expected_pivot = len(degrees)
        for i, d in enumerate(degrees, 1):
            prefix += d
            if prefix > w:
                expected_pivot = i
                break
        assert table.pivot == expected_pivot
        assert values[table.pivot - 1] == table.minimum


def test_minimal_exponent_examples():
    assert minimal_exponent_cone(DegreeProfile(6, (2, 3))) == F(7, 3)
    assert minimal_exponent_cone(DegreeProfile(5, (2, 2))) == F(5, 2)
    assert minimal_exponent_cone(DegreeProfile(3, (2, 3))) == F(4, 3)


def test_equal_degree_collapse():
    for n in range(1, 10):
        for d in range(2, 7):
            for r in range(1, n + 1):
                assert minimal_exponent_cone(DegreeProfile(n, (d,) * r)) == F(n, d)


def test_hypersurface_case():
    for n in range(1, 12):
        for d in range(2, 9):
            assert minimal_exponent_cone(DegreeProfile(n, (d,))) == F(n, d)


def test_lct_examples():
    assert lct_cone(DegreeProfile(6, (2, 3))) == 2
    assert lct_cone(DegreeProfile(3, (2, 3))) == F(4, 3)
    assert lct_cone(DegreeProfile(5, (2, 3))) == 2


def test_predicates_examples():
    p = singularity_predicates(DegreeProfile(6, (2, 3)))
    assert (p.rational_singularities, p.log_canonical, p.exceeds_lct) == (True, True, True)
    p = singularity_predicates(DegreeProfile(5, (2, 3)))
    assert (p.rational_singularities, p.log_canonical, p.exceeds_lct) == (False, True, False)
    p = singularity_predicates(DegreeProfile(3, (2, 3)))
    assert (p.rational_singularities, p.log_canonical, p.exceeds_lct) == (False, False, False)


def test_weighted_upper_bound_examples():
    assert weighted_upper_bound(WeightedProfile((1, 1, 1, 1), (2, 3))) == F(5, 3)
    assert weighted_upper_bound(WeightedProfile((1, 1, 1), (2,))) == F(3, 2)
    assert weighted_upper_bound(WeightedProfile((3, 2), (6,))) == F(5, 6)


def test_weighted_specializes_to_cone_formula():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 10)
        r = rng.randint(1, min(4, n))
        degrees = tuple(sorted(rng.randint(2, 8) for _ in range(r)))
        profile = DegreeProfile(n, degrees)
        wp = WeightedProfile((1,) * n, degrees)
        assert weighted_upper_bound(wp) == minimal_exponent_cone(profile)


def test_weighted_profile_validation():
    with pytest.raises(ValueError):
        WeightedProfile((), (2,))
    with pytest.raises(ValueError):
        WeightedProfile((1, -1), (2,))
    with pytest.raises(ValueError):
        WeightedProfile((1, 1), (3, 2))


def test_normalize_degree_one():
    # cone_formula strips the degree-1 equations: the reduced (4; 2,3) has
    # exponent and lct 5/3, and the shift adds one to both
    cone = cone_formula(5, (1, 2, 3))
    assert cone == (1, DegreeProfile(4, (2, 3)), F(8, 3), F(8, 3), SingularityPredicates(False, False, False))
    cone = cone_formula(4, (2, 3))
    assert (cone.shift, cone.profile, cone.minimal_exponent, cone.lct) == (0, DegreeProfile(4, (2, 3)), F(5, 3), F(5, 3))
    # smooth: the exponent is INFINITY, the lct the codimension, and every predicate holds
    assert cone_formula(3, (1, 1, 1)) == (3, None, INFINITY, F(3), SingularityPredicates(True, True, True))


def test_normalize_degree_one_rejects_excess_codimension():
    with pytest.raises(ValueError):
        cone_formula(3, (1, 1, 2, 2))


@pytest.mark.parametrize(
    "n, degrees",
    [(6, (2.5, 3)), (6, (2.0, 3)), (6, (F(2), 3)), (6, (True, 2)), (6.0, (2, 3)), (True, (2,)), ("6", (2, 3))],
)
def test_profile_rejects_non_int(n, degrees):
    # nothing is truncated: 2.5 used to become 2
    with pytest.raises(ValueError):
        DegreeProfile(n, degrees)


@pytest.mark.parametrize(
    "n, degrees", [(6, (1.5, 2, 3)), (6, (1, 2.0, 3)), (6, (True, 2)), (6, (1, "2")), (6.0, (1, 2)), (True, (1,))]
)
def test_normalize_degree_one_rejects_non_int(n, degrees):
    # (1.5, 2, 3) used to become a shift of 1 on (2, 3)
    with pytest.raises(ValueError):
        cone_formula(n, degrees)


def test_minimal_exponent_with_shift():
    assert minimal_exponent(5, [1, 2, 3]) == F(8, 3)
    assert minimal_exponent(6, [2, 3]) == F(7, 3)
    assert minimal_exponent(2, [1, 1]) is INFINITY


def test_profile_validation():
    with pytest.raises(ValueError):
        DegreeProfile(2, (2, 2, 2))
    with pytest.raises(ValueError):
        DegreeProfile(4, (3, 2))
    with pytest.raises(ValueError):
        DegreeProfile(4, (1, 2))
    with pytest.raises(ValueError):
        DegreeProfile(0, (2,))


# A float used to be read through its binary value: WeightedProfile((0.1, 1),
# (0.3,)) had the bound 7926335344172073/2161727821137838.
@pytest.mark.parametrize(
    "call",
    [
        lambda: WeightedProfile((0.1, 1), (3,)),
        lambda: WeightedProfile((1, 1), (0.3,)),
        lambda: weighted_profile([parse_poly("x1^2 + x2^3", ["x1", "x2"])], [0.5, 1]),
        lambda: exponent_candidates(6.0, (2, 3)),
        lambda: exponent_candidates(6, (2, 3.0)),
    ],
    ids=[
        "WeightedProfile_weights",
        "WeightedProfile_orders",
        "weighted_profile",
        "exponent_candidates_w",
        "exponent_candidates_degrees",
    ],
)
def test_rationals_reject_floats(call):
    with pytest.raises(TypeError, match="floating-point value"):
        call()


def test_infinity_ordering_and_arithmetic():
    assert INFINITY > F(10**9)
    assert INFINITY > 10**9
    assert not (INFINITY < F(1, 2))
    assert F(7, 3) < INFINITY
    assert INFINITY == INFINITY
    assert INFINITY >= INFINITY and INFINITY <= INFINITY
    assert not INFINITY > INFINITY
    assert min(INFINITY, F(2)) == F(2)
    with pytest.raises(TypeError):
        INFINITY + 1
    with pytest.raises(TypeError):
        1 + INFINITY

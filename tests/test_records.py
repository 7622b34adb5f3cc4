"""The library's records are immutable NamedTuples: each field refuses
assignment, they unpack and compare as tuples, and the three that check
their input raise the same texts in the same order, from the constructor
and from ``_replace``."""

from __future__ import annotations

from fractions import Fraction

import pytest

from minexp.exponent import DegreeProfile, WeightedProfile, singularity_predicates
from minexp.newton import MonomialSupport, diagonal_entry
from minexp.poly import parse_poly, probe_transversality
from minexp.resolution import chain_certificate, simulate_resolution, valuation_certificate

F = Fraction

RECORDS = {
    "DegreeProfile", "ExponentTable", "SingularityPredicates", "WeightedProfile",
    "MonomialSupport", "DiagonalResult", "ProbeWitness", "ProbeReport",
    "LedgerRow", "VjCheck", "Case3Report", "FactorizationWitness", "ResolutionReport",
    "ValuationCertificate", "ChainCertificate",
}


def _records():
    """One instance of each public record, built by the library."""
    profile = DegreeProfile(6, (2, 3))
    support = MonomialSupport(2, {(2, 0), (0, 3)})
    probe = probe_transversality([parse_poly("x1^2", ["x1", "x2"])], 3)
    report = simulate_resolution(profile)
    return [
        profile, profile.table, singularity_predicates(profile), WeightedProfile((3, 2), (6,)),
        support, diagonal_entry(support), probe.witness, probe,
        report.ledger[1], report.vj_checks[0], report.case3[0], report.witness, report,
        valuation_certificate(profile), chain_certificate(profile),
    ]


def test_every_record_is_a_named_tuple_whose_fields_refuse_assignment():
    records = _records()
    assert {type(record).__name__ for record in records} == RECORDS
    for record in records:
        assert isinstance(record, tuple) and record._fields
        for name in record._fields:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            assert getattr(record, name) is before


def test_records_unpack_and_compare_as_tuples():
    n, degrees = profile = DegreeProfile(6, [2, 3])
    assert (n, degrees) == (6, (2, 3)) == profile
    assert profile._replace(n=7) == DegreeProfile(7, (2, 3))
    assert profile._replace(n=7).table.minimum == F(8, 3)
    assert profile.table is profile.table  # built once per profile
    row = simulate_resolution(profile).ledger[1]
    assert row.ratio is row.ratio and row.ratio == F(7, 3)
    assert singularity_predicates(profile)._asdict() == {
        "rational_singularities": True, "log_canonical": True, "exceeds_lct": True,
    }


DEGREE_PROFILE_ERRORS = [
    ((3, (2, 2.0)), ValueError, "degrees must be integers, got (2, 2.0)"),
    ((0, (2,)), ValueError, "ambient dimension must be a positive integer, got 0"),
    ((True, (2,)), ValueError, "ambient dimension must be a positive integer, got True"),
    ((3, ()), ValueError, "degree list must be nonempty"),
    ((3, (1, 2)), ValueError, "degrees must all be >= 2 (reduce linear equations first), got (1, 2)"),
    ((3, (3, 2)), ValueError, "degrees must be sorted ascending, got (3, 2)"),
    ((1, (2, 2)), ValueError, "codimension 2 exceeds ambient dimension 1"),
    ((0, (2.5,)), ValueError, "degrees must be integers, got (2.5,)"),  # the degrees' type before n
]

WEIGHTED_PROFILE_ERRORS = [
    (((1.5,), (2,)), TypeError, "floating-point value 1.5 is not accepted; use an int, a Fraction or a string"),
    (((1,), (2.0,)), TypeError, "floating-point value 2.0 is not accepted; use an int, a Fraction or a string"),
    (((), ()), ValueError, "weight list must be nonempty"),
    (((1, 0), ()), ValueError, "weights must be positive"),
    (((1,), ()), ValueError, "order list must be nonempty"),
    (((1,), (0,)), ValueError, "orders must be positive"),
    (((1,), (3, 2)), ValueError, "orders must be sorted ascending, got (Fraction(3, 1), Fraction(2, 1))"),
]

MONOMIAL_SUPPORT_ERRORS = [
    ((0, [[1]]), ValueError, "dimension must be a positive integer, got 0"),
    ((2, []), ValueError, "support must be nonempty"),
    ((2, [[1, 2], [1]]), ValueError, "point (1,) does not have dimension 2"),
    ((2, [[1, 2.0]]), ValueError, "point (1, 2.0) has an entry that is not an integer"),
    ((2, [[1, True]]), ValueError, "point (1, True) has an entry that is not an integer"),
    ((2, [[1, -1]]), ValueError, "point (1, -1) has a negative entry"),
]

CASES = [
    (DegreeProfile, DegreeProfile(3, (2,)), DEGREE_PROFILE_ERRORS),
    (WeightedProfile, WeightedProfile((1,), (2,)), WEIGHTED_PROFILE_ERRORS),
    (MonomialSupport, MonomialSupport(2, [[1, 2]]), MONOMIAL_SUPPORT_ERRORS),
]


@pytest.mark.parametrize("record, valid, errors", CASES, ids=[case[0].__name__ for case in CASES])
def test_checked_records_raise_their_pinned_texts(record, valid, errors):
    for args, kind, text in errors:
        with pytest.raises(kind) as raised:
            record(*args)
        assert str(raised.value) == text, args
        # a changed copy is checked as a new record is
        with pytest.raises(kind) as raised:
            valid._replace(**dict(zip(valid._fields, args)))
        assert str(raised.value) == text, args


def test_support_of_a_polynomial_is_the_checked_support():
    # from_poly skips the checks that Poly has made, and builds the same record
    f = parse_poly("x^2*y + y^3", ["x", "y", "z"])
    support = MonomialSupport.from_poly(f)
    assert type(support) is MonomialSupport
    assert support == MonomialSupport(3, [(2, 1, 0), (0, 3, 0)])

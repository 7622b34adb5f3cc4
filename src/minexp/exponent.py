"""Closed-form engine for minimal exponents of cones over complete intersections.

For an ambient dimension n and homogeneous degrees 2 <= d_1 <= ... <= d_r
cutting out a cone with the standard transversality hypotheses away from the
origin, the minimal exponent equals

    min_i ( i + (n - d_1 - ... - d_i) / d_i ),

and the minimum is attained at the smallest index whose degree prefix sum
exceeds n (at the last index when no prefix does).  The same candidate
minimum evaluated at w = w_1 + ... + w_n over weighted orders gives an upper
bound in the weighted setting; callers must treat that value strictly as a
bound.  Smooth inputs (all degrees 1) get the distinguished value INFINITY.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, total_ordering
from fractions import Fraction
from typing import Sequence


@total_ordering
class Infinity:
    """Distinguished top value, ordered above every rational.

    Only comparisons are supported; arithmetic with INFINITY is a TypeError.
    Produced for smooth subschemes, whose minimal exponent is infinite.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("minexp.INFINITY")

    def __lt__(self, other):
        # total_ordering derives <=, > and >= from this and __eq__
        if isinstance(other, (int, Fraction)) or other is self:
            return False
        return NotImplemented

    def __repr__(self):
        return "INFINITY"

    def __str__(self):
        return "∞"


INFINITY = Infinity()


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _as_fraction(x) -> Fraction:
    """The exact rational value of x; a float is rejected, never rounded.
    A Fraction is returned as it is, not copied."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"floating-point value {x!r} is not accepted; use an int, a Fraction or a string")
    return Fraction(x)


def _check_degrees(n, degrees: tuple, least: int) -> None:
    """The checks on an ambient dimension and a degree list that
    :class:`DegreeProfile` (``least`` 2) and :func:`normalize_degree_one`
    (``least`` 1) share."""
    if not all(_is_int(d) for d in degrees):
        raise ValueError(f"degrees must be integers, got {degrees}")
    if not _is_int(n) or n < 1:
        raise ValueError(f"ambient dimension must be a positive integer, got {n}")
    if not degrees:
        raise ValueError("degree list must be nonempty")
    if any(d < least for d in degrees):
        raise ValueError(
            f"degrees must be positive, got {degrees}" if least == 1 else
            f"degrees must all be >= 2 (reduce linear equations first), got {degrees}"
        )
    if list(degrees) != sorted(degrees):
        raise ValueError(f"degrees must be sorted ascending, got {degrees}")
    if len(degrees) > n:
        raise ValueError(f"codimension {len(degrees)} exceeds ambient dimension {n}")


@dataclass(frozen=True)
class DegreeProfile:
    """Ambient dimension plus the sorted degree list of the defining equations.

    n and the degrees must be ``int`` (not ``bool``); nothing is truncated.
    Degrees must all be at least 2; strip degree-1 entries first with
    :func:`normalize_degree_one`.  The codimension r never exceeds n.
    """

    n: int
    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))
        _check_degrees(self.n, self.degrees, 2)

    @property
    def r(self) -> int:
        return len(self.degrees)

    @property
    def degree_sum(self) -> int:
        return sum(self.degrees)

    @cached_property
    def table(self) -> ExponentTable:
        """The candidate table over w = n, computed once per profile."""
        return exponent_candidates(self.n, self.degrees)


@dataclass(frozen=True)
class ExponentTable:
    """Candidate values i + (w - d_1 - ... - d_i)/d_i, their pivot and minimum.

    ``pivot`` is the 1-based smallest index whose degree prefix sum exceeds w
    (the last index when none does); the value there equals the minimum.
    """

    values: tuple[Fraction, ...]
    pivot: int
    minimum: Fraction


def exponent_candidates(w, degrees: Sequence) -> ExponentTable:
    """Evaluate the candidate sequence for a weight total w over sorted degrees.

    Degrees may be rational (they are weighted orders in the weighted
    setting); they must be positive and sorted ascending.  w and the degrees
    are exact: a float is rejected.
    """
    w = _as_fraction(w)
    ds = [_as_fraction(d) for d in degrees]
    if not ds:
        raise ValueError("degree list must be nonempty")
    if any(d <= 0 for d in ds):
        raise ValueError(f"degrees must be positive, got {degrees}")
    if ds != sorted(ds):
        raise ValueError(f"degrees must be sorted ascending, got {degrees}")
    values = []
    prefix = Fraction(0)
    pivot = len(ds)
    found = False
    for i, d in enumerate(ds, 1):
        prefix += d
        values.append(i + (w - prefix) / d)
        if not found and prefix > w:
            pivot = i
            found = True
    minimum = min(values)
    if values[pivot - 1] != minimum:  # pivot rule always lands on the minimum
        raise AssertionError(f"pivot {pivot} misses the minimum for w={w}, degrees={degrees}")
    return ExponentTable(tuple(values), pivot, minimum)


def minimal_exponent_cone(profile: DegreeProfile) -> Fraction:
    """Minimal exponent of the cone cut out by the profile's degrees."""
    return profile.table.minimum


def lct_cone(profile: DegreeProfile) -> Fraction:
    """Log canonical threshold: the minimal exponent capped at the codimension."""
    return min(minimal_exponent_cone(profile), Fraction(profile.r))


@dataclass(frozen=True)
class SingularityPredicates:
    """``exceeds_lct`` (the exponent exceeds the lct) is the same predicate as
    ``rational_singularities``: both say the exponent exceeds the codimension r.
    It is kept as its own field because reports carry it under that name."""

    rational_singularities: bool
    log_canonical: bool
    exceeds_lct: bool


def singularity_predicates(profile: DegreeProfile) -> SingularityPredicates:
    """Derive the three predicates from the exponent and cross-check them
    against the degree-sum criteria (sum < n, respectively sum <= n)."""
    alpha = minimal_exponent_cone(profile)
    r = profile.r
    rational = alpha > r
    log_canonical = alpha >= r
    exceeds = alpha > r
    total = profile.degree_sum
    if rational != (total < profile.n) or log_canonical != (total <= profile.n):
        raise AssertionError(
            f"exponent-derived predicates disagree with degree sums for {profile}"
        )
    return SingularityPredicates(rational, log_canonical, exceeds)


@dataclass(frozen=True)
class WeightedProfile:
    """Positive coordinate weights plus the sorted weighted orders of the
    defining equations, as exact rationals (a float is rejected).  Build it
    from polynomials with :func:`minexp.poly.weighted_profile`."""

    weights: tuple[Fraction, ...]
    orders: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(map(_as_fraction, self.weights)))
        object.__setattr__(self, "orders", tuple(map(_as_fraction, self.orders)))
        if not self.weights:
            raise ValueError("weight list must be nonempty")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if not self.orders:
            raise ValueError("order list must be nonempty")
        if any(d <= 0 for d in self.orders):
            raise ValueError("orders must be positive")
        if list(self.orders) != sorted(self.orders):
            raise ValueError(f"orders must be sorted ascending, got {self.orders}")


def weighted_upper_bound(profile: WeightedProfile) -> Fraction:
    """Upper bound for the local minimal exponent in the weighted setting.

    This is a bound, not the exponent itself; equality is only guaranteed in
    the standard homogeneous case.
    """
    return exponent_candidates(sum(profile.weights), profile.orders).minimum


def normalize_degree_one(n: int, degrees: Sequence[int]) -> tuple[DegreeProfile, int] | Infinity:
    """Strip degree-1 equations: each one drops the ambient dimension by one
    and shifts the minimal exponent up by one.

    Returns ``(reduced profile, shift)``; callers add the shift to any
    exponent computed on the reduced profile.  If every degree is 1 the
    subscheme is smooth and the result is INFINITY.
    """
    degrees = tuple(degrees)
    _check_degrees(n, degrees, 1)
    shift = sum(1 for d in degrees if d == 1)
    rest = degrees[shift:]
    if not rest:
        return INFINITY
    return DegreeProfile(n - shift, rest), shift


def minimal_exponent(n: int, degrees: Sequence[int]) -> Fraction | Infinity:
    """Minimal exponent for arbitrary positive degrees, applying the
    degree-1 reduction automatically; INFINITY when all degrees are 1."""
    reduced = normalize_degree_one(n, degrees)
    if reduced is INFINITY:
        return INFINITY
    profile, shift = reduced
    return shift + minimal_exponent_cone(profile)

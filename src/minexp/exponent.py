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
from functools import cached_property
from fractions import Fraction
from typing import Sequence


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

    def _comparable(self, other) -> bool:
        return isinstance(other, (int, Fraction))

    def __gt__(self, other):
        if self._comparable(other):
            return True
        if other is self:
            return False
        return NotImplemented

    def __ge__(self, other):
        if self._comparable(other) or other is self:
            return True
        return NotImplemented

    def __lt__(self, other):
        if self._comparable(other) or other is self:
            return False
        return NotImplemented

    def __le__(self, other):
        if self._comparable(other):
            return False
        if other is self:
            return True
        return NotImplemented

    def __repr__(self):
        return "INFINITY"

    def __str__(self):
        return "∞"


INFINITY = Infinity()


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


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
        if not all(_is_int(d) for d in self.degrees):
            raise ValueError(f"degrees must be integers, got {self.degrees}")
        if not _is_int(self.n) or self.n < 1:
            raise ValueError(f"ambient dimension must be a positive integer, got {self.n}")
        if not self.degrees:
            raise ValueError("degree list must be nonempty")
        if any(d < 2 for d in self.degrees):
            raise ValueError(
                f"degrees must all be >= 2 (reduce linear equations first), got {self.degrees}"
            )
        if list(self.degrees) != sorted(self.degrees):
            raise ValueError(f"degrees must be sorted ascending, got {self.degrees}")
        if len(self.degrees) > self.n:
            raise ValueError(
                f"codimension {len(self.degrees)} exceeds ambient dimension {self.n}"
            )

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
    setting); they must be positive and sorted ascending.
    """
    w = Fraction(w)
    ds = [Fraction(d) for d in degrees]
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
    defining equations."""

    weights: tuple[Fraction, ...]
    orders: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        object.__setattr__(self, "orders", tuple(Fraction(d) for d in self.orders))
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
    if not all(_is_int(d) for d in degrees):
        raise ValueError(f"degrees must be integers, got {degrees}")
    if not degrees:
        raise ValueError("degree list must be nonempty")
    if any(d < 1 for d in degrees):
        raise ValueError(f"degrees must be positive, got {degrees}")
    if list(degrees) != sorted(degrees):
        raise ValueError(f"degrees must be sorted ascending, got {degrees}")
    if not _is_int(n) or n < 1:
        raise ValueError(f"ambient dimension must be a positive integer, got {n}")
    if len(degrees) > n:
        raise ValueError(f"codimension {len(degrees)} exceeds ambient dimension {n}")
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

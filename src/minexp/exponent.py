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

from functools import cached_property, total_ordering
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence


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


def _common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of ``values`` (ints or Fractions) over their least
    common denominator, and that denominator."""
    den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def _check_degrees(n, degrees: tuple, least: int) -> None:
    """The checks on an ambient dimension and a degree list that
    :class:`DegreeProfile` (``least`` 2) and :func:`cone_formula`
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


class _DegreeProfile(NamedTuple):
    n: int
    degrees: tuple[int, ...]


class DegreeProfile(_DegreeProfile):
    """Ambient dimension plus the sorted degree list of the defining equations.

    n and the degrees must be ``int`` (not ``bool``); nothing is truncated.
    Degrees must all be at least 2; :func:`cone_formula` takes degree-1
    entries.  The codimension r never exceeds n.
    """

    # no __slots__ = (): the cached table lives in the instance __dict__

    def __new__(cls, n, degrees):
        degrees = tuple(degrees)
        _check_degrees(n, degrees, 2)
        return super().__new__(cls, n, degrees)

    # _replace builds through _make, so a changed copy is checked too
    _make = classmethod(lambda cls, fields: cls(*fields))

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


class ExponentTable(NamedTuple):
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

    The arithmetic is in integers: over a common denominator D of w and the
    degrees, W = D*w and M_i = D*d_i are integers, and with the prefix sum
    P_i = M_1 + ... + M_i the candidate i is (i*M_i + W - P_i) / M_i, one
    ``Fraction`` each.  The checks and the pivot compare the integers.
    """
    # an int already has the numerator and denominator the kernel reads
    w = w if type(w) is int else _as_fraction(w)
    ds = [d if type(d) is int else _as_fraction(d) for d in degrees]
    if not ds:
        raise ValueError("degree list must be nonempty")
    nums, _ = _common_denominator([w, *ds])
    total, ms = nums[0], nums[1:]
    if min(ms) <= 0:
        raise ValueError(f"degrees must be positive, got {degrees}")
    if ms != sorted(ms):
        raise ValueError(f"degrees must be sorted ascending, got {degrees}")
    values = []
    prefix = 0
    pivot = None
    for i, m in enumerate(ms, 1):
        prefix += m
        values.append(Fraction(i * m + total - prefix, m))
        if pivot is None and prefix > total:
            pivot = i
    pivot = pivot or len(ms)
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


class SingularityPredicates(NamedTuple):
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


class _WeightedProfile(NamedTuple):
    weights: tuple[Fraction, ...]
    orders: tuple[Fraction, ...]


class WeightedProfile(_WeightedProfile):
    """Positive coordinate weights plus the sorted weighted orders of the
    defining equations, as exact rationals (a float is rejected).  Build it
    from polynomials with :func:`minexp.poly.weighted_profile`."""

    __slots__ = ()

    def __new__(cls, weights, orders):
        weights = tuple(map(_as_fraction, weights))
        orders = tuple(map(_as_fraction, orders))
        if not weights:
            raise ValueError("weight list must be nonempty")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        if not orders:
            raise ValueError("order list must be nonempty")
        if any(d <= 0 for d in orders):
            raise ValueError("orders must be positive")
        if list(orders) != sorted(orders):
            raise ValueError(f"orders must be sorted ascending, got {orders}")
        return super().__new__(cls, weights, orders)

    _make = classmethod(lambda cls, fields: cls(*fields))  # as in DegreeProfile


def weighted_upper_bound(profile: WeightedProfile) -> Fraction:
    """Upper bound for the local minimal exponent in the weighted setting.

    This is a bound, not the exponent itself; equality is only guaranteed in
    the standard homogeneous case.
    """
    return exponent_candidates(sum(profile.weights), profile.orders).minimum


class ConeFormula(NamedTuple):
    """The closed form of a cone for any positive degrees: ``shift``
    degree-1 equations removed, ``profile`` the reduced profile (None when
    the cone is smooth), and the cone's own exponent, lct and predicates."""

    shift: int
    profile: DegreeProfile | None
    minimal_exponent: Fraction | Infinity
    lct: Fraction
    predicates: SingularityPredicates


def cone_formula(n: int, degrees: Sequence[int]) -> ConeFormula:
    """The closed form for arbitrary positive degrees.

    Each degree-1 equation is a hyperplane section: it drops the ambient
    dimension by one and shifts the exponent and the codimension up by one,
    so the lct shifts with them and the predicates do not move.  If every
    degree is 1 the cone is smooth: its exponent is INFINITY, its lct the
    codimension, and every predicate holds.
    """
    degrees = tuple(degrees)
    _check_degrees(n, degrees, 1)
    shift = degrees.count(1)
    if shift == len(degrees):
        return ConeFormula(shift, None, INFINITY, Fraction(shift), SingularityPredicates(True, True, True))
    profile = DegreeProfile(n - shift, degrees[shift:])
    alpha, lct = shift + minimal_exponent_cone(profile), shift + lct_cone(profile)
    return ConeFormula(shift, profile, alpha, lct, singularity_predicates(profile))


def minimal_exponent(n: int, degrees: Sequence[int]) -> Fraction | Infinity:
    """Minimal exponent for arbitrary positive degrees (see :func:`cone_formula`)."""
    return cone_formula(n, degrees).minimal_exponent

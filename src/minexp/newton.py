"""Newton polyhedron diagonal values via exact linear programming.

The Newton polyhedron of a finite monomial support S in Z_{>=0}^n is
conv(S) + R_{>=0}^n.  The diagonal value is

    c = min{ t : (t, ..., t) lies in the polyhedron },

and 1/c is the minimal exponent at the origin of an isolated singularity
that is nondegenerate with respect to its polyhedron.  Membership of the
diagonal point reduces to the tiny linear program

    minimize t   subject to   lambda >= 0,  sum(lambda) = 1,
                              sum_u lambda_u * u_i <= t  for each i,

because the recession orthant absorbs any componentwise slack.  The program
is solved by an exact two-phase revised simplex with Bland's anti-cycling
rule, fraction-free (integer-preserving pivoting in the style of Bareiss and
Edmonds): it keeps only d * B^-1, d the last pivot element, each column
stored at the denominator it was last written at, and prices and builds
each entering column from the sparse support, so no rational arithmetic
runs inside the solver and every division is exact (see the kernel).

Every result carries two certificates that are re-verified in integers,
independently of the solver: a primal one (convex weights placing the
diagonal point inside the polyhedron at t = c) and a dual one (a nonnegative
vector v with sum(v) <= 1 and min_u <u, v> = c, which proves no smaller t is
feasible: t >= t * sum(v) >= sum_u lambda_u <u, v> >= c for any feasible
(lambda, t)).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from minexp.exponent import _common_denominator, _is_int
from minexp.poly import Poly


class _MonomialSupport(NamedTuple):
    n: int
    points: frozenset[tuple[int, ...]]


class MonomialSupport(_MonomialSupport):
    """A finite set of exponent vectors in a fixed dimension.

    ``points`` may be given as any collection of integer sequences; each entry
    is checked before duplicates merge (``1.0`` and ``True`` equal ``1``), and
    the points are stored as a frozenset of tuples.
    """

    __slots__ = ()

    def __new__(cls, n, points):
        points = [tuple(p) for p in points]
        if not _is_int(n) or n < 1:
            raise ValueError(f"dimension must be a positive integer, got {n}")
        if not points:
            raise ValueError("support must be nonempty")
        for p in points:
            if len(p) != n:
                raise ValueError(f"point {p} does not have dimension {n}")
            if not all(_is_int(x) for x in p):
                raise ValueError(f"point {p} has an entry that is not an integer")
            if any(x < 0 for x in p):
                raise ValueError(f"point {p} has a negative entry")
        return super().__new__(cls, n, frozenset(points))

    _make = classmethod(lambda cls, fields: cls(*fields))  # as in DegreeProfile

    @classmethod
    def from_poly(cls, f: Poly) -> "MonomialSupport":
        """The support of ``f``: ``Poly`` has checked every exponent vector."""
        if f.is_zero():
            raise ValueError("the zero polynomial has empty support")
        return _MonomialSupport.__new__(cls, len(f.variables), f.support())

    @property
    def origin(self) -> tuple[int, ...]:
        return (0,) * self.n


class DiagonalResult(NamedTuple):
    """Diagonal value c with primal and dual optimality certificates.

    ``certificate`` pairs every support point, in sorted order, with its
    convex weight;
    ``dual`` is the separating weight vector described in the module
    docstring.  :meth:`verify` re-checks both in integer arithmetic.
    """

    c: Fraction
    certificate: tuple[tuple[tuple[int, ...], Fraction], ...]
    dual: tuple[Fraction, ...]

    def verify(self) -> bool:
        pts = [p for p, _ in self.certificate]
        if not pts:
            return False
        n = len(pts[0])
        # Every check is made on integers: lams[k] / lam_den are the convex
        # weights, v[i] / v_den the dual, and a / b == c reads a * c_den == c_num * b.
        c_num, c_den = self.c.numerator, self.c.denominator
        lams, lam_den = _common_denominator([l for _, l in self.certificate])
        if any(l < 0 for l in lams) or sum(lams) != lam_den:
            return False
        weighted = [(l, p) for l, p in zip(lams, pts) if l]
        column = [sum(l * p[i] for l, p in weighted) for i in range(n)]
        # max(column) == c: no coordinate exceeds c, and the bound is tight somewhere
        if max(column) * c_den != c_num * lam_den:
            return False
        if len(self.dual) != n:
            return False
        v, v_den = _common_denominator(self.dual)
        if any(x < 0 for x in v) or sum(v) > v_den:
            return False
        if min(sum(x * e for x, e in zip(v, p)) for p in pts) * c_den != c_num * v_den:
            return False
        return True


# ---------------------------------------------------------------------------
# exact two-phase revised simplex (fraction-free, Bland's rule)
#
# The program has dim + 1 rows, the convexity row sum(lambda) + art = 1 and,
# for each coordinate i, sum_u lambda_u * u_i - t + s_i = 0, and the columns
# lambda_0 .. lambda_{npts-1}, t, s_0 .. s_{dim-1} and art.  The starting
# basis (art, s_0, ..., s_{dim-1}) is the identity, so the tableau of a full
# simplex would be d * B^-1 * A0: A0 the initial integer tableau, B the
# basis matrix, d > 0 the last pivot element.  Only the tableau's columns
# on those starting slots are kept, the columns of d * B^-1 itself (slot 0
# is art, slot 1 + i is s_i), and the reduced costs on the same slots.  The
# slot-0 column is also the right-hand side, since the rhs of A0 equals
# art's column: both are the first unit vector.  With y = d * cost_slots -
# red, column j prices as d * cost_j - y . A0[:, j] and enters as
# d * B^-1 * A0[:, j], the sum of a * (column k of d * B^-1) over the
# nonzero entries a = A0[k, j]: a support point u is (1, u), one term per
# nonzero entry.
#
# In Bareiss's integer-preserving elimination, a pivot on element p > 0
# keeps the pivot row and replaces every other entry x by
# (x * p - f * g) // d before setting d = p, where f is the entering
# column's entry in x's row (for a reduced cost, the entering column's
# reduced cost) and g the pivot row's entry in x's column.  Every entry is
# then a minor of A0.  A column with g = 0 only scales by p / d: it is the
# same column of B^-1.  So each column k is stored as it was last written,
# at the denominator dens[k] = e, and its entries at the current d are
# x * d / e.  A pivot leaves a column with g = 0 as it is.  A column with
# g != 0 becomes
#
#     (x * d / e * p - g * d / e * f) / d = (x * p - g * f) / e,
#
# its pivot-row entry g * d / e, and its denominator p; its slot's reduced
# cost takes the true g, g * d / e, as above.  A reader rescales a stale
# column once, as x * d // e, before it reads it.  Each of these divisions
# is exact.  x * d / e, g * d / e and (x * p - g * f) / e are the entries
# of the full tableau at the denominator d or p, and those are minors of
# A0, so integers.  Every integer the solver compares is the one the full
# tableau holds: the pivot path, c, the weights and the dual are its.


def _fresh(inverse, dens, k, d):
    """Column k of d * B^-1, rescaled in place if it is stale."""
    col = inverse[k]
    e = dens[k]
    if e != d:
        col = inverse[k] = [x * d // e for x in col]
        dens[k] = d
    return col


def _reduced_costs(inverse, dens, basis, cost, slots, d):
    """d * cost - cost_B * (d * B^-1) on the starting slots."""
    cost_b = [(r, cost[b]) for r, b in enumerate(basis) if cost[b]]
    red = []
    for k, s in enumerate(slots):
        col = _fresh(inverse, dens, k, d)
        f = d * cost[s]
        for r, c in cost_b:
            f -= c * col[r]
        red.append(f)
    return red


def _pivot(inverse, dens, red, d, leave, column, f):
    """Pivot in place on column[leave] > 0, where ``inverse`` holds the
    columns of d * B^-1, column k stored at the denominator dens[k],
    ``column`` is the entering column at d and ``f`` its reduced cost;
    return the new denominator (the pivot element)."""
    p = column[leave]
    for k, col in enumerate(inverse):
        g = col[leave]
        if g:
            e = dens[k]
            g_d = g * d // e
            col = [(x * p - g * a) // e for x, a in zip(col, column)]
            col[leave] = g_d
            inverse[k] = col
            dens[k] = p
            red[k] = (red[k] * p - f * g_d) // d
        else:
            red[k] = red[k] * p // d
    return p


def _iterate(inverse, dens, basis, red, d, cost, columns, slots, allowed):
    slot_cost = [cost[s] for s in slots]
    # Bland's rule never revisits a basis within a phase: that is its
    # anti-cycling theorem.  So a revisit is a fault of the kernel, raised
    # here instead of cycling forever.  A faulty kernel whose next basis
    # follows from the current one alone is periodic from some pivot on, and
    # Brent's cycle detection finds the period: the basis is compared with a
    # snapshot after each pivot, and the snapshot is refreshed at pivots
    # 1, 2, 4, ..., at the cost of one list comparison per pivot.
    seen, pivots, mark = basis[:], 0, 1
    while True:
        y = [d * c - x for c, x in zip(slot_cost, red)]
        enter = None
        for j in allowed:  # Bland: smallest eligible index enters
            f = d * cost[j]
            for k, a in columns[j]:
                f -= y[k] * a
            if f < 0:
                enter = j
                break
        if enter is None:
            return d
        (k, a), *rest = columns[enter]
        column = [a * x for x in _fresh(inverse, dens, k, d)]
        for k, a in rest:
            column = [c + a * x for c, x in zip(column, _fresh(inverse, dens, k, d))]
        # ratio test rhs / a, compared by cross-multiplication (a > 0)
        leave = None
        for r, (a, b) in enumerate(zip(column, _fresh(inverse, dens, 0, d))):
            if a > 0:
                if leave is None:
                    leave, num, den = r, b, a
                    continue
                lhs, rhs = b * den, num * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, num, den = r, b, a
        if leave is None:
            raise RuntimeError("unbounded linear program; impossible for this formulation")
        d = _pivot(inverse, dens, red, d, leave, column, f)
        basis[leave] = enter
        if basis == seen:
            raise RuntimeError("the simplex revisited a basis; impossible under Bland's rule")
        pivots += 1
        if pivots == mark:
            seen, mark = basis[:], 2 * mark


def _solve_diagonal_lp(pts: list[tuple[int, ...]]):
    npts = len(pts)
    dim = len(pts[0])
    t_col = npts
    s0 = npts + 1
    art = npts + 1 + dim
    ncols = art + 1

    # the sparse columns of A0 as (row, entry) pairs
    columns = [[(0, 1)] + [(i + 1, x) for i, x in enumerate(u) if x] for u in pts]
    columns.append([(i + 1, -1) for i in range(dim)])
    columns += [[(i + 1, 1)] for i in range(dim)]
    columns.append([(0, 1)])
    slots = [art] + [s0 + i for i in range(dim)]
    inverse = [[int(r == k) for r in range(dim + 1)] for k in range(dim + 1)]
    dens = [1] * (dim + 1)
    basis = slots[:]
    d = 1

    # phase 1: drive the artificial variable of the convexity row to zero
    cost1 = [0] * ncols
    cost1[art] = 1
    red1 = _reduced_costs(inverse, dens, basis, cost1, slots, d)
    d = _iterate(inverse, dens, basis, red1, d, cost1, columns, slots, range(ncols))
    # art always leaves the basis in phase 1.  While art is basic, it is 1
    # and every other basic variable is 0.  That holds at the start, and a
    # pivot keeps it: an eligible row other than art's has rhs 0, hence
    # ratio 0, while art's row has ratio 1 / a > 0.  So no ratio ties with
    # art's row, a pivot that leaves art basic moves nothing, and art leaves
    # exactly when its row is the only eligible one.  The phase cannot end
    # while art is 1, above the optimum 0, so no art basic at 0 is ever
    # left to drive out, and no pivot element is ever negative.
    if art in basis:
        raise RuntimeError("the artificial variable stayed basic after phase 1; impossible")

    # phase 2: minimize t, artificial column locked out
    cost2 = [0] * ncols
    cost2[t_col] = 1
    red2 = _reduced_costs(inverse, dens, basis, cost2, slots, d)
    d = _iterate(inverse, dens, basis, red2, d, cost2, columns, slots, [j for j in range(ncols) if j != art])

    value = [0] * ncols
    for x, b in zip(_fresh(inverse, dens, 0, d), basis):
        value[b] = x
    lambdas = [Fraction(x, d) for x in value[:npts]]
    c = Fraction(value[t_col], d)
    dual = [Fraction(red2[1 + i], d) for i in range(dim)]
    return c, lambdas, dual


def diagonal_entry(support: MonomialSupport) -> DiagonalResult:
    """Exact diagonal value of the Newton polyhedron, with certificates."""
    pts = sorted(support.points)
    c, lambdas, dual = _solve_diagonal_lp(pts)
    result = DiagonalResult(c, tuple(zip(pts, lambdas)), tuple(dual))
    if not result.verify():
        raise RuntimeError(f"internal error: certificate failed to verify for {pts}")
    return result


def newton_diagonal(support: MonomialSupport) -> tuple[DiagonalResult, Fraction]:
    """The checked diagonal result of a support in the maximal ideal and its
    reciprocal 1/c.

    The reciprocal is the minimal exponent at the origin only under the
    caller's attestation that the singularity is isolated and nondegenerate
    with respect to its Newton polyhedron; neither hypothesis is checked.
    """
    if support.origin in support.points:
        raise ValueError("support contains the origin: not in the maximal ideal")
    result = diagonal_entry(support)
    return result, 1 / result.c

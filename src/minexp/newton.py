"""Newton polyhedron diagonal values via exact linear programming.

The Newton polyhedron of a finite monomial support S in Z_{>=0}^n is
conv(S) + R_{>=0}^n.  The diagonal value is

    c = min{ t : (t, ..., t) lies in the polyhedron },

and 1/c is the minimal exponent at the origin of an isolated singularity
that is nondegenerate with respect to its polyhedron.  Membership of the
diagonal point reduces to the tiny linear program

    minimize t   subject to   lambda >= 0,  sum(lambda) = 1,
                              sum_u lambda_u * u_i <= t  for each i,

because the recession orthant absorbs any componentwise slack.  When the
origin is not in S, so c > 0, put mu = lambda / t: the program becomes the
packing program

    1/c = maximize sum(mu)   subject to   mu >= 0,
                                          sum_u mu_u * u_i <= 1  for each i,

whose optimum gives the weights lambda = c * mu and, from its row prices y,
the dual v = c * y.  It is solved by an exact revised simplex with Bland's
anti-cycling rule, in one phase from the slack basis (the identity, with
the right-hand side all ones), and fraction-free
(integer-preserving pivoting in the style of Bareiss and Edmonds): it keeps
only d * B^-1, d the last pivot element, each column stored at the
denominator it was last written at, and prices and builds each entering
column from the sparse support, so no rational arithmetic runs inside the
solver and every division is exact (see the kernel).

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
# exact revised simplex from the slack basis (fraction-free, Bland's rule)
#
# The packing program has dim rows, sum_u mu_u * u_i + s_i = 1 for each
# coordinate i, and the columns mu_0 .. mu_{npts-1}, s_0 .. s_{dim-1}; it
# minimizes -sum(mu), each point at cost -1 and each slack at cost 0.  Its
# optimum is -1/c: for any feasible (lambda, t) of the program in the module
# docstring, mu = lambda / t is feasible with sum(mu) = 1/t, and back.  The
# tableau of a full simplex would be d * B^-1 * A0: A0 the initial integer
# tableau, B the basis matrix, d > 0 the last pivot element.  Only the
# columns of d * B^-1 itself are kept, slot k < dim being d * B^-1 applied to
# the k-th unit vector, s_k's column, and one more slot, the last, holding
# d * B^-1 applied to the right-hand side, all ones.  The reduced costs are
# kept on the same slots, read as columns of cost 0, so red[k] for k < dim
# is d times the price y_k of row k.  A column j prices as
# d * cost_j + red . A0[:, j] and enters as d * B^-1 * A0[:, j], the sum of
# a * (column k of d * B^-1) over the nonzero entries a = A0[k, j]: one term
# per nonzero coordinate of a point, one term for a slack.
#
# The start is the slack basis: B = I, d = 1 = det B, d * B^-1 = I, the
# right-hand side all ones, so the start is feasible, and every price 0.
# Bland's anti-cycling theorem holds from any feasible basis, so one phase
# is the whole solve.  At the optimum the basic mu are x / d, x the
# right-hand side's entries, and the prices red / d solve the dual
# program, min sum(y) subject to <u, y> >= 1 for each u and y >= 0, with
# sum(y) = sum(mu) = 1/c.  So with total = d * sum(mu) = d / c, the weights
# lambda = c * mu are x / total, the dual v = c * y is red / total, and
# c is d / total.  A support holding the origin has c = 0, and its packing
# program is unbounded, the origin's column having no positive entry: the
# caller answers it before the solve, and the kernel, given the origin,
# raises its unbounded program's RuntimeError when that column enters.
#
# In Bareiss's integer-preserving elimination, a pivot on element p
# keeps the pivot row and replaces every other entry x by
# (x * p - f * g) // d before setting d = p, where f is the entering
# column's entry in x's row (for a reduced cost, the entering column's
# reduced cost) and g the pivot row's entry in x's column.  Its d is det B,
# and every entry is a minor of [A0 | 1], the tableau with its right-hand
# side, so an integer, while pivot elements stay positive, the ratio test
# taking only a > 0.  A column with g = 0 only scales by p / d: it is the
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
# [A0 | 1], so integers.  Every integer the solver compares is the one the
# full tableau holds: the pivot path, c, the weights and the dual are its.


def _fresh(inverse, dens, k, d):
    """Column k of d * B^-1, rescaled in place if it is stale."""
    col = inverse[k]
    e = dens[k]
    if e != d:
        col = inverse[k] = [x * d // e for x in col]
        dens[k] = d
    return col


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


def _iterate(inverse, dens, basis, red, d, cost, columns):
    # Bland's rule never revisits a basis: that is its anti-cycling
    # theorem.  So a revisit is a fault of the kernel, raised here instead
    # of cycling forever.  A faulty kernel whose next basis follows from the
    # current one alone is periodic from some pivot on, and Brent's cycle
    # detection finds the period: the basis is compared with a snapshot
    # after each pivot, and the snapshot is refreshed at pivots 1, 2, 4, ...,
    # at the cost of one list comparison per pivot.
    seen, pivots, mark = basis[:], 0, 1
    while True:
        enter = None
        for j, entries in enumerate(columns):  # Bland: smallest eligible index enters
            f = d * cost[j]
            for k, a in entries:
                f += red[k] * a
            if f < 0:
                enter = j
                break
        if enter is None:
            return d
        # the origin's column is empty: read as zero, no row bounds it
        (k, a), *rest = columns[enter] or [(0, 0)]
        column = [a * x for x in _fresh(inverse, dens, k, d)]
        for k, a in rest:
            column = [c + a * x for c, x in zip(column, _fresh(inverse, dens, k, d))]
        # ratio test rhs / a, compared by cross-multiplication (a > 0)
        leave = None
        for r, (a, b) in enumerate(zip(column, _fresh(inverse, dens, -1, d))):
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

    # the sparse columns of A0 as (row, entry) pairs: the points, then the slacks
    columns = [[(i, x) for i, x in enumerate(u) if x] for u in pts]
    columns += [[(i, 1)] for i in range(dim)]
    cost = [-1] * npts + [0] * dim

    # the slack basis of the kernel comment, the right-hand side its last slot
    inverse = [[int(r == k) for r in range(dim)] for k in range(dim)] + [[1] * dim]
    basis = list(range(npts, npts + dim))
    dens = [1] * (dim + 1)
    red = [0] * (dim + 1)
    d = _iterate(inverse, dens, basis, red, 1, cost, columns)

    value = [0] * len(columns)
    for x, b in zip(_fresh(inverse, dens, -1, d), basis):
        value[b] = x
    total = sum(value[:npts])  # d * sum(mu) = d / c
    lambdas = [Fraction(x, total) for x in value[:npts]]
    dual = [Fraction(x, total) for x in red[:dim]]
    return Fraction(d, total), lambdas, dual


def diagonal_entry(support: MonomialSupport) -> DiagonalResult:
    """Exact diagonal value of the Newton polyhedron, with certificates."""
    pts = sorted(support.points)
    if pts[0] == support.origin:  # the least point, if the support holds it
        # c = 0, all weight on the origin, and the dual e_0, before the
        # solve: the packing program is unbounded here (see the kernel)
        c, lambdas = Fraction(0), [Fraction(int(k == 0)) for k in range(len(pts))]
        dual = [Fraction(int(i == 0)) for i in range(support.n)]
    else:
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

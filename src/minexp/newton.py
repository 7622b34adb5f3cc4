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
is solved by an exact two-phase simplex with Bland's anti-cycling rule on a
fraction-free integer tableau (integer-preserving pivoting in the style of
Bareiss and Edmonds): the rows are integers over one common denominator, so
no rational arithmetic runs inside the solver and every division is exact.

Every result carries two certificates that are re-verified in integers,
independently of the solver: a primal one (convex weights placing the
diagonal point inside the polyhedron at t = c) and a dual one (a nonnegative
vector v with sum(v) <= 1 and min_u <u, v> = c, which proves no smaller t is
feasible: t >= t * sum(v) >= sum_u lambda_u <u, v> >= c for any feasible
(lambda, t)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from minexp.exponent import _is_int
from minexp.poly import Poly


@dataclass(frozen=True)
class MonomialSupport:
    """A finite set of exponent vectors in a fixed dimension.

    ``points`` may be given as any collection of integer sequences; each entry
    is checked before duplicates merge (``1.0`` and ``True`` equal ``1``), and
    the points are stored as a frozenset of tuples.
    """

    n: int
    points: frozenset[tuple[int, ...]]

    def __post_init__(self):
        points = [tuple(p) for p in self.points]
        if not _is_int(self.n) or self.n < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.n}")
        if not points:
            raise ValueError("support must be nonempty")
        for p in points:
            if len(p) != self.n:
                raise ValueError(f"point {p} does not have dimension {self.n}")
            if not all(_is_int(x) for x in p):
                raise ValueError(f"point {p} has an entry that is not an integer")
            if any(x < 0 for x in p):
                raise ValueError(f"point {p} has a negative entry")
        object.__setattr__(self, "points", frozenset(points))

    @classmethod
    def from_poly(cls, f: Poly) -> "MonomialSupport":
        if f.is_zero():
            raise ValueError("the zero polynomial has empty support")
        return cls(len(f.variables), frozenset(f.support()))

    @property
    def origin(self) -> tuple[int, ...]:
        return (0,) * self.n


@dataclass(frozen=True)
class DiagonalResult:
    """Diagonal value c with primal and dual optimality certificates.

    ``certificate`` pairs every support point with its convex weight;
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


def _common_denominator(values):
    """Integer numerators of ``values`` over their least common denominator."""
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


# ---------------------------------------------------------------------------
# exact two-phase simplex (fraction-free integer tableau, Bland's rule)
#
# The tableau is kept as integer rows over one common positive denominator D:
# the true entries are row[j] / D, and the reduced-cost row is scaled by the
# same D.  A pivot on element p keeps the pivot row and replaces every other
# row by (x * p - f * piv_row[j]) // D before setting D = p.  As in Bareiss's
# integer-preserving elimination, every entry is then a minor of the initial
# integer tableau, so each division is exact and the integers stay as small
# as determinants of the support coordinates.


def _reduced_costs(rows, basis, cost, d):
    red = [d * x for x in cost] + [0]
    for r, b in enumerate(basis):
        cb = cost[b]
        if cb:
            row = rows[r]
            for j in range(len(red)):
                red[j] -= cb * row[j]
    return red


def _pivot(rows, basis, red, d, leave, enter):
    """Pivot in place; return the new common denominator (the pivot element)."""
    piv_row = rows[leave]
    p = piv_row[enter]
    if p < 0:  # only the phase-1 drive-out can meet one; its row's rhs is 0
        piv_row = rows[leave] = [-x for x in piv_row]
        p = -p
    for r, row in enumerate(rows):
        if r != leave:
            rows[r] = _eliminate(row, piv_row, enter, p, d)
    red[:] = _eliminate(red, piv_row, enter, p, d)
    basis[leave] = enter
    return p


def _eliminate(row, piv_row, enter, p, d):
    f = row[enter]
    if f:
        return [(x * p - f * y) // d for x, y in zip(row, piv_row)]
    if p == d:
        return row
    return [x * p // d for x in row]


def _iterate(rows, basis, red, d, allowed):
    while True:
        enter = None
        for j in allowed:  # Bland: smallest eligible index enters
            if red[j] < 0:
                enter = j
                break
        if enter is None:
            return d
        # ratio test rhs / a, compared by cross-multiplication (a > 0)
        leave = None
        for r, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave, num, den = r, row[-1], a
                    continue
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, num, den = r, row[-1], a
        if leave is None:
            raise RuntimeError("unbounded linear program; impossible for this formulation")
        d = _pivot(rows, basis, red, d, leave, enter)


def _solve_diagonal_lp(pts: list[tuple[int, ...]]):
    npts = len(pts)
    dim = len(pts[0])
    t_col = npts
    s0 = npts + 1
    art = npts + 1 + dim
    ncols = art + 1

    rows = []
    row0 = [0] * (ncols + 1)
    for j in range(npts):
        row0[j] = 1
    row0[art] = 1
    row0[-1] = 1
    rows.append(row0)
    for i in range(dim):
        row = [u[i] for u in pts] + [0] * (ncols + 1 - npts)
        row[t_col] = -1
        row[s0 + i] = 1
        rows.append(row)
    basis = [art] + [s0 + i for i in range(dim)]
    d = 1

    # phase 1: drive the artificial variable of the convexity row to zero
    cost1 = [0] * ncols
    cost1[art] = 1
    red1 = _reduced_costs(rows, basis, cost1, d)
    d = _iterate(rows, basis, red1, d, range(ncols))
    if red1[-1] != 0:
        raise RuntimeError("phase 1 failed; the program is always feasible")
    if art in basis:
        r = basis.index(art)
        for j in range(ncols):
            if j != art and rows[r][j] != 0:
                d = _pivot(rows, basis, red1, d, r, j)
                break
        else:
            raise RuntimeError("could not drive the artificial variable out")

    # phase 2: minimize t, artificial column locked out
    cost2 = [0] * ncols
    cost2[t_col] = 1
    red2 = _reduced_costs(rows, basis, cost2, d)
    d = _iterate(rows, basis, red2, d, [j for j in range(ncols) if j != art])

    value = [0] * ncols
    for r, b in enumerate(basis):
        value[b] = rows[r][-1]
    lambdas = [Fraction(x, d) for x in value[:npts]]
    c = Fraction(value[t_col], d)
    dual = [Fraction(red2[s0 + i], d) for i in range(dim)]
    return c, lambdas, dual


def diagonal_entry(support: MonomialSupport) -> DiagonalResult:
    """Exact diagonal value of the Newton polyhedron, with certificates."""
    pts = sorted(support.points)
    c, lambdas, dual = _solve_diagonal_lp(pts)
    result = DiagonalResult(
        c=c,
        certificate=tuple(zip(pts, lambdas)),
        dual=tuple(dual),
    )
    if not result.verify():
        raise RuntimeError(f"internal error: certificate failed to verify for {pts}")
    return result


def newton_exponent(support: MonomialSupport) -> Fraction:
    """Reciprocal 1/c of the diagonal value.

    Valid as the minimal exponent at the origin only under the caller's
    attestation that the singularity is isolated and nondegenerate with
    respect to its Newton polyhedron; neither hypothesis is checked.
    """
    if support.origin in support.points:
        raise ValueError("support contains the origin: not in the maximal ideal")
    return 1 / diagonal_entry(support).c


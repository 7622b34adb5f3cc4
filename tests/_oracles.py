"""Independent brute-force oracles used by the tests.

The diagonal oracle deliberately avoids the library's simplex: the diagonal
value is recomputed by enumerating candidate vertices of the feasible region
{ (lambda, t) : lambda >= 0, sum(lambda) = 1, (support matrix) lambda <= t }
directly.  A vertex activates the convexity equality plus a mix of
lambda = 0 and tight-coordinate constraints totalling one per variable;
every nonsingular activation pattern is solved exactly and the feasible
ones are scanned for the least t.  The full-tableau oracle is the simplex
the library ran before it kept only d * B^-1: the same pivot rules on every
column of the tableau, so it must return the same c, weights and dual.

The probe oracle scans every nonzero point of F_q^n, where the library
scans one point per line through the origin, and evaluates with ``pow``,
where the library reads power tables; the descent-chain oracle computes in
``Fraction`` arithmetic, where the library computes in integers over a
common denominator.  The two ``verify`` oracles visit every point of their
grid: every tuple of the valuation box, where the library decides each b0
slice at once, and every chain point through ``descent_chain``, where the
library runs the grid in integers.  The token parser is the one the library
ran before its single-pass reader: a token list walked by ``peek`` and
``take``, with ``Fraction`` arithmetic on every factor and the public
``Poly`` constructor at the end.  Its tokenizer reads ``\\d``, which admits
non-ASCII digits the reader rejects, so it is an oracle for ASCII text only.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Sequence

from minexp.poly import Poly, PolyParseError, ProbeReport, ProbeWitness, _mod_terms, _rank
from minexp.resolution import (
    COMPLEMENTARY_BRANCH,
    LCT_BRANCH,
    DescentChainReport,
    ValuationScanReport,
    descent_chain,
)


def solve_square(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Exact Gaussian elimination; returns None when the system is singular."""
    size = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if aug[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][-1] for r in range(size)]


def diagonal_by_vertex_enumeration(points) -> Fraction:
    """Least t with (t, ..., t) in conv(points) + nonnegative orthant."""
    pts = sorted(tuple(p) for p in points)
    npts = len(pts)
    dim = len(pts[0])
    if any(not any(p) for p in pts):
        return Fraction(0)

    best = None
    for tight in range(1, dim + 1):
        for coords in itertools.combinations(range(dim), tight):
            zero_count = npts - tight
            if zero_count < 0:
                continue
            for zeros in itertools.combinations(range(npts), zero_count):
                free = [j for j in range(npts) if j not in zeros]
                # unknowns: lambda_j for j free, then t
                size = len(free) + 1
                matrix = []
                rhs = []
                matrix.append([Fraction(1)] * len(free) + [Fraction(0)])
                rhs.append(Fraction(1))
                for i in coords:
                    matrix.append([Fraction(pts[j][i]) for j in free] + [Fraction(-1)])
                    rhs.append(Fraction(0))
                solution = solve_square(matrix, rhs)
                if solution is None:
                    continue
                lams = {j: solution[idx] for idx, j in enumerate(free)}
                t = solution[-1]
                if any(lam < 0 for lam in lams.values()):
                    continue
                full = [lams.get(j, Fraction(0)) for j in range(npts)]
                feasible = all(
                    sum(full[j] * pts[j][i] for j in range(npts)) <= t for i in range(dim)
                )
                if not feasible:
                    continue
                if best is None or t < best:
                    best = t
    assert best is not None, f"no feasible vertex found for {pts}"
    return best


# ---------------------------------------------------------------------------
# the diagonal program on the full tableau (fraction-free, Bland's rule)
#
# The library keeps only d * B^-1 and prices columns from the support; this
# solver keeps every column of the tableau and eliminates on all of them.
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


def diagonal_lp_by_full_tableau(pts: list[tuple[int, ...]]):
    """(c, lambdas, dual) of the diagonal program of the sorted points ``pts``,
    from the full fraction-free tableau."""
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


def _eval_mod(terms: list[tuple[int, tuple[int, ...]]], point: tuple[int, ...], q: int) -> int:
    total = 0
    for c, u in terms:
        val = c
        for x, e in zip(point, u):
            if e:
                if x == 0:
                    val = 0
                    break
                val = val * pow(x, e, q) % q
        total = (total + val) % q
    return total


def probe_by_affine_scan(fs, field_size: int, limit: int = 100_000) -> ProbeReport:
    """The transversality probe by a scan of every nonzero point of F_q^n in
    lexicographic order, for inputs that already passed the library's checks."""
    xs = fs[0].variables
    n = len(xs)
    q = field_size
    total = q**n - 1
    if total > limit:
        return ProbeReport(
            "INCONCLUSIVE", q, 0,
            reason=f"point budget exceeded: {total} points > limit {limit}",
        )
    polys_mod = []
    grads_mod = []
    for f in fs:
        tm = _mod_terms(f, q)
        if tm is None:
            return ProbeReport(
                "INCONCLUSIVE", q, 0,
                reason=f"a coefficient denominator is divisible by {q}",
            )
        polys_mod.append(tm)
        grads_mod.append([_mod_terms(f.derivative(name), q) for name in xs])

    checked = 0
    for point in itertools.product(range(q), repeat=n):
        if not any(point):
            continue
        checked += 1
        vanishing = [i for i, tm in enumerate(polys_mod) if _eval_mod(tm, point, q) == 0]
        if not vanishing:
            continue
        rows = [[_eval_mod(gm, point, q) for gm in grads_mod[i]] for i in vanishing]
        if _rank(rows, lambda x: pow(x, -1, q), lambda x: x % q) == len(vanishing):
            continue
        lift = tuple(x if x <= q // 2 else x - q for x in point)
        vanishing_q = [i for i, f in enumerate(fs) if f.evaluate(lift) == 0]
        genuine = False
        note = "dependent gradient rows mod {}".format(q)
        if vanishing_q:
            rat_rows = [
                [f.derivative(name).evaluate(lift) for name in xs]
                for i, f in enumerate(fs) if i in vanishing_q
            ]
            if _rank(rat_rows, lambda x: 1 / x, lambda x: x) < len(vanishing_q):
                genuine = True
                note += "; failure persists exactly at the integer lift"
            else:
                note += "; lift is transverse over the rationals (mod-q artifact)"
        else:
            note += "; no input vanishes at the integer lift (mod-q artifact)"
        witness = ProbeWitness(
            point=point,
            vanishing=tuple(i + 1 for i in vanishing),
            lifted_point=lift,
            genuine=genuine,
            note=note,
        )
        return ProbeReport("FAIL", q, checked, witness=witness)
    return ProbeReport("PASS", q, checked)


def descent_chain_by_fractions(profile, u) -> DescentChainReport:
    """The descent chain of :func:`minexp.resolution.descent_chain` in plain
    ``Fraction`` arithmetic, for input that already passed its checks."""
    n = profile.n
    d = profile.degrees
    r = profile.r
    u = tuple(Fraction(x) for x in u)

    vals = [d[j] + u[j] for j in range(r)]
    chain = []
    start = 0
    while True:
        tail_min = min(vals[start:])
        pick = max(j for j in range(start, r) if vals[j] == tail_min)
        chain.append(pick + 1)
        if pick == r - 1:
            break
        start = pick + 1

    chain_values = []
    for idx in chain:
        j0 = idx - 1
        numer = (
            n
            + idx * u[j0]
            + sum(d[j0] - d[j] for j in range(j0 + 1))
            + sum(u[j] for j in range(j0 + 1, r))
        )
        chain_values.append(Fraction(numer, 1) / (d[j0] + u[j0]))

    alphas = profile.table.values
    links = []
    for q in range(len(chain) - 1):
        bound = min(alphas[chain[q] - 1], chain_values[q + 1])
        links.append(chain_values[q] >= bound)
    terminal_ok = chain_values[-1] >= min(alphas[-1], Fraction(r))
    return DescentChainReport(
        u=u,
        chain=tuple(chain),
        chain_values=tuple(chain_values),
        links_ok=tuple(links),
        terminal_ok=terminal_ok,
        passed=all(links) and terminal_ok,
    )


def valuation_scan_by_grid(profile, bound: int) -> ValuationScanReport:
    """:func:`minexp.resolution.verify_valuation_inequality` by a visit to every
    tuple of the box in lexicographic order, for input that passed its checks."""
    n = profile.n
    d = profile.degrees
    r = profile.r
    branch = LCT_BRANCH if profile.degree_sum > n else COMPLEMENTARY_BRANCH
    table = profile.table
    exponent = table.minimum if branch == LCT_BRANCH else table.values[-1]
    num, den = exponent.numerator, exponent.denominator

    pinned = () if branch == LCT_BRANCH else (0,)  # the complementary branch fixes b_r = 0
    checked = 0
    counterexample = None
    for b0 in range(1, bound + 1):
        base = n * b0
        scaled = [b0 * dj for dj in d]
        for free in itertools.product(range(bound + 1), repeat=r - len(pinned)):
            bs = free + pinned
            checked += 1
            order = min(s + b for s, b in zip(scaled, bs))
            if den * (base + sum(bs)) < num * order:
                counterexample = (b0,) + bs
                break
        if counterexample:
            break
    return ValuationScanReport(
        branch=branch,
        exponent=exponent,
        tuples_checked=checked,
        passed=counterexample is None,
        counterexample=counterexample,
    )


def chain_grid_by_points(profile, step: Fraction, maximum: Fraction):
    """:func:`minexp.resolution.descent_chain_grid` by a call of
    :func:`minexp.resolution.descent_chain` at every grid point."""
    axis = [i * step for i in range(maximum // step + 1)]
    points = 0
    for u in itertools.product(axis, repeat=profile.r):
        points += 1
        report = descent_chain(profile, u)
        if not report.passed:
            return points, report
    return points, None


_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^])|(\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        pos = m.start()
        if m.group(1):
            tokens.append(("num", m.group(1), pos))
        elif m.group(2):
            tokens.append(("name", m.group(2), pos))
        elif m.group(3):
            tokens.append(("op", m.group(3), pos))
        else:
            raise PolyParseError(f"unexpected character {m.group(4)!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = tuple(variables)
        self.index = {name: i for i, name in enumerate(self.variables)}

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> None:
        raise PolyParseError(message, self.peek()[2])

    def parse(self) -> Poly:
        terms: dict[tuple[int, ...], Fraction] = {}
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            sign = -1 if value == "-" else 1
        while True:
            coeff, exps = self.parse_term()
            coeff *= sign
            exps = tuple(exps)
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
            kind, value, _ = self.peek()
            if kind == "end":
                break
            if kind == "op" and value in "+-":
                self.take()
                sign = -1 if value == "-" else 1
                continue
            self.fail(f"expected '+', '-' or end of input, got {value!r}")
        return Poly(self.variables, terms)

    def parse_term(self) -> tuple[Fraction, list[int]]:
        coeff = Fraction(1)
        exps = [0] * len(self.variables)
        while True:
            kind, value, pos = self.peek()
            if kind == "num":
                self.take()
                num = int(value)
                den = 1
                k, v, _ = self.peek()
                if k == "op" and v == "/":
                    self.take()
                    dk, dv, dpos = self.peek()
                    if dk != "num":
                        self.fail("expected denominator after '/'")
                    self.take()
                    den = int(dv)
                    if den == 0:
                        raise PolyParseError("zero denominator in coefficient", dpos)
                coeff *= Fraction(num, den)
            elif kind == "name":
                self.take()
                if value not in self.index:
                    raise PolyParseError(f"unknown variable {value!r}", pos)
                power = 1
                k, v, _ = self.peek()
                if k == "op" and v == "^":
                    self.take()
                    ek, ev, epos = self.peek()
                    if ek != "num":
                        self.fail("expected integer exponent after '^'")
                    self.take()
                    power = int(ev)
                    if power < 1:
                        raise PolyParseError("exponent must be a positive integer", epos)
                exps[self.index[value]] += power
            else:
                self.fail("expected a number or a variable")
            k, v, _ = self.peek()
            if k == "op" and v == "*":
                self.take()
                continue
            return coeff, exps


def parse_poly_by_tokens(text: str, variables: Sequence[str]) -> Poly:
    """:func:`minexp.poly.parse_poly` through the token parser."""
    return _Parser(text, variables).parse()

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

The affine probe oracle scans every nonzero point of F_q^n, where the
library scans one point per line through the origin, and evaluates with
``pow``, where the library reads power tables.  The line probe oracle is
the loop the library ran before its scan by prefix: every input evaluated
at every line representative.  Both rank gradient rows by a full
Gauss-Jordan pass, where the library decides one row by a look at its
entries.  The two ``verify`` oracles visit every point of their grid, where
the library decides each lemma on the whole cone by a certificate: every
tuple of the valuation box, and every chain point through the descent chain
in ``Fraction`` arithmetic (``descent_chain_by_fractions``).  On a
``TableProfile``, whose candidate table is given, they can fail.  The token
parser is the one the library ran before its single-pass reader: a token
list walked by ``peek`` and ``take``, with ``Fraction`` arithmetic on every
factor and the public ``Poly`` constructor at the end.  Its tokenizer reads
``\\d``, which admits non-ASCII digits the reader rejects, so it is an
oracle for ASCII text only.
The argparse oracle is the argv parser the CLI ran before it read argv from
its command table: ``build_parser`` and ``_flag_request`` as they were, over
the flag options and text readers the request keys had then.  The candidate
oracle adds ``Fraction`` terms one by one, where the library builds each
candidate from integers over a common denominator.  The chart oracle is the
resolution the library ran before its chain ran on generator tuples:
``blowup_chart`` makes every chart a ``ChartState`` of fresh
``Coordinate`` objects, each ideal is rendered from its chart, and each
side chain is rendered again from the cut charts.  The chart classes
``Coordinate`` and ``ChartState``, with their checks (``_check_chart``) and
the roles ``EXCEPTIONAL``, ``STRICT`` and ``PLAIN``, live here, since the
library runs on generator tuples alone, with z0 its one exceptional
coordinate; so does the factorization witness on a ``ChartState``, which
reads each coordinate's role and so checks the library's witness on the
oracle's terminal chart.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, NamedTuple, Sequence

from minexp import cli
from minexp.cli import _TABLE, InputError
from minexp.exponent import DegreeProfile, ExponentTable, _as_fraction
from minexp.poly import (
    PROBE_LIMIT,
    Poly,
    PolyParseError,
    ProbeReport,
    ProbeWitness,
    _eval_power_terms,
    _mod_terms,
    _power_terms,
)
from minexp.resolution import (
    COMPLEMENTARY_BRANCH,
    LCT_BRANCH,
    LOG_RESOLUTION,
    STRONG_FACTORIZING,
    Case3Report,
    FactorizationWitness,
    LedgerRow,
    ResolutionError,
    ResolutionReport,
    VjCheck,
    _check_resolution_budget,
    _componentwise_min,
    _ideal_text,
    _letter,
    _levels,
    _render,
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


def rank_by_elimination(rows: list[list], inverse, reduce) -> int:
    """Gauss-Jordan rank over a field, on every row count, one row included:
    ``inverse`` inverts a nonzero entry and ``reduce`` normalizes (``x % q``
    over F_q, the identity over Q)."""
    mat = [row[:] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = inverse(mat[rank][col])
        mat[rank] = [reduce(x * inv) for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [reduce(x - factor * y) for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _probe_fail(fs, q: int, point: tuple[int, ...], vanishing: list[int], checked: int) -> ProbeReport:
    """The FAIL report of both probe oracles: the witness re-checked exactly
    at its centered integer lift."""
    xs = fs[0].variables
    lift = tuple(x if x <= q // 2 else x - q for x in point)
    vanishing_q = [i for i, f in enumerate(fs) if f.evaluate(lift) == 0]
    genuine = False
    note = "dependent gradient rows mod {}".format(q)
    if vanishing_q:
        rat_rows = [
            [f.derivative(name).evaluate(lift) for name in xs]
            for i, f in enumerate(fs) if i in vanishing_q
        ]
        if rank_by_elimination(rat_rows, lambda x: 1 / x, lambda x: x) < len(vanishing_q):
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


def _probe_budget(fs, q: int, limit: int) -> ProbeReport | None:
    """The INCONCLUSIVE report of both probe oracles, or None."""
    lines = (q ** len(fs[0].variables) - 1) // (q - 1)
    if lines > limit:
        return ProbeReport(
            "INCONCLUSIVE", q, 0,
            reason=f"line budget exceeded: {lines} lines > limit {limit}",
        )
    if any(_mod_terms(f, q) is None for f in fs):
        return ProbeReport(
            "INCONCLUSIVE", q, 0,
            reason=f"a coefficient denominator is divisible by {q}",
        )
    return None


def probe_by_affine_scan(fs, field_size: int, limit: int = PROBE_LIMIT) -> ProbeReport:
    """The transversality probe by a scan of every nonzero point of F_q^n in
    lexicographic order, for inputs that already passed the library's checks."""
    xs = fs[0].variables
    n = len(xs)
    q = field_size
    inconclusive = _probe_budget(fs, q, limit)
    if inconclusive:
        return inconclusive
    polys_mod = [_mod_terms(f, q) for f in fs]
    grads_mod = [[_mod_terms(f.derivative(name), q) for name in xs] for f in fs]

    checked = 0
    for point in itertools.product(range(q), repeat=n):
        if not any(point):
            continue
        checked += 1
        vanishing = [i for i, tm in enumerate(polys_mod) if _eval_mod(tm, point, q) == 0]
        if not vanishing:
            continue
        rows = [[_eval_mod(gm, point, q) for gm in grads_mod[i]] for i in vanishing]
        if rank_by_elimination(rows, lambda x: pow(x, -1, q), lambda x: x % q) == len(vanishing):
            continue
        return _probe_fail(fs, q, point, vanishing, checked)
    return ProbeReport("PASS", q, checked)


def _line_representatives(q: int, n: int):
    """The lex-smallest point of each line through the origin of F_q^n (the
    one whose first nonzero coordinate is 1), in lexicographic order."""
    for k in range(n - 1, -1, -1):
        head = (0,) * k + (1,)
        for tail in itertools.product(range(q), repeat=n - k - 1):
            yield head + tail


def probe_by_line_scan(fs, field_size: int, limit: int = PROBE_LIMIT) -> ProbeReport:
    """The transversality probe as the library ran it before its scan by
    prefix: every input evaluated at every line representative, from power
    tables, for inputs that already passed the library's checks."""
    xs = fs[0].variables
    q = field_size
    inconclusive = _probe_budget(fs, q, limit)
    if inconclusive:
        return inconclusive
    tables: dict[int, list[int]] = {}
    polys_mod = [_power_terms(_mod_terms(f, q), q, tables) for f in fs]
    grads_mod = [[_power_terms(_mod_terms(f.derivative(name), q), q, tables) for name in xs] for f in fs]

    for point in _line_representatives(q, len(xs)):
        vanishing = [i for i, tm in enumerate(polys_mod) if _eval_power_terms(tm, point, q) == 0]
        if not vanishing:
            continue
        rows = [[_eval_power_terms(gm, point, q) for gm in grads_mod[i]] for i in vanishing]
        if rank_by_elimination(rows, lambda x: pow(x, -1, q), lambda x: x % q) == len(vanishing):
            continue
        checked = 0  # the witness as a base-q number: its place in the affine scan
        for x in point:
            checked = checked * q + x
        return _probe_fail(fs, q, point, vanishing, checked)
    return ProbeReport("PASS", q, q ** len(xs) - 1)


def exponent_candidates_by_fractions(w, degrees: Sequence) -> ExponentTable:
    """:func:`minexp.exponent.exponent_candidates` in a chain of ``Fraction``
    additions, as the library computed it before its integer kernel."""
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


class TableProfile(DegreeProfile):
    """A profile with a given candidate table, for the ``verify`` oracles and
    certificates: random values make most grids fail."""

    def __new__(cls, n, degrees, values):
        profile = super().__new__(cls, n, degrees)
        profile._values = tuple(values)
        return profile

    @property
    def table(self):
        return ExponentTable(self._values, 1, min(self._values))


@dataclass(frozen=True)
class DescentChainReport:
    u: tuple[Fraction, ...]
    chain: tuple[int, ...]  # 1-based indices, strictly increasing, ends at r
    chain_values: tuple[Fraction, ...]
    links_ok: tuple[bool, ...]
    terminal_ok: bool
    passed: bool


def descent_chain_by_fractions(profile, u) -> DescentChainReport:
    """The telescoping chain that lower-bounds normalized valuations, at
    nonnegative rationals u_1..u_r, in plain ``Fraction`` arithmetic.

    The chain picks the largest index attaining min_j (d_j + u_j), then
    repeats on the remaining tail until it reaches r.  For a chain index k
    the chain value is

        (n + k*u_k + sum_{j<=k} (d_k - d_j) + sum_{j>k} u_j) / (d_k + u_k),

    and each value must dominate min(candidate_k, next chain value), with the
    final value dominating min(candidate_r, r)."""
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


@dataclass(frozen=True)
class ValuationScanReport:
    branch: str
    exponent: Fraction
    tuples_checked: int
    passed: bool
    counterexample: tuple[int, ...] | None


def valuation_scan_by_grid(profile, bound: int) -> ValuationScanReport:
    """The valuation inequality of :class:`minexp.resolution.ValuationCertificate`
    at every tuple of the box 1 <= b0 <= bound, 0 <= b_j <= bound (b_r = 0 in
    the complementary branch), in lexicographic order up to the first
    violation, for input that passed the box's checks."""
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
    """The descent chain at every u in {0, step, 2*step, ...}^r up to
    ``maximum``, in lexicographic order, through
    :func:`descent_chain_by_fractions`: the number of points checked and the
    first failing report (None when every chain passes)."""
    axis = [i * step for i in range(maximum // step + 1)]
    points = 0
    for u in itertools.product(axis, repeat=profile.r):
        points += 1
        report = descent_chain_by_fractions(profile, u)
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


# ---------------------------------------------------------------------------
# the argparse reader of argv


def _parse_int(text: str) -> int:
    return cli._parse_int(text)


_parse_int.__name__ = "int"  # argparse names the type in its error: "invalid int value: 'x'"


class _Key(NamedTuple):
    flag: str
    options: dict  # further add_argument options; a metavar names the flag, not the key
    text: Callable | None  # (flag text, key) -> request value; None: argparse converts


_KEYS = {
    "n": _Key("--n", {"type": _parse_int}, None),
    "degrees": _Key("--degrees", {}, cli._parse_int_list),
    "weights": _Key("--weights", {}, cli._parse_fraction_list),
    "orders": _Key("--orders", {}, cli._parse_fraction_list),
    "polynomials": _Key("--poly", {"action": "append", "metavar": "POLYS"}, None),
    "polynomial": _Key("--poly", {"metavar": "POLY"}, None),
    "variables": _Key("--vars", {"metavar": "VARS"}, lambda text, key: text.split(",")),
    "support": _Key("--support", {}, cli._KEYS["support"].text),
    "bound": _Key("--bound", {"type": _parse_int}, None),
    "chain_step": _Key("--chain-step", {}, cli._parse_fraction),
    "chain_max": _Key("--chain-max", {}, cli._parse_fraction),
    "field": _Key("--field", {"type": _parse_int}, None),
    "limit": _Key("--limit", {"type": _parse_int}, None),
}


class _ArgParser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every command, built on first use and then
    shared by every call of :func:`main` in the process."""
    parser = _ArgParser(prog="minexp", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys) in _TABLE.items():
        p = sub.add_parser(command, help=help_text)
        for key, required in keys.items():
            p.add_argument(_KEYS[key].flag, dest=key, required=required, **_KEYS[key].options)
        p.add_argument("--json", action="store_true")
    p = sub.add_parser("batch", help="run a JSON manifest of requests")
    p.add_argument("manifest")
    p.add_argument("--json", action="store_true")
    return parser


def _flag_request(args) -> dict:
    """The request of parsed flags.  Flag text that holds a list, a rational
    or JSON is read here whenever the flag is given, even when it is empty."""
    request = {"command": args.command}
    for key in _TABLE[args.command][1]:
        value, text = getattr(args, key), _KEYS[key].text
        request[key] = value if text is None or value is None else text(value, key)
    return request


def read_argv_by_argparse(argv: list[str]):
    """What argparse made of argv: ("help", the command or None for minexp's
    own help), ("error", the message), or ("ok", command, --json, the request
    without its absent keys or batch's manifest path)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = build_parser().parse_args(argv)
    except SystemExit:  # --help printed its text and exited
        usage = out.getvalue().split()
        return "help", None if usage[2] == "[-h]" else usage[2]
    except InputError as err:
        return "error", str(err)
    if args.command == "batch":
        return "ok", "batch", args.json, args.manifest
    try:
        request = _flag_request(args)
    except InputError as err:
        return "error", str(err)
    return "ok", args.command, args.json, {key: value for key, value in request.items() if value is not None}


# ---------------------------------------------------------------------------
# the resolution on ChartState charts

EXCEPTIONAL = "exceptional"
STRICT = "strict"
PLAIN = "plain"


@dataclass(frozen=True)
class Coordinate:
    """A chart coordinate: exceptional ones carry their ledger tags."""

    name: str
    role: str
    a: int | None = None
    k: int | None = None

    def __post_init__(self):
        if self.role not in (EXCEPTIONAL, STRICT, PLAIN):
            raise ValueError(f"unknown coordinate role {self.role!r}")
        if self.role == EXCEPTIONAL:
            if self.a is None or self.k is None:
                raise ValueError(f"exceptional coordinate {self.name} needs (a, k) tags")
            if self.a < 0 or self.k < 0:
                raise ValueError(f"negative ledger tags on {self.name}")
        elif self.a is not None or self.k is not None:
            raise ValueError(f"non-exceptional coordinate {self.name} cannot carry tags")


@dataclass(frozen=True)
class ChartState:
    """A coordinate chart with a monomial ideal (tuple of exponent vectors)."""

    coords: tuple[Coordinate, ...]
    ideal: tuple[tuple[int, ...], ...]
    depth: int = 0
    born_pivot: str | None = None
    born_pivot_index: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        object.__setattr__(self, "ideal", tuple(tuple(g) for g in self.ideal))
        _check_chart(self.coords, self.ideal)

    def names(self) -> tuple[str, ...]:
        return tuple([c.name for c in self.coords])

    def render_monomial(self, g: Sequence[int]) -> str:
        return _render(self.names(), [g])[0]

    def render_ideal(self) -> str:
        return _ideal_text(_render(self.names(), self.ideal))


def _check_chart(coords: tuple[Coordinate, ...], ideal: tuple[tuple[int, ...], ...]) -> None:
    names = [c.name for c in coords]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate coordinate names: {names}")
    exponents = list(itertools.chain.from_iterable(ideal))
    if {*map(type, exponents)} <= {int} and min(exponents, default=0) >= 0:
        if all(len(g) == len(coords) and any(g) for g in ideal):
            return  # plain ints and every check passed; else the loop names the first failure
    for g in ideal:
        if len(g) != len(coords):
            raise ValueError(f"generator {g} does not match the coordinate count")
        if not all(map(isinstance, g, itertools.repeat(int))) or min(g, default=0) < 0:
            raise ValueError(f"generator {g} must have nonnegative integer exponents")
        if not any(g):
            raise ValueError("a generator is the unit monomial; not a proper ideal")



def _render_monomial(names: Sequence[str], g: Sequence[int]) -> str:
    return "*".join([name if e == 1 else f"{name}^{e}" for name, e in zip(names, g) if e > 0]) or "1"


def _derived(coords, ideal, depth, born_pivot, born_pivot_index) -> ChartState:
    """A chart of :func:`blowup_chart`, which runs the chart checks once per blow-up."""
    chart = object.__new__(ChartState)
    chart.__dict__.update(
        coords=coords, ideal=ideal, depth=depth, born_pivot=born_pivot, born_pivot_index=born_pivot_index
    )
    return chart


def blowup_chart(state: ChartState, center: Iterable[str]) -> list[ChartState]:
    """Transform a monomial ideal under the blow-up of a coordinate subspace.

    Returns one chart per pivot coordinate of the center, in coordinate
    order.  In the pivot chart every generator's pivot exponent becomes the
    sum of its exponents over the center; all other exponents are unchanged.
    The pivot coordinate becomes the new exceptional divisor, tagged with

        a = min over transformed generators of the pivot exponent,
        k = (|center| - 1) + sum of k over exceptional coordinates in center,

    while the remaining center coordinates keep their roles (they cut the
    strict transforms of whatever they cut before).
    """
    center = tuple(dict.fromkeys(center))
    names = state.names()
    for name in center:
        if name not in names:
            raise ValueError(f"center coordinate {name!r} is not in the chart")
    if len(center) < 2:
        raise ValueError("center must contain at least two coordinates")
    # Every chart holds these coordinates off its pivot, and the parent's generators with the
    # pivot exponent set to their total over the center: one check of both covers every chart.
    letter = _letter(state.depth + 1)
    coords = tuple([Coordinate(f"{letter}{i}", c.role, c.a, c.k) for i, c in enumerate(state.coords)])
    _check_chart(coords, state.ideal)
    center_idx = [i for i, name in enumerate(names) if name in center]
    k_new = (len(center) - 1) + sum([coords[i].k for i in center_idx if coords[i].role == EXCEPTIONAL])
    totals = [sum(map(g.__getitem__, center_idx)) for g in state.ideal]
    a_new = min(totals, default=0)
    columns = list(zip(*state.ideal))
    return [
        _derived(
            coords[:p] + (Coordinate(coords[p].name, EXCEPTIONAL, a_new, k_new),) + coords[p + 1 :],
            tuple(zip(*columns[:p], totals, *columns[p + 1 :])),
            state.depth + 1,
            names[p],
            p,
        )
        for p in center_idx
    ]



def _principal_exceptional_generator(state: ChartState) -> tuple[int, ...]:
    """The componentwise minimum must itself be a generator (the ideal is
    principal) and be supported on exceptional coordinates only."""
    if not state.ideal:
        raise ResolutionError(f"empty ideal in chart {state.names()}")
    gmin = _componentwise_min(state.ideal)
    if gmin not in state.ideal:
        raise ResolutionError(f"ideal {state.render_ideal()} is not principal")
    if any(c.role != EXCEPTIONAL for c in itertools.compress(state.coords, gmin)):
        raise ResolutionError(
            f"principal generator {state.render_monomial(gmin)} is not exceptional-supported"
        )
    return gmin


def _start_chart(profile: DegreeProfile) -> ChartState:
    """The chart on E1 after the origin blow-up: the exceptional coordinate
    z0 tagged (a = d_1, k = n - 1) and the strict transforms z1..zr, with
    generators z0^{d_j} z_j.  The plain coordinates never carry an exponent
    and are left out."""
    degrees, r = profile.degrees, profile.r
    coords = [Coordinate("z0", EXCEPTIONAL, degrees[0], profile.n - 1)]
    coords += [Coordinate(f"z{j}", STRICT) for j in range(1, r + 1)]
    gens = [(degrees[j - 1],) + tuple(int(i == j) for i in range(1, r + 1)) for j in range(1, r + 1)]
    return ChartState(tuple(coords), tuple(gens))


def _climb(state: ChartState, e: Sequence[int], cum: Sequence[int], vj_checks: list):
    """Run the main chain's blow-ups and yield (center, chart) after each,
    following the chart that keeps the exceptional coordinate z0.

    ``e`` holds the distinct degrees in increasing order and ``cum[l]`` the
    number of degrees at most ``e[l]``.  A blow-up of level l is centred on
    z0 and z1..zq, q = cum[l-1]; there are e_l - e_{l-1} of them.
    :func:`blowup_chart` returns the z0 chart first.  Every other chart, of
    pivot p, must be principal with a generator g* supported on its
    exceptional coordinates z0 and z_p; each is recorded in ``vj_checks``
    under the name of the divisor just made, E2 onwards.

    The same chart of the side chain of a level m >= l (see
    :func:`_side_chain`) holds this chart's first cum[m-1] generators, cut
    to z0..z_{cum[m-1]}, and z0^{e_m} z_p^{e_m}.  If g* is among the first
    q generators and g*[0], g*[p] <= e_l, then g* divides all of them, so
    that chart is principal with generator g* too; as ``cum`` and ``e`` rise
    with the level, this one comparison covers every side chain.
    """
    blowup_levels = [level for level in range(1, len(e)) for _ in range(e[level] - e[level - 1])]
    for divisor, level in enumerate(blowup_levels, 2):
        q = cum[level - 1]
        center = tuple(c.name for c in state.coords[: q + 1])
        state, *others = blowup_chart(state, center)
        for chart in others:
            gmin = _principal_exceptional_generator(chart)
            generator = chart.render_monomial(gmin)
            if gmin not in chart.ideal[:q] or max(gmin[0], gmin[chart.born_pivot_index]) > e[level]:
                raise ResolutionError(
                    f"level {level}: {generator} does not divide the {chart.born_pivot} side chart"
                )
            vj_checks.append(VjCheck(f"E{divisor}", chart.born_pivot, chart.render_ideal(), generator))
        yield center, state


def _side_chain(chain: Sequence[ChartState], e: Sequence[int], cum: Sequence[int], level: int) -> Case3Report:
    """The side chain at ``level``, read off ``chain``, the main chain's
    followed charts (``e`` and ``cum`` as in :func:`_climb`).

    It starts from z1..zq, the strict transforms of the lower levels
    (q = cum[level-1]), and z0^power (power = e_level), and runs the main
    chain's blow-ups of levels 1..``level``.  Every chart map is monomial
    and acts on each generator alone, and these centres use only z0..zq, so
    the main chain carries the first q generators along; the z0 chart keeps
    z0^power, its total over the centre.  So step t is main chart t cut to
    its first q+1 coordinates and first q generators, followed by z0^power.
    :func:`_climb` checks the other charts; the last chart must be
    generated by z0^power.
    """
    q, power = cum[level - 1], e[level]
    pure = (power,) + (0,) * q
    steps = []
    for chart in chain[: 1 + power - e[0]]:
        names = chart.names()[: q + 1]
        gens = [g[: q + 1] for g in chart.ideal[:q]] + [pure]
        steps.append("(" + ", ".join([_render_monomial(names, g) for g in gens]) + ")")
    last = ChartState(chart.coords[: q + 1], gens)
    gmin = _principal_exceptional_generator(last)
    if gmin != pure:
        raise ResolutionError(
            f"side chain at level {level} ended in {last.render_monomial(gmin)}, "
            f"expected the exceptional coordinate to the power {power}"
        )
    return Case3Report(level=level, steps=tuple(steps), principal=last.render_monomial(gmin))

def _factorization_witness(state: ChartState, profile: DegreeProfile) -> FactorizationWitness:
    gens = state.ideal
    # divisorial part: the common exceptional exponents; everything else must
    # be accounted for by the residual shape checks below
    common = tuple(m if c.role == EXCEPTIONAL else 0 for m, c in zip(_componentwise_min(gens), state.coords))
    residual = [tuple(map(operator.sub, g, common)) for g in gens]
    seen = set()
    for res in residual:
        support = [i for i, exp in enumerate(res) if exp]
        if len(support) != 1 or res[support[0]] != 1:
            raise ResolutionError(f"residual generator {res} is not a single coordinate")
        i = support[0]
        if state.coords[i].role != STRICT:
            raise ResolutionError(f"residual coordinate {state.coords[i].name} is not strict")
        seen.add(i)
    if len(seen) != profile.r:
        raise ResolutionError("residual generators do not span r distinct coordinates")
    common_text, *residual_texts = _render(state.names(), [common, *residual])
    return FactorizationWitness(common=common_text, residual=tuple(residual_texts))


def simulate_resolution_by_charts(profile: DegreeProfile) -> tuple[ResolutionReport, ChartState]:
    """Drive the scripted blow-up sequence and collect the divisor ledger.

    For codimension r < n this is a strong factorizing resolution and the
    terminal chart must factor as (exceptional monomial) * (r coordinates);
    for r = n the same bookkeeping runs in log-resolution mode and no
    factorization witness is asserted.  A profile over the work budget
    (:func:`_check_resolution_budget`) raises ``ValueError`` before any
    chart is built.  Returns the report and the terminal chart, the last
    chart of the main chain.
    """
    _check_resolution_budget(profile)
    n = profile.n
    # e and cum come from the degree runs, not from the library's schedule, which this oracle checks
    levels = _levels(profile)[0]
    e = [d for d, _ in levels]
    cum = list(itertools.accumulate(count for _, count in levels))
    mode = LOG_RESOLUTION if profile.r == n else STRONG_FACTORIZING

    chain = [_start_chart(profile)]
    rows = [LedgerRow("origin", "E1", profile.degrees[0], n - 1, chain[0].render_ideal())]
    vj_checks: list[VjCheck] = []
    for center, state in _climb(chain[0], e, cum, vj_checks):
        chain.append(state)
        z0 = state.coords[0]
        rows.append(LedgerRow(center, f"E{len(rows) + 1}", z0.a, z0.k, state.render_ideal()))

    # one divisor, and so one blow-up, per degree step
    expected_a = list(range(e[0], e[-1] + 1))
    if [row.a for row in rows] != expected_a:
        raise ResolutionError(f"ledger multiplicities {[r.a for r in rows]} != {expected_a}")
    ks = [row.k for row in rows]
    if any(ks[i] >= ks[i + 1] for i in range(len(ks) - 1)):
        raise ResolutionError(f"discrepancies not strictly increasing: {ks}")

    witness = _factorization_witness(chain[-1], profile) if mode == STRONG_FACTORIZING else None
    case3 = tuple(_side_chain(chain, e, cum, level) for level in range(1, len(e)))

    report = ResolutionReport(
        mode=mode,
        levels=levels,
        ledger=tuple(rows),
        lower_bound=min(row.ratio for row in rows),
        witness=witness,
        case3=case3,
        vj_checks=tuple(vj_checks),
    )
    return report, chain[-1]

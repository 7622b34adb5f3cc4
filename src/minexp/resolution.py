"""Blow-up chart calculus and the exceptional-divisor ledger.

The cone over a transverse complete intersection with degrees
d_1 <= ... <= d_r admits an explicit resolution: blow up the origin, then
repeatedly blow up the intersection of the newest exceptional divisor with
the strict transforms of the hypersurfaces of smallest degree, one blow-up
per missing degree step.  In the only chart that matters the pulled-back
ideal is monomial at every stage, starting from

    (z0^{d_1} z1, ..., z0^{d_r} zr)

after the origin blow-up (z0 cuts the exceptional divisor, z1..zr the
strict transforms).  Each blow-up along {z0} u {z1..zq} replaces, in the
chart keeping z0, every generator's z0-exponent by its total exponent over
the center.  The simulation tracks, for each new divisor E_j, its
multiplicity a_j in the pulled-back ideal and its discrepancy k_j:

    a_j = min over transformed generators of the new exceptional exponent,
    k_j = (codim(center) - 1) + sum of the discrepancies of the exceptional
          divisors containing the center,

with k_1 = n - 1 for the origin blow-up.  The resulting lower bound
min_j (k_j + 1) / a_j must agree exactly with the closed-form exponent;
that agreement scan is this module's primary oracle.

The module also verifies the valuation inequalities behind the lower bound
on every tuple of an integer box, and checks the telescoping chain argument
used to prove them pointwise on a rational grid.  The box is decided one
slice of fixed b0 at a time, each slice in one pass over the possible
minimum (see :func:`verify_valuation_inequality`); a PASS still counts the
whole box in ``tuples_checked``.  The chain grid runs in integers over the
step's denominator, and only a failing point becomes a report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from minexp.exponent import DegreeProfile, _as_fraction

EXCEPTIONAL = "exceptional"
STRICT = "strict"
PLAIN = "plain"

STRONG_FACTORIZING = "strong_factorizing"
LOG_RESOLUTION = "log_resolution"

_LETTERS = ("z", "u", "v", "w", "s", "t", "q", "m")


def _letter(depth: int) -> str:
    return _LETTERS[depth] if depth < len(_LETTERS) else f"c{depth}_"


class ResolutionError(RuntimeError):
    """An internal chart-calculus invariant failed (a bug, not bad input)."""


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

    @classmethod
    def _derived(cls, coords, ideal, depth, born_pivot, born_pivot_index) -> "ChartState":
        """A chart of :func:`blowup_chart`, which runs the chart checks once per blow-up."""
        chart = object.__new__(cls)
        chart.__dict__.update(
            coords=coords, ideal=ideal, depth=depth, born_pivot=born_pivot, born_pivot_index=born_pivot_index
        )
        return chart

    def names(self) -> tuple[str, ...]:
        return tuple([c.name for c in self.coords])

    def render_monomial(self, g: Sequence[int]) -> str:
        return _render_monomial(self.names(), g)

    def render_ideal(self) -> str:
        names = self.names()
        return "(" + (", ".join([_render_monomial(names, g) for g in self.ideal]) or "0") + ")"


def _render_monomial(names: Sequence[str], g: Sequence[int]) -> str:
    return "*".join([name if e == 1 else f"{name}^{e}" for name, e in zip(names, g) if e > 0]) or "1"


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
        ChartState._derived(
            coords[:p] + (Coordinate(coords[p].name, EXCEPTIONAL, a_new, k_new),) + coords[p + 1 :],
            tuple(zip(*columns[:p], totals, *columns[p + 1 :])),
            state.depth + 1,
            names[p],
            p,
        )
        for p in center_idx
    ]


@dataclass(frozen=True)
class LedgerRow:
    """One exceptional divisor: its ideal multiplicity a and discrepancy k."""

    divisor: str
    a: int
    k: int

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"divisor multiplicity must be >= 1, got {self.a}")
        if self.k < 0:
            raise ValueError(f"discrepancy must be >= 0, got {self.k}")

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.k + 1, self.a)


@dataclass(frozen=True)
class DivisorLedger:
    rows: tuple[LedgerRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ValueError("ledger must be nonempty")

    @property
    def lower_bound(self) -> Fraction:
        return min(row.ratio for row in self.rows)


@dataclass(frozen=True)
class TraceStep:
    center: tuple[str, ...] | str
    pivot: str | None
    divisor: str
    a: int
    k: int
    ideal: str


@dataclass(frozen=True)
class VjCheck:
    """Depth-one expansion of a non-pivot chart: the transformed ideal must
    be principal with an exceptional-supported generator."""

    divisor: str
    pivot: str
    ideal: str
    generator: str


@dataclass(frozen=True)
class Case3Report:
    """A side chart where only the first q strict transforms survive; its
    chain must terminate in a purely exceptional principal ideal."""

    level: int
    steps: tuple[str, ...]
    principal: str


@dataclass(frozen=True)
class FactorizationWitness:
    """Terminal-chart factorization: a monomial supported on exceptional
    coordinates times the ideal of r distinct strict-transform coordinates."""

    common: str
    residual: tuple[str, ...]


@dataclass(frozen=True)
class ResolutionReport:
    """The scripted resolution of a profile.  ``terminal`` is the last chart
    of the main chain; it holds only the exceptional coordinate and the r
    strict transforms, since the plain coordinates never carry an exponent."""

    profile: DegreeProfile
    mode: str
    levels: tuple[tuple[int, int], ...]  # (degree value, multiplicity), values increasing
    ledger: DivisorLedger
    lower_bound: Fraction
    blowup_count: int
    witness: FactorizationWitness | None
    trace: tuple[TraceStep, ...]
    case3: tuple[Case3Report, ...]
    vj_checks: tuple[VjCheck, ...]
    terminal: ChartState


def _componentwise_min(gens: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    return tuple(map(min, zip(*gens)))


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
    residual = [tuple(g[i] - common[i] for i in range(len(common))) for g in gens]
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
    return FactorizationWitness(
        common=state.render_monomial(common),
        residual=tuple(state.render_monomial(res) for res in residual),
    )


def simulate_resolution(profile: DegreeProfile) -> ResolutionReport:
    """Drive the scripted blow-up sequence and collect the divisor ledger.

    For codimension r < n this is a strong factorizing resolution and the
    terminal chart must factor as (exceptional monomial) * (r coordinates);
    for r = n the same bookkeeping runs in log-resolution mode and no
    factorization witness is asserted.
    """
    n = profile.n
    levels = tuple((d, len(list(run))) for d, run in itertools.groupby(profile.degrees))
    e = [d for d, _ in levels]
    cum = list(itertools.accumulate(count for _, count in levels))
    mode = LOG_RESOLUTION if profile.r == n else STRONG_FACTORIZING

    chain = [_start_chart(profile)]
    rows = [LedgerRow("E1", profile.degrees[0], n - 1)]
    trace = [TraceStep("origin", None, "E1", profile.degrees[0], n - 1, chain[0].render_ideal())]
    vj_checks: list[VjCheck] = []
    for center, state in _climb(chain[0], e, cum, vj_checks):
        chain.append(state)
        row = LedgerRow(f"E{len(rows) + 1}", state.coords[0].a, state.coords[0].k)
        rows.append(row)
        trace.append(TraceStep(center, center[0], row.divisor, row.a, row.k, state.render_ideal()))

    # one divisor, and so one blow-up, per degree step: this also checks blowup_count
    expected_a = list(range(e[0], e[-1] + 1))
    if [row.a for row in rows] != expected_a:
        raise ResolutionError(f"ledger multiplicities {[r.a for r in rows]} != {expected_a}")
    ks = [row.k for row in rows]
    if any(ks[i] >= ks[i + 1] for i in range(len(ks) - 1)):
        raise ResolutionError(f"discrepancies not strictly increasing: {ks}")

    witness = _factorization_witness(chain[-1], profile) if mode == STRONG_FACTORIZING else None
    case3 = tuple(_side_chain(chain, e, cum, level) for level in range(1, len(e)))

    ledger = DivisorLedger(tuple(rows))
    return ResolutionReport(
        profile=profile,
        mode=mode,
        levels=levels,
        ledger=ledger,
        lower_bound=ledger.lower_bound,
        blowup_count=len(rows),
        witness=witness,
        trace=tuple(trace),
        case3=case3,
        vj_checks=tuple(vj_checks),
        terminal=chain[-1],
    )


# ---------------------------------------------------------------------------
# brute-force verification of the valuation inequalities

LCT_BRANCH = "lct"
COMPLEMENTARY_BRANCH = "complementary"


@dataclass(frozen=True)
class ValuationScanReport:
    branch: str
    exponent: Fraction
    tuples_checked: int
    passed: bool
    counterexample: tuple[int, ...] | None


# The most points one exhaustive scan, the valuation grid or the chain grid,
# may visit; a larger grid is rejected before the scan starts.
SCAN_BUDGET = 10**6


def _check_budget(count: int, axis: int, dims: int, what: str) -> None:
    """Reject a grid of count * axis**dims points above SCAN_BUDGET.  An axis
    longer than the budget is cut to one over it, so that a huge request
    never costs a huge power."""
    if count * min(axis, SCAN_BUDGET + 1) ** dims > SCAN_BUDGET:
        raise ValueError(f"{what} exceeds the work budget of {SCAN_BUDGET} points")


def _check_scan_bound(profile: DegreeProfile, bound: int) -> None:
    """The check on the box of :func:`verify_valuation_inequality`: bound >= 1,
    and its bound * (bound + 1)^free tuples within the budget."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    free = profile.r if profile.degree_sum > profile.n else profile.r - 1  # b_r = 0 when complementary
    _check_budget(bound, bound + 1, free, "valuation grid")


def verify_valuation_inequality(profile: DegreeProfile, bound: int) -> ValuationScanReport:
    """Check the divisorial valuation inequality on every tuple of an integer box.

    For degree sum > n ("lct" branch) the inequality is

        n*b0 + b1 + ... + br  >=  exponent * min_j (b0*d_j + b_j)

    with the exponent factor equal to the minimal exponent, over
    1 <= b0 <= bound and 0 <= b_j <= bound.  For degree sum <= n the
    scripted resolution never blows up inside the last strict transform, so
    the same inequality is checked with b_r = 0 imposed and the last
    candidate value as the factor
    ("complementary" branch).  Returns the first violating tuple in
    lexicographic order, if any.

    Each slice of fixed b0 is decided at once.  Write s_j = b0*d_j and take a
    tuple of the slice with t = min_j (s_j + b_j).  Every free b_j is at least
    t - s_j, so the free b_j sum to at least S(t) = sum over free j of
    max(0, t - s_j), and the tuple b_j = max(0, t - s_j) attains S(t) with
    minimum exactly t.  That tuple lies in the box exactly when t <= top,
    where top = min(s_j + bound over the free j, and s_r when b_r is pinned),
    and every tuple of the slice has min_j s_j <= t <= top.  So the slice holds
    a violation exactly when den*(n*b0 + S(t)) < num*t for some integer t in
    [min_j s_j, top].  A slice without one adds its (bound+1)^free tuples to
    ``tuples_checked``; in the slice with one, the lexicographic scan names
    the first counterexample and counts the tuples up to it.
    """
    _check_scan_bound(profile, bound)
    n = profile.n
    d = profile.degrees
    r = profile.r
    branch = LCT_BRANCH if profile.degree_sum > n else COMPLEMENTARY_BRANCH
    table = profile.table
    exponent = table.minimum if branch == LCT_BRANCH else table.values[-1]
    num, den = exponent.numerator, exponent.denominator

    pinned = () if branch == LCT_BRANCH else (0,)  # the complementary branch fixes b_r = 0
    free = r - len(pinned)
    checked = 0
    counterexample = None
    for b0 in range(1, bound + 1):
        base = n * b0
        scaled = [b0 * dj for dj in d]
        scaled_free = scaled[:free]
        top = min([s + bound for s in scaled_free] + scaled[free:])
        if not any(
            den * (base + sum([t - s for s in scaled_free if s < t])) < num * t
            for t in range(min(scaled), top + 1)
        ):
            checked += (bound + 1) ** free
            continue
        # the slice holds a violation, so the scan below meets one
        tuples = (bs + pinned for bs in itertools.product(range(bound + 1), repeat=free))
        index, bs = next(
            (i, bs) for i, bs in enumerate(tuples)
            if den * (base + sum(bs)) < num * min(s + b for s, b in zip(scaled, bs))
        )
        checked += index + 1
        counterexample = (b0,) + bs
        break
    return ValuationScanReport(
        branch=branch,
        exponent=exponent,
        tuples_checked=checked,
        passed=counterexample is None,
        counterexample=counterexample,
    )


@dataclass(frozen=True)
class DescentChainReport:
    u: tuple[Fraction, ...]
    chain: tuple[int, ...]            # 1-based indices, strictly increasing, ends at r
    chain_values: tuple[Fraction, ...]
    links_ok: tuple[bool, ...]
    terminal_ok: bool
    passed: bool


def descent_chain(profile: DegreeProfile, u: Sequence) -> DescentChainReport:
    """Evaluate the telescoping chain that lower-bounds normalized valuations.

    Given nonnegative rationals u_1..u_r (exact: a float is rejected), the
    chain picks the largest index attaining min_j (d_j + u_j), then repeats
    on the remaining tail until it reaches r.  For a chain index k the chain
    value is

        (n + k*u_k + sum_{j<=k} (d_k - d_j) + sum_{j>k} u_j) / (d_k + u_k),

    and each value must dominate min(candidate_k, next chain value), with the
    final value dominating min(candidate_r, r).

    The arithmetic is in integers: every u_j is put over the common
    denominator of the entries, each chain value is kept as an integer
    numerator and denominator, and every comparison is a cross-multiplication.
    Only the returned ``chain_values`` are ``Fraction`` objects.
    """
    n = profile.n
    d = profile.degrees
    r = profile.r
    u = tuple(map(_as_fraction, u))
    if len(u) != r:
        raise ValueError(f"expected {r} entries, got {len(u)}")
    if any(x.numerator < 0 for x in u):
        raise ValueError("entries must be nonnegative")

    den = lcm(*(x.denominator for x in u))
    m = [dj * den + x.numerator * (den // x.denominator) for dj, x in zip(d, u)]
    chain, pairs, checks = _chain(profile, m, den * (n - profile.degree_sum))
    return DescentChainReport(
        u=u,
        chain=tuple(chain),
        chain_values=tuple(Fraction(numer, denom) for numer, denom in pairs),
        links_ok=tuple(checks[:-1]),
        terminal_ok=checks[-1],
        passed=all(checks),
    )


def _chain(profile: DegreeProfile, m: Sequence[int], base: int):
    """The chain of :func:`descent_chain`, its values and its checks, in integers.

    Over a common denominator D of the u_j, M_j = D*(d_j + u_j) is an integer
    and ``base`` is D*(n - d_1 - ... - d_r).  The chain is the indices k whose
    M_k lies below that of every later index (the repeated "largest index
    attaining the tail minimum"), and its value at k is N_k / M_k with the
    integer N_k = k*M_k + base + M_(k+1) + ... + M_r.  Returns the chain, the
    pairs (N_k, M_k) and one check per chain index, the last one terminal.
    Every choice and check is homogeneous in (N, M), so any common
    denominator D gives the same answer.
    """
    chain, pairs = [], []
    tail = 0  # M_(k+1) + ... + M_r
    for j in range(len(m) - 1, -1, -1):
        if not pairs or m[j] < pairs[-1][1]:
            chain.append(j + 1)
            pairs.append(((j + 1) * m[j] + base + tail, m[j]))
        tail += m[j]
    chain.reverse()
    pairs.reverse()

    # v >= min(x, y) exactly when v >= x or v >= y.  The last chain value is
    # held to min(candidate_r, r), so r stands in for the value after it.
    alphas = profile.table.values
    checks = [
        numer * alphas[k - 1].denominator >= alphas[k - 1].numerator * denom
        or numer * next_denom >= next_numer * denom
        for k, (numer, denom), (next_numer, next_denom) in zip(chain, pairs, pairs[1:] + [(len(m), 1)])
    ]
    return chain, pairs, checks


def _check_chain_grid(profile: DegreeProfile, step: Fraction, maximum: Fraction) -> None:
    """The check on the grid of :func:`descent_chain_grid`: a positive step, a
    nonnegative maximum, and its (maximum // step + 1)^r points within the budget."""
    if step <= 0 or maximum < 0:
        raise ValueError("chain grid parameters must be positive")
    _check_budget(1, maximum // step + 1, profile.r, "chain grid")


def descent_chain_grid(
    profile: DegreeProfile, step: Fraction, maximum: Fraction
) -> tuple[int, DescentChainReport | None]:
    """Run the chain of :func:`descent_chain` at every u in
    {0, step, 2*step, ...}^r up to ``maximum``, in lexicographic order.
    Returns the number of points checked and the first failing report (None
    when every chain passes).

    With the step s/D in lowest terms, every u_j is k_j*s/D, so the grid runs
    over the integers M_j = D*d_j + k_j*s, with D as the common denominator.
    Only the first failing point goes to :func:`descent_chain` for its report.
    """
    _check_chain_grid(profile, step, maximum)
    s, den = step.numerator, step.denominator
    ks = range(maximum // step + 1)
    columns = [[den * dj + k * s for k in ks] for dj in profile.degrees]
    base = den * (profile.n - profile.degree_sum)
    points = 0
    for m, k in zip(itertools.product(*columns), itertools.product(ks, repeat=profile.r)):
        points += 1
        if not all(_chain(profile, m, base)[2]):
            return points, descent_chain(profile, [kj * step for kj in k])
    return points, None

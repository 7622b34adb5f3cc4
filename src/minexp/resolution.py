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

The module also brute-force-verifies the valuation inequalities behind the
lower bound on integer grids, and checks the telescoping chain argument
used to prove them pointwise on rational grids.
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

    def to_json_dict(self) -> dict:
        def rat(x: Fraction) -> dict:
            return {"num": x.numerator, "den": x.denominator}

        return {
            "n": self.profile.n,
            "degrees": list(self.profile.degrees),
            "mode": self.mode,
            "levels": [list(level) for level in self.levels],
            "blowups": self.blowup_count,
            "ledger": [
                {"divisor": row.divisor, "a": row.a, "k": row.k, "ratio": rat(row.ratio)}
                for row in self.ledger.rows
            ],
            "lower_bound": rat(self.lower_bound),
            "witness": (
                None
                if self.witness is None
                else {"common": self.witness.common, "residual": list(self.witness.residual)}
            ),
            "trace": [
                {
                    "center": step.center if isinstance(step.center, str) else list(step.center),
                    "pivot": step.pivot,
                    "divisor": step.divisor,
                    "a": step.a,
                    "k": step.k,
                    "ideal": step.ideal,
                }
                for step in self.trace
            ],
            "case3": [
                {"level": c.level, "steps": list(c.steps), "principal": c.principal}
                for c in self.case3
            ],
            "vj_checks": [
                {"divisor": v.divisor, "pivot": v.pivot, "ideal": v.ideal, "generator": v.generator}
                for v in self.vj_checks
            ],
        }


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


def _start_chart(profile: DegreeProfile, q: int, extra: int | None = None) -> ChartState:
    """The chart on E1 after the origin blow-up: the exceptional coordinate
    z0 tagged (a = d_1, k = n - 1) and the strict transforms z1..zq of the
    q lowest-degree hypersurfaces, with generators z0^{d_j} z_j.  A side
    chart adds the pure power z0^extra of the next degree group.  The plain
    coordinates never carry an exponent and are left out."""
    degrees = profile.degrees
    coords = [Coordinate("z0", EXCEPTIONAL, degrees[0], profile.n - 1)]
    coords += [Coordinate(f"z{j}", STRICT) for j in range(1, q + 1)]
    gens = [(degrees[j - 1],) + tuple(int(i == j) for i in range(1, q + 1)) for j in range(1, q + 1)]
    if extra is not None:
        gens.append((extra,) + (0,) * q)
    return ChartState(tuple(coords), tuple(gens))


def _climb(state: ChartState, e: Sequence[int], cum: Sequence[int], top: int, vj_checks: list | None = None):
    """Run the scripted blow-ups of levels 1..top and yield (center, chart)
    after each, following the chart that keeps the exceptional coordinate.

    ``e`` holds the distinct degrees in increasing order and ``cum[l]`` the
    number of degrees at most ``e[l]``.  A blow-up of level l is centred on
    the exceptional coordinate and the strict transforms of the levels below
    l; there are e_l - e_{l-1} of them.  Every other chart must come out
    divisorial (principal with an exceptional-supported generator); with
    ``vj_checks`` given, each is recorded there under the name of the
    divisor just made, E2 onwards.
    """
    divisor = 1
    for level in range(1, top + 1):
        for _ in range(e[level] - e[level - 1]):
            exc = state.coords[0]
            if exc.role != EXCEPTIONAL:
                raise ResolutionError("chain chart lost its exceptional coordinate")
            center = tuple(c.name for c in state.coords[: cum[level - 1] + 1])
            divisor += 1
            follow = None
            orders = set()
            for chart in blowup_chart(state, center):
                orders.add(chart.coords[chart.born_pivot_index].a)
                if chart.born_pivot == exc.name:
                    follow = chart
                else:
                    gmin = _principal_exceptional_generator(chart)
                    if vj_checks is not None:
                        vj_checks.append(
                            VjCheck(
                                divisor=f"E{divisor}",
                                pivot=chart.born_pivot,
                                ideal=chart.render_ideal(),
                                generator=chart.render_monomial(gmin),
                            )
                        )
            if follow is None:
                raise ResolutionError("no chart kept the exceptional coordinate")
            if len(orders) != 1:
                raise ResolutionError(f"chart-dependent divisor multiplicity: {sorted(orders)}")
            state = follow
            yield center, state


def _run_case3(profile: DegreeProfile, e: Sequence[int], cum: Sequence[int], level: int) -> Case3Report:
    """Side chain at ``level``: only the strict transforms of degree level
    <= ``level`` pass through its start chart, and the next group
    contributes a pure power of the exceptional coordinate."""
    expected = e[level]
    state = _start_chart(profile, cum[level - 1], expected)
    steps = [state.render_ideal()]
    for _, state in _climb(state, e, cum, level):
        steps.append(state.render_ideal())
    gmin = _principal_exceptional_generator(state)
    if gmin[0] != expected or any(gmin[1:]):
        raise ResolutionError(
            f"side chain at level {level} ended in {state.render_monomial(gmin)}, "
            f"expected the exceptional coordinate to the power {expected}"
        )
    return Case3Report(level=level, steps=tuple(steps), principal=state.render_monomial(gmin))


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
    k = len(e)
    mode = LOG_RESOLUTION if profile.r == n else STRONG_FACTORIZING

    state = _start_chart(profile, profile.r)
    rows = [LedgerRow("E1", profile.degrees[0], n - 1)]
    trace = [TraceStep("origin", None, "E1", profile.degrees[0], n - 1, state.render_ideal())]
    vj_checks: list[VjCheck] = []
    for center, state in _climb(state, e, cum, k - 1, vj_checks):
        exc = state.coords[0]
        row = LedgerRow(f"E{len(rows) + 1}", exc.a, exc.k)
        rows.append(row)
        trace.append(TraceStep(center, center[0], row.divisor, row.a, row.k, state.render_ideal()))

    expected_a = list(range(e[0], e[-1] + 1))
    if [row.a for row in rows] != expected_a:
        raise ResolutionError(f"ledger multiplicities {[r.a for r in rows]} != {expected_a}")
    ks = [row.k for row in rows]
    if any(ks[i] >= ks[i + 1] for i in range(len(ks) - 1)):
        raise ResolutionError(f"discrepancies not strictly increasing: {ks}")
    blowup_count = 1 + e[-1] - e[0]
    if blowup_count != len(rows):
        raise ResolutionError("blow-up count does not match the ledger length")

    witness = _factorization_witness(state, profile) if mode == STRONG_FACTORIZING else None
    case3 = tuple(_run_case3(profile, e, cum, level) for level in range(1, k))

    ledger = DivisorLedger(tuple(rows))
    return ResolutionReport(
        profile=profile,
        mode=mode,
        levels=levels,
        ledger=ledger,
        lower_bound=ledger.lower_bound,
        blowup_count=blowup_count,
        witness=witness,
        trace=tuple(trace),
        case3=case3,
        vj_checks=tuple(vj_checks),
        terminal=state,
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


def _check_scan_bound(bound: int) -> None:
    """The check on the box size of :func:`verify_valuation_inequality`."""
    if bound < 1:
        raise ValueError("bound must be at least 1")


def verify_valuation_inequality(profile: DegreeProfile, bound: int) -> ValuationScanReport:
    """Exhaustively check the divisorial valuation inequality on an integer grid.

    For degree sum > n ("lct" branch) the inequality is

        n*b0 + b1 + ... + br  >=  exponent * min_j (b0*d_j + b_j)

    with the exponent factor equal to the minimal exponent, over
    1 <= b0 <= bound and 0 <= b_j <= bound.  For degree sum <= n the
    scripted resolution never blows up inside the last strict transform, so
    the same inequality is checked with b_r = 0 imposed and the last
    candidate value as the factor
    ("complementary" branch).  Returns the first violating tuple, if any.
    """
    _check_scan_bound(bound)
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

    # Over the common denominator D of the u_j, M_j = D*(d_j + u_j) is an
    # integer.  The chain is the indices k whose M_k lies below that of every
    # later index (the repeated "largest index attaining the tail minimum"),
    # and its value at k is N_k / M_k with the integer
    # N_k = k*M_k + D*(n - d_1 - ... - d_r) + M_(k+1) + ... + M_r.
    den = lcm(*(x.denominator for x in u))
    m = [dj * den + x.numerator * (den // x.denominator) for dj, x in zip(d, u)]
    base = den * (n - profile.degree_sum)
    chain, pairs = [], []
    tail = 0  # M_(k+1) + ... + M_r
    for j in range(r - 1, -1, -1):
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
        for k, (numer, denom), (next_numer, next_denom) in zip(chain, pairs, pairs[1:] + [(r, 1)])
    ]
    return DescentChainReport(
        u=u,
        chain=tuple(chain),
        chain_values=tuple(Fraction(numer, denom) for numer, denom in pairs),
        links_ok=tuple(checks[:-1]),
        terminal_ok=checks[-1],
        passed=all(checks),
    )


def _check_chain_grid(step: Fraction, maximum: Fraction) -> None:
    """The check on the grid of :func:`descent_chain_grid`."""
    if step <= 0 or maximum < 0:
        raise ValueError("chain grid parameters must be positive")


def descent_chain_grid(
    profile: DegreeProfile, step: Fraction, maximum: Fraction
) -> tuple[int, DescentChainReport | None]:
    """Run :func:`descent_chain` at every u in {0, step, 2*step, ...}^r up to
    ``maximum``, in lexicographic order.  Returns the number of points
    checked and the first failing report (None when every chain passes)."""
    _check_chain_grid(step, maximum)
    axis = [i * step for i in range(maximum // step + 1)]
    points = 0
    for u in itertools.product(axis, repeat=profile.r):
        points += 1
        report = descent_chain(profile, u)
        if not report.passed:
            return points, report
    return points, None

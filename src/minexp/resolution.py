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

The simulation runs on plain generator tuples.  Each blow-up of the main
chain is one :func:`_blowup` on the generators of the chart it follows,
which returns the new divisor's (a, k) and the generators of every pivot
chart; the chain keeps the coordinate names (made once per blow-up), roles
and (a, k) tags as lists.  Each generator of each chart is rendered once,
by :func:`_render`, and every text of a report is read from those
renderings: the trace, the vj checks, the side chains and the
factorization witness.  The checks stay those of the argument: every chart
off the main chain is principal, with an exceptional-supported generator
that divides the matching side-chain chart (:func:`_climb`); every side
chain ends in z0^{e_l} (:func:`_side_chain`); the ledger's a run through
the degree steps while its k rise strictly; and the terminal chart, read
from the chain's own lists, factors as an exceptional monomial times r
strict coordinates (:func:`_factorization_witness`).

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
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from minexp.exponent import DegreeProfile, _as_fraction, _common_denominator

EXCEPTIONAL = "exceptional"
STRICT = "strict"

STRONG_FACTORIZING = "strong_factorizing"
LOG_RESOLUTION = "log_resolution"

_LETTERS = ("z", "u", "v", "w", "s", "t", "q", "m")


def _letter(depth: int) -> str:
    return _LETTERS[depth] if depth < len(_LETTERS) else f"c{depth}_"


def _names(depth: int, width: int) -> list[str]:
    """The coordinate names of a chart at ``depth``: one letter per depth."""
    letter = _letter(depth)
    return [f"{letter}{i}" for i in range(width)]


class ResolutionError(RuntimeError):
    """An internal chart-calculus invariant failed (a bug, not bad input)."""


def _render(names: Sequence[str], gens: Iterable[Sequence[int]]) -> list[str]:
    """The one renderer: the text of each generator in ``gens`` over the
    coordinate ``names``.  Every text of a resolution report comes from it.
    Exponents are nonnegative, so a generator itself selects the
    coordinates of its support."""
    return [
        "*".join([name if e == 1 else f"{name}^{e}" for name, e in itertools.compress(zip(names, g), g)])
        or "1"
        for g in gens
    ]


def _ideal_text(texts: Sequence[str]) -> str:
    """An ideal's text from its rendered generators."""
    return "(" + (", ".join(texts) or "0") + ")"


def _blowup(ideal: Sequence[tuple[int, ...]], tags: Sequence[tuple[int, int] | None], width: int):
    """One blow-up of a monomial ideal along its first ``width`` coordinates.

    ``ideal`` holds the generators as exponent tuples and ``tags[i]`` the
    (a, k) tags of coordinate i, None when it is not exceptional.  Returns
    (a, k, charts): the tags of the new exceptional divisor,

        a = min over generators of their total exponent over the centre,
        k = (width - 1) + sum of k over the exceptional centre coordinates,

    and, for each pivot p < width, charts[p], the generators of the chart
    of pivot p: each generator with its pivot exponent replaced by its
    total over the centre, all other exponents unchanged.  The pivot
    coordinate becomes the new divisor; the remaining centre coordinates
    keep their roles (they cut the strict transforms of whatever they cut
    before).
    """
    totals = [sum(g[:width]) for g in ideal]
    k = width - 1 + sum([tag[1] for tag in tags[:width] if tag is not None])
    charts = [[g[:p] + (t,) + g[p + 1 :] for g, t in zip(ideal, totals)] for p in range(width)]
    return min(totals, default=0), k, charts


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

    @cached_property
    def ratio(self) -> Fraction:
        """(k + 1) / a, built once: the lower bound and the report read the same object."""
        return Fraction(self.k + 1, self.a)


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
    """The scripted resolution of a profile: one ledger row per exceptional
    divisor, and ``lower_bound`` the least of their ratios."""

    profile: DegreeProfile
    mode: str
    levels: tuple[tuple[int, int], ...]  # (degree value, multiplicity), values increasing
    ledger: tuple[LedgerRow, ...]
    lower_bound: Fraction
    blowup_count: int
    witness: FactorizationWitness | None
    trace: tuple[TraceStep, ...]
    case3: tuple[Case3Report, ...]
    vj_checks: tuple[VjCheck, ...]


def _componentwise_min(gens: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    return tuple(map(min, zip(*gens)))


def _principal_exceptional_generator(
    names: Sequence[str], roles: Sequence[str], ideal: list[tuple[int, ...]], texts: Sequence[str]
) -> int:
    """The index in ``ideal`` of its generator: the componentwise minimum
    must itself be a generator (the ideal is principal) and be supported on
    exceptional coordinates only.  ``texts`` holds the rendered generators."""
    if not ideal:
        raise ResolutionError(f"empty ideal in chart {tuple(names)}")
    gmin = _componentwise_min(ideal)
    try:
        star = ideal.index(gmin)
    except ValueError:
        raise ResolutionError(f"ideal {_ideal_text(texts)} is not principal") from None
    if any(role != EXCEPTIONAL for role in itertools.compress(roles, gmin)):
        raise ResolutionError(f"principal generator {texts[star]} is not exceptional-supported")
    return star


def _start_chart(profile: DegreeProfile):
    """The chart on E1 after the origin blow-up, as (roles, tags, generators):
    the exceptional coordinate z0 tagged (a = d_1, k = n - 1) and the strict
    transforms z1..zr, with generators z0^{d_j} z_j.  The plain coordinates
    never carry an exponent and are left out."""
    r = profile.r
    roles = [EXCEPTIONAL] + [STRICT] * r
    tags = [(profile.degrees[0], profile.n - 1)] + [None] * r
    ideal = [(d,) + (0,) * (j - 1) + (1,) + (0,) * (r - j) for j, d in enumerate(profile.degrees, 1)]
    return roles, tags, ideal


def _climb(
    roles: list[str], tags: list, ideal: list[tuple[int, ...]], e: Sequence[int], cum: Sequence[int],
    vj_checks: list,
):
    """Run the main chain's blow-ups from the chart (``roles``, ``tags``,
    ``ideal``) of :func:`_start_chart`, and yield after each the chart that
    keeps the exceptional coordinate z0, as (center, names, tags, ideal,
    texts): the names of the centre, then the chart's coordinate names, tags,
    generators and rendered generators.  Its roles stay ``roles``, since z0
    is exceptional from the start.

    ``e`` holds the distinct degrees in increasing order and ``cum[l]`` the
    number of degrees at most ``e[l]``.  A blow-up of level l is one
    :func:`_blowup` centred on z0 and z1..zq, q = cum[l-1]; there are
    e_l - e_{l-1} of them, and the coordinate names of each are made once
    for all its charts.  Every chart other than the z0 one, of pivot p,
    must be principal with a generator g* supported on its exceptional
    coordinates z0 and z_p; each is recorded in ``vj_checks`` under the name
    of the divisor just made, E2 onwards, with g*'s text read from the
    chart's rendered generators.

    The same chart of the side chain of a level m >= l (see
    :func:`_side_chain`) holds this chart's first cum[m-1] generators, cut
    to z0..z_{cum[m-1]}, and z0^{e_m} z_p^{e_m}.  If g* is among the first
    q generators and g*[0], g*[p] <= e_l, then g* divides all of them, so
    that chart is principal with generator g* too; as ``cum`` and ``e`` rise
    with the level, this one comparison covers every side chain.
    """
    names = _names(0, len(roles))
    blowup_levels = [level for level in range(1, len(e)) for _ in range(e[level] - e[level - 1])]
    for depth, level in enumerate(blowup_levels, 1):
        q = cum[level - 1]
        center = tuple(names[: q + 1])
        a, k, charts = _blowup(ideal, tags, q + 1)
        names = _names(depth, len(roles))
        for p in range(1, q + 1):
            chart = charts[p]
            texts = _render(names, chart)
            chart_roles = roles[:p] + [EXCEPTIONAL] + roles[p + 1 :]
            star = _principal_exceptional_generator(names, chart_roles, chart, texts)
            if star >= q or max(chart[star][0], chart[star][p]) > e[level]:
                raise ResolutionError(
                    f"level {level}: {texts[star]} does not divide the {center[p]} side chart"
                )
            vj_checks.append(VjCheck(f"E{depth + 1}", center[p], _ideal_text(texts), texts[star]))
        ideal = charts[0]
        tags = [(a, k)] + tags[1:]
        yield center, names, tags, ideal, _render(names, ideal)


def _side_chain(
    chain: Sequence[tuple], roles: Sequence[str], e: Sequence[int], cum: Sequence[int], level: int
) -> Case3Report:
    """The side chain at ``level``, read off ``chain``, the main chain's
    followed charts as (names, generators, rendered generators), of roles
    ``roles`` (``e`` and ``cum`` as in :func:`_climb`).

    It starts from z1..zq, the strict transforms of the lower levels
    (q = cum[level-1]), and z0^power (power = e_level), and runs the main
    chain's blow-ups of levels 1..``level``.  Every chart map is monomial
    and acts on each generator alone, and these centres use only z0..zq, so
    the main chain carries the first q generators along; the z0 chart keeps
    z0^power, its total over the centre.  So step t is main chart t cut to
    its first q+1 coordinates and first q generators, followed by z0^power.
    A main generator is supported on z0 and z_j, j <= q, so its cut keeps
    the main chart's text; a cut that differs from the full generator is
    rendered.  :func:`_climb` checks the other charts; the last chart must
    be generated by z0^power.
    """
    q, power = cum[level - 1], e[level]
    pure = (power,) + (0,) * q
    steps = []
    for names, ideal, texts in chain[: 1 + power - e[0]]:
        names = names[: q + 1]
        cut = [_render(names, [g])[0] if any(g[q + 1 :]) else text for g, text in zip(ideal[:q], texts)]
        cut += _render(names, [pure])
        steps.append(_ideal_text(cut))
    gens = [g[: q + 1] for g in ideal[:q]] + [pure]
    star = _principal_exceptional_generator(names, roles[: q + 1], gens, cut)
    if gens[star] != pure:
        raise ResolutionError(
            f"side chain at level {level} ended in {cut[star]}, "
            f"expected the exceptional coordinate to the power {power}"
        )
    return Case3Report(level=level, steps=tuple(steps), principal=cut[star])


def _factorization_witness(
    names: Sequence[str], roles: Sequence[str], ideal: Sequence[tuple[int, ...]], r: int
) -> FactorizationWitness:
    """The factorization of the terminal chart, of coordinate ``names`` and
    ``roles`` and generators ``ideal``: the common exceptional exponents, and
    a residual per generator that must be one strict coordinate to the first
    power, r distinct ones in all."""
    # divisorial part: the common exceptional exponents; everything else must
    # be accounted for by the residual shape checks below
    common = tuple(m if role == EXCEPTIONAL else 0 for m, role in zip(_componentwise_min(ideal), roles))
    residual = [tuple(map(operator.sub, g, common)) for g in ideal]
    seen = set()
    for res in residual:
        support = [i for i, exp in enumerate(res) if exp]
        if len(support) != 1 or res[support[0]] != 1:
            raise ResolutionError(f"residual generator {res} is not a single coordinate")
        i = support[0]
        if roles[i] != STRICT:
            raise ResolutionError(f"residual coordinate {names[i]} is not strict")
        seen.add(i)
    if len(seen) != r:
        raise ResolutionError("residual generators do not span r distinct coordinates")
    common_text, *residual_texts = _render(names, [common, *residual])
    return FactorizationWitness(common=common_text, residual=tuple(residual_texts))


# The most chart entries one resolution may build, and what one chart counts
# for beyond its entries (its own upkeep: its names, its generator list, its text).
# A profile over the budget is rejected before any chart is built.
RESOLVE_BUDGET = 10**8
_CHART_UPKEEP = 400


def _levels(profile: DegreeProfile):
    """The (degree, multiplicity) runs of the degrees, the distinct degrees
    ``e`` in increasing order, and ``cum[l]``, the number of degrees at most
    ``e[l]``."""
    levels = tuple((d, len(list(run))) for d, run in itertools.groupby(profile.degrees))
    e = [d for d, _ in levels]
    return levels, e, list(itertools.accumulate(count for _, count in levels))


def _check_resolution_budget(profile: DegreeProfile) -> None:
    """Reject a profile whose resolution builds more than RESOLVE_BUDGET
    chart entries, each chart counted with _CHART_UPKEEP more.

    The main chain holds the first chart and, per blow-up of level l, one
    chart per centre coordinate (cum[l-1] + 1 of them), each r + 1
    coordinates by r generators; the side chain of level l has
    1 + e_l - e_0 steps of cum[l-1] + 1 coordinates by as many generators.
    The count takes O(r) steps, whatever the degrees."""
    _, e, cum = _levels(profile)
    r = profile.r
    main = 1 + sum((e[l] - e[l - 1]) * (cum[l - 1] + 1) for l in range(1, len(e)))
    side = [(1 + e[l] - e[0], cum[l - 1] + 1) for l in range(1, len(e))]
    work = main * (r * (r + 1) + _CHART_UPKEEP) + sum(steps * (width**2 + _CHART_UPKEEP) for steps, width in side)
    if work > RESOLVE_BUDGET:
        raise ValueError(f"resolution exceeds the work budget of {RESOLVE_BUDGET} chart entries")


def simulate_resolution(profile: DegreeProfile) -> ResolutionReport:
    """Drive the scripted blow-up sequence and collect the divisor ledger.

    For codimension r < n this is a strong factorizing resolution and the
    terminal chart must factor as (exceptional monomial) * (r coordinates);
    for r = n the same bookkeeping runs in log-resolution mode and no
    factorization witness is asserted.  A profile over the work budget
    (:func:`_check_resolution_budget`) raises ``ValueError`` before any
    chart is built.

    The main chain runs on generator tuples (:func:`_start_chart`, then
    :func:`_climb`, one :func:`_blowup` per blow-up), and each of its
    charts is kept as (names, generators, rendered generators), from which
    :func:`_side_chain` reads every side chain.  The factorization witness
    reads the last chart's names, roles and generators from the same lists.
    """
    _check_resolution_budget(profile)
    n = profile.n
    levels, e, cum = _levels(profile)
    mode = LOG_RESOLUTION if profile.r == n else STRONG_FACTORIZING

    roles, tags, ideal = _start_chart(profile)
    names = _names(0, len(roles))
    texts = _render(names, ideal)
    chain = [(names, ideal, texts)]
    rows = [LedgerRow("E1", *tags[0])]
    trace = [TraceStep("origin", None, "E1", rows[0].a, rows[0].k, _ideal_text(texts))]
    vj_checks: list[VjCheck] = []
    for center, names, tags, ideal, texts in _climb(roles, tags, ideal, e, cum, vj_checks):
        chain.append((names, ideal, texts))
        row = LedgerRow(f"E{len(rows) + 1}", *tags[0])
        rows.append(row)
        trace.append(TraceStep(center, center[0], row.divisor, row.a, row.k, _ideal_text(texts)))

    # one divisor, and so one blow-up, per degree step: this also checks blowup_count
    expected_a = list(range(e[0], e[-1] + 1))
    if [row.a for row in rows] != expected_a:
        raise ResolutionError(f"ledger multiplicities {[r.a for r in rows]} != {expected_a}")
    ks = [row.k for row in rows]
    if any(ks[i] >= ks[i + 1] for i in range(len(ks) - 1)):
        raise ResolutionError(f"discrepancies not strictly increasing: {ks}")

    witness = _factorization_witness(names, roles, ideal, profile.r) if mode == STRONG_FACTORIZING else None
    case3 = tuple(_side_chain(chain, roles, e, cum, level) for level in range(1, len(e)))

    return ResolutionReport(
        profile=profile,
        mode=mode,
        levels=levels,
        ledger=tuple(rows),
        lower_bound=min([row.ratio for row in rows]),
        blowup_count=len(rows),
        witness=witness,
        trace=tuple(trace),
        case3=case3,
        vj_checks=tuple(vj_checks),
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

    nums, den = _common_denominator(u)
    m = [dj * den + x for dj, x in zip(d, nums)]
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

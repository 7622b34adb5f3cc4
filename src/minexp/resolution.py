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

The simulation runs on plain generator tuples.  In every chart the main
chain follows, z0 is the newest exceptional divisor and z1..zr are strict,
so its state is z0's discrepancy k and the generators.  Each blow-up is
one :func:`_blowup`, which returns the new divisor's (a, k) and the
generators of every pivot chart.  Each generator of each chart is rendered
once, by :func:`_render`, and every text of a report is read from those
renderings: the ledger, the vj checks, the side chains and the
factorization witness.  Each exceptional divisor has one record, its
:class:`LedgerRow`: the blow-up that made it, its (a, k) and the ideal of
the chart the main chain follows.  The checks stay those of the argument:
every chart off the main chain is principal, generated on z0 and its
pivot, and that generator divides the matching side-chain chart
(:func:`_climb`); every side chain ends in z0^{e_l} (:func:`_side_chain`);
the ledger's (a, k) rows equal their closed form (:func:`ledger_rows`);
and the terminal chart factors as a power of z0 times r distinct strict
coordinates (:func:`_factorization_witness`).

The module also decides the two lemmas behind the lower bound, each on the
whole cone and in O(r), by a certificate that re-checks itself in integers:
the valuation inequality by Farkas weights from a fractional knapsack
(:func:`valuation_certificate`), and the telescoping descent chain by the
sign of n - d_1 - ... - d_k at each index (:func:`chain_certificate`).
``verify`` still sizes its integer box and rational grid from the request,
but neither certificate reads them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from minexp.exponent import DegreeProfile, _common_denominator

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


def _blowup(ideal: Sequence[tuple[int, ...]], k: int, width: int):
    """One blow-up of a main-chain chart along its first ``width``
    coordinates, z0 and the strict coordinates z1..z(width-1).

    ``ideal`` holds the generators as exponent tuples and ``k`` is the
    discrepancy of z0, the one exceptional coordinate of the centre.
    Returns (a, k, charts): the tags of the new exceptional divisor,

        a = min over generators of their total exponent over the centre,
        k = (width - 1) + the discrepancy of z0,

    and, for each pivot p < width, charts[p], the generators of the chart
    of pivot p: each generator with its pivot exponent replaced by its
    total over the centre, all other exponents unchanged.  The pivot
    coordinate becomes the new divisor; the remaining centre coordinates
    keep their roles (they cut the strict transforms of whatever they cut
    before).
    """
    totals = [sum(g[:width]) for g in ideal]
    charts = [[g[:p] + (t,) + g[p + 1 :] for g, t in zip(ideal, totals)] for p in range(width)]
    return min(totals, default=0), width - 1 + k, charts


class _LedgerRow(NamedTuple):
    center: tuple[str, ...] | str
    divisor: str
    a: int
    k: int
    ideal: str


class LedgerRow(_LedgerRow):
    """One exceptional divisor, the one record of its blow-up: the centre
    (``"origin"`` for E1), the divisor's name, its ideal multiplicity a and
    discrepancy k, and the text of the ideal in the chart the main chain
    follows."""

    # no __slots__ = (): the cached ratio lives in the instance __dict__

    @property
    def pivot(self) -> str | None:
        """The pivot of the chart the main chain follows: the centre's first
        coordinate, z0 of the chart before (None for E1)."""
        return None if self.center == "origin" else self.center[0]

    @cached_property
    def ratio(self) -> Fraction:
        """(k + 1) / a, built once: the lower bound and the report read the same object."""
        return Fraction(self.k + 1, self.a)


class VjCheck(NamedTuple):
    """Depth-one expansion of a non-pivot chart: the transformed ideal must
    be principal with an exceptional-supported generator."""

    divisor: str
    pivot: str
    ideal: str
    generator: str


class Case3Report(NamedTuple):
    """A side chart where only the first q strict transforms survive; its
    chain must terminate in a purely exceptional principal ideal."""

    level: int
    steps: tuple[str, ...]
    principal: str


class FactorizationWitness(NamedTuple):
    """Terminal-chart factorization: a monomial supported on exceptional
    coordinates times the ideal of r distinct strict-transform coordinates."""

    common: str
    residual: tuple[str, ...]


class ResolutionReport(NamedTuple):
    """The scripted resolution of a profile: one ledger row per exceptional
    divisor, and ``lower_bound`` the least of their ratios."""

    mode: str
    levels: tuple[tuple[int, int], ...]  # (degree value, multiplicity), values increasing
    ledger: tuple[LedgerRow, ...]
    lower_bound: Fraction
    witness: FactorizationWitness | None
    case3: tuple[Case3Report, ...]
    vj_checks: tuple[VjCheck, ...]


def _componentwise_min(gens: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    return tuple(map(min, zip(*gens)))


def _principal_exceptional_generator(
    names: Sequence[str], pivot: int, ideal: list[tuple[int, ...]], texts: Sequence[str]
) -> int:
    """The index in ``ideal`` of its generator: the componentwise minimum
    must itself be a generator (the ideal is principal) and be supported on
    the chart's exceptional coordinates z0 and z_``pivot``.  ``texts`` holds
    the rendered generators."""
    if not ideal:
        raise ResolutionError(f"empty ideal in chart {tuple(names)}")
    gmin = _componentwise_min(ideal)
    try:
        star = ideal.index(gmin)
    except ValueError:
        raise ResolutionError(f"ideal {_ideal_text(texts)} is not principal") from None
    if any(gmin[1:pivot]) or any(gmin[pivot + 1 :]):
        raise ResolutionError(f"principal generator {texts[star]} is not exceptional-supported")
    return star


def _start_chart(profile: DegreeProfile):
    """The chart on E1 after the origin blow-up, as (k, generators): the
    discrepancy k = n - 1 of the exceptional coordinate z0, and the
    generators z0^{d_j} z_j over z0 and the strict transforms z1..zr.  The
    plain coordinates never carry an exponent and are left out."""
    r = profile.r
    ideal = [(d,) + (0,) * (j - 1) + (1,) + (0,) * (r - j) for j, d in enumerate(profile.degrees, 1)]
    return profile.n - 1, ideal


def _climb(k: int, ideal: list[tuple[int, ...]], schedule: Sequence[tuple[int, int, int]], vj_checks: list):
    """Run the main chain's blow-ups from the chart (``k``, ``ideal``) of
    :func:`_start_chart`, and yield after each the new divisor's
    :class:`LedgerRow` and the chart that keeps the exceptional coordinate
    z0, as (row, names, ideal, texts): the chart's coordinate names,
    generators and rendered generators.  Each divisor after E1 is named
    here, once for its row and its vj checks.

    ``schedule`` is the blow-up schedule of :func:`_levels`.  A blow-up of
    level l is one :func:`_blowup` centred on z0 and z1..zq, and the
    coordinate names of each are made once for all its charts.  Every chart
    other than the z0 one, of pivot p, must be principal with a generator g*
    supported on its exceptional coordinates z0 and z_p; each is recorded in
    ``vj_checks`` under the name of the divisor just made, with g*'s text
    read from the chart's rendered generators.

    The same chart of the side chain of a level m >= l (see
    :func:`_side_chain`) holds this chart's first cum[m-1] generators, cut
    to z0..z_{cum[m-1]}, and z0^{e_m} z_p^{e_m}.  If g* is among the first
    q generators and g*[0], g*[p] <= e_l, then g* divides all of them, so
    that chart is principal with generator g* too; as ``cum`` and ``e`` rise
    with the level, this one comparison covers every side chain.
    """
    width = len(ideal[0])
    names = _names(0, width)
    blowups = ((level, q, power) for level, (q, power, count) in enumerate(schedule, 1) for _ in range(count))
    for depth, (level, q, power) in enumerate(blowups, 1):
        center, divisor = tuple(names[: q + 1]), f"E{depth + 1}"
        a, k, charts = _blowup(ideal, k, q + 1)
        names = _names(depth, width)
        for p in range(1, q + 1):
            chart = charts[p]
            texts = _render(names, chart)
            star = _principal_exceptional_generator(names, p, chart, texts)
            if star >= q or max(chart[star][0], chart[star][p]) > power:
                raise ResolutionError(
                    f"level {level}: {texts[star]} does not divide the {center[p]} side chart"
                )
            vj_checks.append(VjCheck(divisor, center[p], _ideal_text(texts), texts[star]))
        ideal = charts[0]
        texts = _render(names, ideal)
        yield LedgerRow(center, divisor, a, k, _ideal_text(texts)), names, ideal, texts


def _side_chain(chain: Sequence[tuple], level: int, q: int, power: int) -> Case3Report:
    """The side chain at ``level``, read off ``chain``, the main chain's
    followed charts through that level as (names, generators, rendered
    generators); ``q`` and ``power`` are the level's in :func:`_levels`.

    It starts from z1..zq, the strict transforms of the lower levels, and
    z0^power, and runs the main chain's blow-ups of levels 1..``level``.
    Every chart map is monomial and acts on each generator alone, and these
    centres use only z0..zq, so the main chain carries the first q
    generators along; the z0 chart keeps z0^power, its total over the
    centre.  So step t is main chart t cut to its first q+1 coordinates and
    first q generators, followed by z0^power.  A main generator is supported
    on z0 and z_j, j <= q, so its cut keeps the main chart's text; a cut
    that differs from the full generator is rendered.  :func:`_climb` checks
    the other charts; the last chart, whose one exceptional coordinate is
    z0, must be generated by z0^power.
    """
    pure = (power,) + (0,) * q
    steps = []
    for names, ideal, texts in chain:
        names = names[: q + 1]
        cut = [_render(names, [g])[0] if any(g[q + 1 :]) else text for g, text in zip(ideal[:q], texts)]
        cut += _render(names, [pure])
        steps.append(_ideal_text(cut))
    gens = [g[: q + 1] for g in ideal[:q]] + [pure]
    star = _principal_exceptional_generator(names, 0, gens, cut)
    if gens[star] != pure:
        raise ResolutionError(
            f"side chain at level {level} ended in {cut[star]}, "
            f"expected the exceptional coordinate to the power {power}"
        )
    return Case3Report(level=level, steps=tuple(steps), principal=cut[star])


def _factorization_witness(
    names: Sequence[str], ideal: Sequence[tuple[int, ...]], r: int
) -> FactorizationWitness:
    """The factorization of the terminal chart, of coordinate ``names`` and
    generators ``ideal``: the common part, the least exponent of z0 (its one
    exceptional coordinate), and a residual per generator that must be one
    strict coordinate z1..zr to the first power, r distinct ones in all."""
    # divisorial part: the common power of z0; everything else must be
    # accounted for by the residual shape checks below
    low = min([g[0] for g in ideal], default=0)
    common = (low,) + (0,) * (len(names) - 1)
    residual = [(g[0] - low, *g[1:]) for g in ideal]
    seen = set()
    for res in residual:
        support = [i for i, exp in enumerate(res) if exp]
        if len(support) != 1 or res[support[0]] != 1:
            raise ResolutionError(f"residual generator {res} is not a single coordinate")
        i = support[0]
        if i == 0:
            raise ResolutionError(f"residual coordinate {names[0]} is not strict")
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
    """The (degree, multiplicity) runs of the degrees, and the blow-up
    schedule after the origin blow-up.  With the distinct degrees
    e_0 < e_1 < ..., level l >= 1 has e_l - e_{l-1} blow-ups, each centred on
    z0..zq, q = cum[l-1] the number of degrees below e_l.  The schedule holds
    one (q, e_l, e_l - e_{l-1}) per level, so it is built in O(r) steps,
    whatever the degrees."""
    levels = tuple((d, len(list(run))) for d, run in itertools.groupby(profile.degrees))
    cum = itertools.accumulate(count for _, count in levels)
    return levels, [(q, d, d - low) for q, (d, _), (low, _) in zip(cum, levels[1:], levels)]


def ledger_rows(profile: DegreeProfile) -> list[tuple[int, int]]:
    """The (a, k) of every ledger row in closed form, in O(d_r - d_1) steps:
    a runs through d_1, d_1 + 1, ..., d_r, k starts at n - 1, and each
    blow-up adds its q (see :func:`_levels`), the ``width - 1`` of its
    :func:`_blowup`."""
    steps = (q for q, _, count in _levels(profile)[1] for _ in range(count))
    a = range(profile.degrees[0], profile.degrees[-1] + 1)
    return list(zip(a, itertools.accumulate(steps, initial=profile.n - 1)))


def _check_resolution_budget(profile: DegreeProfile) -> None:
    """Reject a profile whose resolution builds more than RESOLVE_BUDGET
    chart entries, each chart counted with _CHART_UPKEEP more.

    The main chain holds the first chart and, per blow-up, one chart per
    centre coordinate (q + 1 of them, see :func:`_levels`), each r + 1
    coordinates by r generators; the side chain of level l has
    1 + e_l - e_0 steps of q + 1 coordinates by as many generators.  The
    count takes O(r) steps, whatever the degrees."""
    schedule = _levels(profile)[1]
    r, low = profile.r, profile.degrees[0]
    main = 1 + sum(count * (q + 1) for q, _, count in schedule)
    side = sum((1 + power - low) * ((q + 1) ** 2 + _CHART_UPKEEP) for q, power, _ in schedule)
    work = main * (r * (r + 1) + _CHART_UPKEEP) + side
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
    :func:`_side_chain` reads every side chain.  Each ledger row after the
    first is the one that :func:`_climb` yields, and the factorization
    witness reads the last chart's names and generators.
    """
    _check_resolution_budget(profile)
    n = profile.n
    levels, schedule = _levels(profile)
    mode = LOG_RESOLUTION if profile.r == n else STRONG_FACTORIZING

    k, ideal = _start_chart(profile)
    names = _names(0, len(ideal[0]))
    texts = _render(names, ideal)
    chain = [(names, ideal, texts)]
    rows = [LedgerRow("origin", "E1", profile.degrees[0], k, _ideal_text(texts))]
    vj_checks: list[VjCheck] = []
    for row, names, ideal, texts in _climb(k, ideal, schedule, vj_checks):
        rows.append(row)
        chain.append((names, ideal, texts))

    # one divisor, and so one blow-up, per degree step.  Checked before any
    # ratio is read, so that a = 0 is a chain fault and not a ZeroDivisionError.
    got, expected = [(row.a, row.k) for row in rows], ledger_rows(profile)
    if got != expected:
        raise ResolutionError(f"ledger rows {got} != closed form {expected}")

    witness = _factorization_witness(names, ideal, profile.r) if mode == STRONG_FACTORIZING else None
    low = profile.degrees[0]  # the side chain of level l runs through chart e_l - e_0 of the main chain
    case3 = tuple(_side_chain(chain[: 1 + e - low], level, q, e) for level, (q, e, _) in enumerate(schedule, 1))

    return ResolutionReport(
        mode=mode,
        levels=levels,
        ledger=tuple(rows),
        lower_bound=min([row.ratio for row in rows]),
        witness=witness,
        case3=case3,
        vj_checks=tuple(vj_checks),
    )


# ---------------------------------------------------------------------------
# the two lemmas behind the lower bound, decided by certificates

LCT_BRANCH = "lct"
COMPLEMENTARY_BRANCH = "complementary"

# The most points verify's valuation box or chain grid may hold; a larger one
# is rejected.  The two only size the report: no certificate reads them.
SCAN_BUDGET = 10**6


def _check_budget(count: int, axis: int, dims: int, what: str) -> int:
    """The count * axis**dims points of a grid, rejected above SCAN_BUDGET.  An
    axis longer than the budget is cut to one over it, so that a huge request
    never costs a huge power."""
    if count * min(axis, SCAN_BUDGET + 1) ** dims > SCAN_BUDGET:
        raise ValueError(f"{what} exceeds the work budget of {SCAN_BUDGET} points")
    return count * axis**dims


def _check_scan_bound(profile: DegreeProfile, bound: int) -> int:
    """The size of verify's valuation box, bound * (bound + 1)^free tuples
    (1 <= b0 <= bound, 0 <= b_j <= bound), after the checks bound >= 1 and
    the budget.  b_r is pinned to 0 in the complementary branch."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    free = profile.r if profile.degree_sum > profile.n else profile.r - 1
    return _check_budget(bound, bound + 1, free, "valuation grid")


def _check_chain_grid(profile: DegreeProfile, step: Fraction, maximum: Fraction) -> int:
    """The size of verify's chain grid, (maximum // step + 1)^r points of
    u in {0, step, 2*step, ...}^r, after the checks step > 0, maximum >= 0
    and the budget."""
    if step <= 0 or maximum < 0:
        raise ValueError("chain grid parameters must be positive")
    return _check_budget(1, maximum // step + 1, profile.r, "chain grid")


class ValuationCertificate(NamedTuple):
    """A Farkas certificate of the valuation inequality on the whole cone.

    For degree sum > n ("lct" branch) the inequality is

        n*b0 + b1 + ... + br  >=  exponent * min_j (b0*d_j + b_j)

    for every b0 > 0 and b_j >= 0, with the minimal exponent as the factor.
    For degree sum <= n ("complementary" branch) the scripted resolution
    never blows up inside the last strict transform: b_r is pinned to 0 and
    the factor is the last candidate.  Weights lambda_j >= 0 with

        sum_j lambda_j = 1,  exponent*lambda_j <= 1 for every free b_j,
        exponent * sum_j lambda_j*d_j <= n

    prove it: min_j (b0*d_j + b_j) <= sum_j lambda_j*(b0*d_j + b_j), and the
    factor times that is at most n*b0 + the sum of the free b_j.  By Farkas'
    lemma such weights exist exactly when the inequality holds on the whole
    cone.  :meth:`verify` re-checks them in integer arithmetic.
    """

    n: int
    degrees: tuple[int, ...]
    branch: str
    exponent: Fraction
    weights: tuple[Fraction, ...]

    def verify(self) -> bool:
        # lams[j] / den are the weights, and a / b is the factor
        a, b = self.exponent.numerator, self.exponent.denominator
        lams, den = _common_denominator(self.weights)
        free = lams if self.branch == LCT_BRANCH else lams[:-1]
        return (
            len(lams) == len(self.degrees)
            and a >= 0
            and all(lam >= 0 for lam in lams)
            and sum(lams) == den
            and all(a * lam <= b * den for lam in free)
            and a * sum([lam * d for lam, d in zip(lams, self.degrees)]) <= b * self.n * den
        )


def valuation_certificate(profile: DegreeProfile) -> ValuationCertificate:
    """The weights of :class:`ValuationCertificate` by a fractional knapsack.

    The least sum_j lambda_j*d_j comes from filling the smallest degrees
    first, each weight capped at 1/exponent: every weight in the lct branch,
    and every one but lambda_r in the complementary branch, where b_r is
    pinned and lambda_r takes what is left.  So the certificate verifies
    exactly when any does.  O(r); in the lct branch a factor above r leaves
    the weights short of 1, and the certificate fails.
    """
    lct = profile.degree_sum > profile.n
    table = profile.table
    exponent = table.minimum if lct else table.values[-1]
    cap, left = 1 / exponent, Fraction(1)
    weights = []
    for j in range(profile.r):
        weight = left if not lct and j == profile.r - 1 else min(cap, left)
        weights.append(weight)
        left -= weight
    branch = LCT_BRANCH if lct else COMPLEMENTARY_BRANCH
    return ValuationCertificate(profile.n, profile.degrees, branch, exponent, tuple(weights))


class ChainCertificate(NamedTuple):
    """The descent chain lemma for every u >= 0, by the signs of n - P_k.

    Write M_j = d_j + u_j, P_k = d_1 + ... + d_k and B = n - P_r.  The chain
    picks the largest index attaining min_j M_j, then repeats on the indices
    after it until it reaches r; its value at a chain index k is

        v_k = k + (B + sum_{j>k} M_j) / M_k,

    and each link must give v_k >= min(alpha_k, v_k') for the next chain
    index k', the terminal value v_r >= min(alpha_r, r).  Let k' follow k,
    so M_k < M_k' <= M_j for k < j <= k', and put
    X = B + sum_{j>k'} M_j + (k' - k)*M_k'.  Since M_k' >= d_j for j <= k',
    X >= n - P_k, and v_k' = k + X/M_k'.  Each link then holds by the sign of
    n - P_k:

    * if n >= P_k, then X >= 0 and B + sum_{j>k} M_j >= X, so
      v_k >= k + X/M_k >= k + X/M_k' = v_k';
    * if n < P_k, then v_k = k + (n - P_k + sum_{j>k} u_j)/(d_k + u_k) is
      least at u = 0, so v_k >= alpha_k exactly when
      alpha_k <= k + (n - P_k)/d_k.

    The terminal check holds likewise: v_r = r + B/(d_r + u_r) >= r when
    B >= 0, and v_r >= alpha_r when B < 0 and alpha_r <= r + B/d_r.  The
    candidates alpha_k = k + (n - P_k)/d_k meet both bounds with equality,
    so the lemma cannot fail on a degree profile.

    ``signs`` holds the sign of n - P_k for k = 1..r, the last one the
    terminal sign of B.  :meth:`verify` re-derives each sign and, wherever
    it is negative, checks alpha_k*d_k <= k*d_k + n - P_k in integers.
    """

    n: int
    degrees: tuple[int, ...]
    candidates: tuple[Fraction, ...]
    signs: tuple[int, ...]

    def verify(self) -> bool:
        if not len(self.signs) == len(self.candidates) == len(self.degrees):
            return False
        prefix = 0
        for k, (d, alpha, sign) in enumerate(zip(self.degrees, self.candidates, self.signs), 1):
            prefix += d
            gap = self.n - prefix
            if sign != (gap > 0) - (gap < 0):
                return False
            if gap < 0 and alpha.numerator * d > alpha.denominator * (k * d + gap):
                return False
        return True


def chain_certificate(profile: DegreeProfile) -> ChainCertificate:
    """The signs of :class:`ChainCertificate` for the profile's candidates, in O(r)."""
    gaps = [profile.n - prefix for prefix in itertools.accumulate(profile.degrees)]
    signs = tuple((gap > 0) - (gap < 0) for gap in gaps)
    return ChainCertificate(profile.n, profile.degrees, profile.table.values, signs)

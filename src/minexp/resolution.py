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
one :func:`_blowup`, which returns the new divisor's (a, k) and each
generator's total over the centre.  These determine every pivot chart
(:func:`_pivot_chart`), but the chain builds only the one it follows; of a
chart off it, only the generator of its :class:`VjCheck`, rendered by
``minexp.poly._render`` (the writer of the grammar ``minexp.poly.parse_poly``
reads).  A followed chart is rendered only in the message of a failed check.
Each exceptional divisor has one record, its :class:`LedgerRow`: the blow-up
that made it, its (a, k) and its ratio (k + 1)/a.  The ratios are built only
after the (a, k) rows equal their closed form, so a = 0 is a chain fault,
never a division by zero.  Each check is a comparison with a
closed form: the ledger's (a, k) rows equal theirs (:func:`ledger_rows`);
after the blow-up that makes the divisor of multiplicity a, the followed
chart is (z0^{max(d_j, a)} z_j)_j, and a level's last blow-up makes a equal
to the level's degree; and every chart off the main chain, of pivot p, is
generated by z_p's own strict transform, which equals z0^{a-1} z_p^a and
divides the matching side-chain chart (:func:`simulate_resolution`).  From
these follow, with the proofs in :func:`simulate_resolution`, that the side
chain of level l ends in z0^{e_l} and that the terminal chart factors as
z0^{d_r} (z1, ..., zr), so both are read off the closed forms.

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
from typing import NamedTuple, Sequence

from minexp.exponent import DegreeProfile, _common_denominator
from minexp.poly import _render

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


def _ideal_text(texts: Sequence[str]) -> str:
    """An ideal's text from its rendered generators."""
    return "(" + (", ".join(texts) or "0") + ")"


def _blowup(ideal: Sequence[tuple[int, ...]], k: int, width: int):
    """One blow-up of a main-chain chart along its first ``width``
    coordinates, z0 and the strict coordinates z1..z(width-1).

    ``ideal`` holds the generators as exponent tuples and ``k`` is the
    discrepancy of z0, the one exceptional coordinate of the centre.
    Returns (a, k, totals): the tags of the new exceptional divisor,

        a = min over generators of their total exponent over the centre,
        k = (width - 1) + the discrepancy of z0,

    and totals[i], generator i's total over the centre, which with ``ideal``
    determines the chart of each pivot p < width (:func:`_pivot_chart`)."""
    totals = [sum(g[:width]) for g in ideal]
    return min(totals, default=0), width - 1 + k, totals


def _pivot_chart(ideal: Sequence[tuple[int, ...]], totals: Sequence[int], p: int) -> list[tuple[int, ...]]:
    """The chart of pivot ``p`` of the :func:`_blowup` of ``ideal``: each
    generator with exponent p replaced by its total; the pivot is the new divisor."""
    return [g[:p] + (t,) + g[p + 1 :] for g, t in zip(ideal, totals)]


class LedgerRow(NamedTuple):
    """One exceptional divisor, the one record of its blow-up: the centre
    (``"origin"`` for E1), the divisor's name, its ideal multiplicity a and
    discrepancy k, and its ratio (k + 1) / a."""

    center: tuple[str, ...] | str
    divisor: str
    a: int
    k: int
    ratio: Fraction


class VjCheck(NamedTuple):
    """The chart of ``pivot`` in the blow-up that made ``divisor`` is principal,
    generated by ``generator``, the pivot's strict transform on z0 and the pivot."""

    divisor: str
    pivot: str
    generator: str


class Case3Report(NamedTuple):
    """A side chart where only the first q strict transforms survive; its
    chain must terminate in a purely exceptional principal ideal, the text
    ``principal``."""

    level: int
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


def _start_chart(profile: DegreeProfile):
    """The chart on E1 after the origin blow-up, as (k, generators): the
    discrepancy k = n - 1 of the exceptional coordinate z0, and the
    generators z0^{d_j} z_j over z0 and the strict transforms z1..zr.  The
    plain coordinates never carry an exponent and are left out."""
    r = profile.r
    ideal = [(d,) + (0,) * (j - 1) + (1,) + (0,) * (r - j) for j, d in enumerate(profile.degrees, 1)]
    return profile.n - 1, ideal


# The most chart entries one resolution may determine (each blow-up determines
# q + 1 charts and builds one), and what one chart counts for beyond its entries
# (its upkeep: names, generator list, checks).  Checked before any chart is built.
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
    """Reject a profile whose resolution determines more than RESOLVE_BUDGET
    chart entries, each chart counted with _CHART_UPKEEP more.

    The main chain holds the first chart and, per blow-up, determines one
    chart per centre coordinate (q + 1 of them, see :func:`_levels`), each
    r + 1 coordinates by r generators, though it builds only the one it
    follows.  The count takes O(r) steps, whatever the degrees."""
    r = profile.r
    main = 1 + sum(count * (q + 1) for q, _, count in _levels(profile)[1])
    work = main * (r * (r + 1) + _CHART_UPKEEP)
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

    The main chain runs on generator tuples from :func:`_start_chart`, one
    :func:`_blowup` per blow-up (see :func:`_levels`), and follows the z0
    chart, ``_pivot_chart(ideal, totals, 0)``.  Each blow-up is compared
    with closed forms in a, the closed-form multiplicity of its divisor,
    read from the one :func:`ledger_rows` list the ledger comparison reads:
    the followed chart is (z0^{max(d_j, a)} z_j)_j, d_j and z_j generator
    j's z0 exponent and strict part in the start chart; at a level's last
    blow-up a is the level's degree e_l, its schedule's power; and of each
    chart of pivot p >= 1 the chain builds only generator p - 1, z_p's own
    strict transform g, for a :class:`VjCheck`, and g is z0^{a-1} z_p^a.
    The first mismatch, the one place a followed chart is rendered, is raised
    after the ledger comparison, so a chain fault the ledger sees reports as
    a ledger fault.  (The chart's closed form holds by induction: of
    z0^{max(d_j, a-1)} z_j the total over the centre z0..zq is a for j <= q,
    where d_j < a, and d_j for j > q.)

    Once these hold, the side chain of level l ends in z0^{e_l}.  It starts
    from z1..zq, the strict transforms of the lower levels (q = cum[l-1]),
    and z0^{e_l}, and runs the blow-ups of levels 1..l.  Every chart map is
    monomial and acts on each generator alone, and these centres use only
    z0..zq, so step t is main chart t cut to its first q + 1 coordinates and
    first q generators, followed by z0^{e_l}, its own total.  After the
    level's last blow-up a = e_l > d_j for j <= q, so cut generator j is
    z0^{e_l} z_j, and z0^{e_l} generates the last chart.  Likewise the
    terminal chart, where a = d_r (with no blow-up, the start chart's d_1),
    is z0^{d_r} (z1, ..., zr): the factorization witness.

    g makes its chart principal.  Each generator h of the chart keeps its
    parent's z0 exponent, max(d_j, a - 1) by the parent's closed form (for
    E2 the start chart, d_j >= d_1 = a - 1), and its exponent of z_p is its
    total, at least the blow-up's ``min(totals)``, which is a.  So g =
    z0^{a-1} z_p^a divides every h, and g, one of them, generates the chart.
    The same chart of the side chain of a level m >= l holds this chart's
    first cum[m-1] generators, cut to z0..z_{cum[m-1]}, and
    z0^{e_m} z_p^{e_m}.  g is among the first q, as p <= q, and a <= e_l,
    as a rises by one per blow-up to e_l at the level's last, so g divides
    all of them and generates that chart too; as cum and e rise with the
    level, this covers every side chain.
    """
    _check_resolution_budget(profile)
    n = profile.n
    levels, schedule = _levels(profile)
    mode = LOG_RESOLUTION if profile.r == n else STRONG_FACTORIZING

    k, ideal = _start_chart(profile)
    start = [(g[0], g[1:]) for g in ideal]  # each generator's d_j and strict part
    width = profile.r + 1
    names = _names(0, width)
    divisors = [("origin", "E1", profile.degrees[0], k)]
    vj_checks: list[VjCheck] = []
    case3: list[Case3Report] = []
    expected = ledger_rows(profile)
    fault = None  # the first mismatch with a closed form, raised after the ledger comparison
    blowups = (
        (level, q, power, step == count)
        for level, (q, power, count) in enumerate(schedule, 1)
        for step in range(1, count + 1)
    )
    for depth, (level, q, power, last) in enumerate(blowups, 1):
        center, divisor = tuple(names[: q + 1]), f"E{depth + 1}"
        a, k, totals = _blowup(ideal, k, q + 1)
        names = _names(depth, width)
        closed_a = expected[depth][0] if depth < len(expected) else 0  # past the closed form the ledger fails
        for p in range(1, q + 1):
            g = _pivot_chart(ideal[p - 1 : p], totals[p - 1 : p], p)[0]
            generator = _render(names, [g])[0]
            closed = (closed_a - 1,) + (0,) * (p - 1) + (closed_a,) + (0,) * (width - 1 - p)
            if fault is None and g != closed:
                fault = f"vj check of {divisor} on {center[p]}: {generator} != closed form {_render(names, [closed])[0]}"
            vj_checks.append(VjCheck(divisor, center[p], generator))
        ideal = _pivot_chart(ideal, totals, 0)
        closed = [(max(d, closed_a),) + tail for d, tail in start]
        if fault is None and ideal != closed:
            built, form = _ideal_text(_render(names, ideal)), _ideal_text(_render(names, closed))
            fault = f"chart of {divisor}: {built} != closed form {form}"
        if last:
            if fault is None and power != closed_a:
                fault = f"level {level} ends in {divisor} of multiplicity {closed_a}, not its degree {power}"
            case3.append(Case3Report(level, _render(names[:1], [(power,)])[0]))
        divisors.append((center, divisor, a, k))

    # one divisor, and so one blow-up, per degree step.  Checked before any
    # ratio is built, so that a = 0 is a chain fault and not a ZeroDivisionError.
    got = [(a, k) for _, _, a, k in divisors]
    if got != expected:
        raise ResolutionError(f"ledger rows {got} != closed form {expected}")
    if fault is not None:
        raise ResolutionError(fault)
    rows = [LedgerRow(center, divisor, a, k, Fraction(k + 1, a)) for center, divisor, a, k in divisors]

    witness = None
    if mode == STRONG_FACTORIZING:
        common, *residual = _render(names, [(profile.degrees[-1],), *((0,) + tail for _, tail in start)])
        witness = FactorizationWitness(common, tuple(residual))

    return ResolutionReport(
        mode=mode,
        levels=levels,
        ledger=tuple(rows),
        lower_bound=min([row.ratio for row in rows]),
        witness=witness,
        case3=tuple(case3),
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

"""Seeded request pools for the four benchmark workloads.

A pool is one pass of a workload: a list of :class:`Request` objects, each an
argv for ``minexp.cli.main`` plus the plain data the checker needs to judge
the report independently.  The same seed always gives the same pool.

Pools are built from fixed *slots* (a request shape: command and sizes) whose
details (degrees, coefficients, extra monomials, the sampled profiles, the
order) the seed draws.  The slots fix how much work a pass holds, so two
seeds give comparable timings while the program still sees other inputs.

The slots form tiers of like-sized requests, sized so that the median falls
inside one tier and the tail latency (the highest percentile with ten
requests beyond it, p99 at most) inside the slowest, never on the edge
between two tiers, where a small change in the mix would move it a long way.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("formula_batch", "resolve_sweep", "newton_cone", "scan_mix")

# The self-time group (see tracer.GROUPS) each workload was chosen to stress.
STRESSED = {
    "formula_batch": "cli",
    "resolve_sweep": "charts",
    "newton_cone": "newton",
    "scan_mix": "scans",
}


@dataclass(frozen=True)
class Request:
    """One CLI call: its argv (without ``--json``) and what the checker needs."""

    command: str
    argv: tuple[str, ...]
    spec: dict = field(hash=False, compare=False)
    expect_code: int = 0


def _rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _poly_text(terms: dict[tuple[int, ...], int], names: list[str]) -> str:
    """Render integer-coefficient terms; monomials are distinct, so nothing cancels."""
    pieces = []
    for exps, coeff in terms.items():
        factors = [str(abs(coeff))] if abs(coeff) != 1 else []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# formula_batch: cheap formula and weighted requests, dominated by the CLI

def _formula_request(rng: random.Random, kind: int) -> Request:
    n = rng.randint(4, 30)
    r = rng.randint(1, min(5, n))
    if kind == 0:  # all linear: infinite exponent
        degrees = [1] * r
    else:
        linear = rng.randint(1, r - 1) if kind == 1 and r > 1 else 0
        degrees = sorted([1] * linear + [rng.randint(2, 9) for _ in range(r - linear)])
    argv = ("formula", "--n", str(n), "--degrees", ",".join(map(str, degrees)))
    return Request("formula", argv, {"n": n, "degrees": degrees})


def _weighted_orders_request(rng: random.Random) -> Request:
    weights = [Fraction(rng.randint(1, 6), rng.choice((1, 1, 2, 3))) for _ in range(rng.randint(2, 6))]
    orders = [Fraction(rng.randint(2, 12), rng.choice((1, 1, 2))) for _ in range(rng.randint(1, 3))]
    argv = (
        "weighted",
        "--weights", ",".join(map(_rat, weights)),
        "--orders", ",".join(map(_rat, orders)),
    )
    return Request("weighted", argv, {"weights": weights, "orders": orders})


def _weighted_poly_request(rng: random.Random) -> Request:
    nvars = rng.randint(2, 4)
    names = [f"x{i}" for i in range(1, nvars + 1)]
    weights = [Fraction(rng.randint(1, 5)) for _ in range(nvars)]
    polys = []
    supports = []
    for _ in range(rng.randint(1, 3)):
        terms: dict[tuple[int, ...], int] = {}
        size = rng.randint(2, 4)
        while len(terms) < size:
            exps = tuple(rng.randint(0, 4) for _ in range(nvars))
            if sum(exps) >= 2:
                terms[exps] = rng.choice((-3, -1, 1, 2, 5))
        polys.append(_poly_text(terms, names))
        supports.append(list(terms))
    argv = ["weighted", "--weights", ",".join(map(_rat, weights))]
    for text in polys:
        argv += ["--poly", text]
    argv += ["--vars", ",".join(names)]
    return Request("weighted", tuple(argv), {"weights": weights, "supports": supports})


def formula_batch(seed: int) -> list[Request]:
    rng = random.Random(seed)
    pool = []
    for slot in range(1200):
        kind = slot % 20
        if kind < 10:  # plain, degree-1 mixes, all-linear
            pool.append(_formula_request(rng, 0 if kind == 0 else 1 if kind < 4 else 2))
        elif kind < 16:
            pool.append(_weighted_orders_request(rng))
        else:
            pool.append(_weighted_poly_request(rng))
    rng.shuffle(pool)
    return pool


# ---------------------------------------------------------------------------
# resolve_sweep: the C3 grid plus wide profiles, dominated by the chart calculus

def c3_grid() -> list[tuple[int, tuple[int, ...]]]:
    """Every profile with n <= 12, r <= 4 and degrees in 2..8 (3,122 of them)."""
    return [
        (n, degrees)
        for n in range(1, 13)
        for r in range(1, min(4, n) + 1)
        for degrees in itertools.combinations_with_replacement(range(2, 9), r)
    ]


def _resolve_request(n: int, degrees) -> Request:
    degrees = list(degrees)
    argv = ("resolve", "--n", str(n), "--degrees", ",".join(map(str, degrees)))
    return Request("resolve", argv, {"n": n, "degrees": degrees})


def resolve_sweep(seed: int) -> list[Request]:
    """A quarter of the C3 grid, stratified by (n, r), plus wide profiles.

    The whole grid would leave the CLI's own cost (argument parsing, JSON)
    ahead of the chart calculus, so a sample of it stands for the cheap
    profiles and the wide ones (n 22-40, spread degrees; the chart work
    grows with n * (d_r - d_1)) carry most of the pass.
    """
    rng = random.Random(seed)
    strata: dict[tuple[int, int], list] = {}
    for n, degrees in c3_grid():
        strata.setdefault((n, len(degrees)), []).append((n, degrees))
    pool = []
    for members in strata.values():
        pool += [_resolve_request(n, d) for n, d in rng.sample(members, -(-len(members) // 4))]
    for slot in range(128):  # wide: about 5-16 ms each
        n, low, r = 22 + 2 * (slot % 7), 2 + slot % 2, 2 + slot % 3
        high = low + 10 + slot % 5
        middle = sorted(rng.randint(low, high) for _ in range(r - 2))
        pool.append(_resolve_request(n, [low, *middle, high]))
    for slot in range(32):  # widest, the slow tier: about 30-45 ms each
        # Degrees symmetric about the middle keep the main chain's chart work
        # (the sum over stages of blow-ups times strict transforms) the same
        # for every m, so the seed barely moves the tail.
        low, m = 2 + slot % 2, rng.randint(4, 7)
        pool.append(_resolve_request(40, [low, low + m, low + 21 - m, low + 21]))
    rng.shuffle(pool)
    return pool


# ---------------------------------------------------------------------------
# newton_cone: cone hypersurfaces and small supports, dominated by the simplex

# (n, degrees, extra monomials, count): sum_j f_j * y_j has n*r + extra terms
# in n + r variables.  The degrees are fixed per slot because they set the
# simplex's work; the seed draws the coefficients and the extra monomials.
_CONE_SLOTS = (
    (7, (2, 3, 4), 2, 8),  # body, 23 terms
    (9, (2, 4, 6), 2, 24),  # body, 29 terms; the median falls among these
    (12, (4, 4, 4), 2, 8),  # body, 38 terms
    (14, (3, 4, 5), 2, 20),  # slow tier, 44 terms
)
_SUPPORT_SLOTS = 20  # fast tier


def _cone_request(rng: random.Random, n: int, degrees: tuple[int, ...], extra: int) -> Request:
    r = len(degrees)
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{j}" for j in range(1, r + 1)]
    terms: dict[tuple[int, ...], int] = {}
    for j, d in enumerate(degrees):
        for i in range(n):
            exps = [0] * (n + r)
            exps[i] = d
            exps[n + j] = 1
            terms[tuple(exps)] = rng.randint(1, 7)
    while extra:
        j = rng.randrange(r)
        i, k = rng.sample(range(n), 2)
        a = rng.randint(1, degrees[j] - 1)
        exps = [0] * (n + r)
        exps[i], exps[k], exps[n + j] = a, degrees[j] - a, 1
        if tuple(exps) not in terms:
            terms[tuple(exps)] = rng.choice((-2, -1, 1, 3))
            extra -= 1
    argv = ("newton", "--poly", _poly_text(terms, xs + ys), "--vars", ",".join(xs + ys))
    return Request("newton", argv, {"support": sorted(terms)})


def _support_request(rng: random.Random) -> Request:
    dim = rng.randint(2, 6)
    points: set[tuple[int, ...]] = set()
    count = rng.randint(3, 12)
    while len(points) < count:
        p = tuple(rng.randint(0, 6) for _ in range(dim))
        if any(p):
            points.add(p)
    support = sorted(points)
    argv = ("newton", "--support", json.dumps([list(p) for p in support]))
    return Request("newton", argv, {"support": support})


def newton_cone(seed: int) -> list[Request]:
    rng = random.Random(seed)
    pool = [_support_request(rng) for _ in range(_SUPPORT_SLOTS)]
    for n, degrees, extra, count in _CONE_SLOTS:
        pool += [_cone_request(rng, n, degrees, extra) for _ in range(count)]
    rng.shuffle(pool)
    return pool


# ---------------------------------------------------------------------------
# scan_mix: valuation/descent scans and the finite-field probe

# (n, r, bound) for verify; (variables, field, whether it passes) for probe.
# Fast tier: failing probes, r = 2 scans and small fields.  Body: r = 3 scans
# and mid-sized probes.  Slow tier: probes of F_13^4.
_VERIFY_SLOTS = tuple((6 + i % 5, 2, 6 + i % 5) for i in range(6)) + tuple(
    (5 + i % 6, 3, 6 + i % 5) for i in range(24)
)
_PROBE_SLOTS = (
    ((5, 5, False), (4, 7, False), (3, 5, False), (3, 7, False)) * 2
    + ((3, 13, True), (4, 7, True), (5, 5, True), (3, 11, True), (4, 5, True), (3, 7, True))
    + ((4, 11, True), (5, 7, True)) * 8
    + ((4, 13, True),) * 20
)


def _verify_request(rng: random.Random, n: int, r: int, bound: int) -> Request:
    degrees = sorted(rng.randint(2, 6) for _ in range(r))
    argv = ("verify", "--n", str(n), "--degrees", ",".join(map(str, degrees)), "--bound", str(bound))
    return Request("verify", argv, {"n": n, "degrees": degrees, "bound": bound})


def _probe_request(rng: random.Random, nvars: int, q: int, passes: bool) -> Request:
    """A Fermat-type form sum c_i x_i^d: smooth mod q exactly when q does not divide d."""
    if passes:
        d = rng.choice([d for d in range(2, 8) if d % q])
    else:
        d = q
    names = [f"x{i}" for i in range(1, nvars + 1)]
    terms = {}
    for i in range(nvars):
        exps = [0] * nvars
        exps[i] = d
        terms[tuple(exps)] = rng.choice([c for c in range(1, 2 * q) if c % q])
    argv = (
        "probe", "--poly", _poly_text(terms, names), "--vars", ",".join(names),
        "--field", str(q), "--limit", "400000",
    )
    spec = {"nvars": nvars, "field": q, "degree": d, "coefficients": list(terms.values())}
    return Request("probe", argv, spec, expect_code=0 if passes else 2)


def scan_mix(seed: int) -> list[Request]:
    rng = random.Random(seed)
    pool = [_verify_request(rng, *slot) for slot in _VERIFY_SLOTS]
    pool += [_probe_request(rng, *slot) for slot in _PROBE_SLOTS]
    rng.shuffle(pool)
    return pool


def build_pool(workload: str, seed: int) -> list[Request]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return globals()[workload](seed)

"""Sparse multivariate polynomials over exact rationals.

A polynomial is an ordered tuple of variable names plus a map from exponent
vectors to nonzero ``Fraction`` coefficients.  Everything is exact; no
floating point enters any computation in this package.

Input grammar (used by :func:`parse_poly`)::

    poly   :=  [sign] term { sign term }
    term   :=  factor { "*" factor }
    factor :=  NUMBER [ "/" NUMBER ]      rational coefficient
            |  NAME   [ "^" NUMBER ]      variable power, exponent >= 1

A NUMBER is a run of the ASCII digits 0-9; a NAME is an ASCII letter or
underscore followed by ASCII letters, digits and underscores.  Whitespace is
insignificant.  Variables are declared by the caller, never inferred from
the text.  Printing uses graded lexicographic term order (highest total
degree first, ties broken lexicographically on the exponent vector), so
output is deterministic and ``parse_poly(str(f), f.variables)`` reproduces
``f`` exactly.

A ``Poly``'s invariants (at least one variable, each a NAME of the grammar,
no duplicate names, exponent vectors of nonnegative ints one per variable,
nonzero ``Fraction`` coefficients) are checked by the public constructor.
:func:`parse_poly` checks the variables and builds the rest to fit as it
reads, and :meth:`Poly.derivative` keeps them; both build through
``Poly._trusted``, which checks nothing again.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from minexp.exponent import WeightedProfile, _as_fraction, _common_denominator, _is_int


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_variables", "_terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], object]):
        variables = tuple(variables)
        _check_variables(variables)
        n = len(variables)
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} does not match {n} variables")
            if any(not _is_int(e) or e < 0 for e in exps):
                raise ValueError(f"exponents must be nonnegative integers, got {exps}")
            c = _as_fraction(coeff)
            if c != 0:
                cleaned[exps] = c
        self._variables = variables
        self._terms = cleaned

    @classmethod
    def _trusted(cls, variables: tuple[str, ...], terms: dict[tuple[int, ...], Fraction]) -> "Poly":
        """A polynomial of :func:`parse_poly` or :meth:`derivative`, which have
        checked the variables and made every exponent vector a tuple of
        nonnegative ints, one per variable, and every coefficient a nonzero
        ``Fraction``."""
        f = object.__new__(cls)
        f._variables = variables
        f._terms = terms
        return f

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only view of the term map (exponent vector -> coefficient)."""
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def support(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._variables == other._variables and self._terms == other._terms

    __hash__ = None  # mutable-looking mapping inside; compare by value only

    def derivative(self, name: str) -> "Poly":
        """Formal partial derivative with respect to the named variable."""
        idx = self._variables.index(name)
        out: dict[tuple[int, ...], Fraction] = {}
        for u, c in self._terms.items():
            if u[idx] == 0:
                continue
            v = list(u)
            v[idx] -= 1
            out[tuple(v)] = c * u[idx]
        return Poly._trusted(self._variables, out)

    def evaluate(self, values: Sequence) -> Fraction:
        """Exact evaluation at a rational point."""
        vals = [_as_fraction(v) for v in values]
        if len(vals) != len(self._variables):
            raise ValueError("wrong number of values")
        total = Fraction(0)
        for u, c in self._terms.items():
            term = c
            for x, e in zip(vals, u):
                if e:
                    term *= x**e
            total += term
        return total

    def _sorted_support(self) -> list[tuple[int, ...]]:
        # graded lex, largest first
        return sorted(self._terms, key=lambda u: (sum(u), u), reverse=True)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        support = self._sorted_support()
        pieces = []
        for i, (u, mono) in enumerate(zip(support, _render(self._variables, support))):
            c = self._terms[u]
            mag = abs(c)
            if any(u):
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if i == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r}, variables={self._variables!r})"


def _check_names(variables: tuple[str, ...]) -> None:
    """Reject a name the grammar cannot read, naming its entry, counted from
    1: each must be one NAME token of :data:`_TOKEN_RE`."""
    for index, name in enumerate(variables, 1):
        if isinstance(name, str) and not name.strip():
            raise ValueError(f"variable {index} of {variables} has an empty or blank name")
        match = _TOKEN_RE.fullmatch(name) if isinstance(name, str) else None
        if match is None or match[2] is None:
            raise ValueError(f"variable {index} of {variables} is not a name: {name!r}")


def _check_variables(variables: tuple[str, ...]) -> None:
    if not variables:
        raise ValueError("a polynomial needs at least one variable")
    _check_names(variables)
    if len(set(variables)) != len(variables):
        raise ValueError(f"duplicate variable names in {variables}")


# ---------------------------------------------------------------------------
# parsing and writing


def _render(names: Sequence[str], gens: Iterable[Sequence[int]]) -> list[str]:
    """The one writer of the monomial grammar that :func:`parse_poly` reads,
    for ``Poly.__str__`` and every text of a resolution report: each
    exponent vector in ``gens`` as its factors ``x`` or ``x^e`` over
    ``names`` joined by ``*``, or ``1``.  Exponents are nonnegative, so a
    vector itself selects the variables of its support."""
    return [
        "*".join([name if e == 1 else f"{name}^{e}" for name, e in itertools.compress(zip(names, g), g)])
        or "1"
        for g in gens
    ]


# One group per token kind; m.lastindex names the kind of a match.
_TOKEN_RE = re.compile(r"([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^])|(\S)")
_END, _NUM, _NAME, _STRAY = 0, 1, 2, 4


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse polynomial text over a declared ordered variable list.

    Like terms are combined; zero results are legal and print as ``0``.
    Raises :class:`PolyParseError` with a position on malformed input,
    unknown variable names, zero-denominator coefficients and numbers past
    the interpreter's limit on integer digits, and
    ``ValueError`` with :class:`Poly`'s texts on a bad variable list.
    """
    variables = tuple(variables)
    index = {name: i for i, name in enumerate(variables)}
    matches = list(_TOKEN_RE.finditer(text))
    kinds = [m.lastindex for m in matches]
    if _STRAY in kinds:
        m = matches[kinds.index(_STRAY)]
        raise PolyParseError(f"unexpected character {m[_STRAY]!r}", m.start())
    # operators are told apart by their text; "" ends the list
    values = [m[k] for m, k in zip(matches, kinds)]
    kinds.append(_END)
    values.append("")

    def fail(message: str, i: int):
        return PolyParseError(message, matches[i].start() if i < len(matches) else len(text))

    def number(i: int) -> int:
        try:
            return int(values[i])
        except ValueError:  # int() refuses more digits than the interpreter's limit
            raise fail("number has too many digits", i) from None

    n = len(variables)
    terms: dict[tuple[int, ...], Fraction] = {}
    i = 0
    sign = 1
    if values[0] == "+" or values[0] == "-":
        sign = -1 if values[0] == "-" else 1
        i = 1
    while True:
        num, den = sign, 1
        exps = [0] * n
        while True:
            kind = kinds[i]
            if kind == _NUM:
                num *= number(i)
                i += 1
                if values[i] == "/":
                    i += 1
                    if kinds[i] != _NUM:
                        raise fail("expected denominator after '/'", i)
                    d = number(i)
                    if d == 0:
                        raise fail("zero denominator in coefficient", i)
                    den *= d
                    i += 1
            elif kind == _NAME:
                j = index.get(values[i])
                if j is None:
                    raise fail(f"unknown variable {values[i]!r}", i)
                i += 1
                if values[i] == "^":
                    i += 1
                    if kinds[i] != _NUM:
                        raise fail("expected integer exponent after '^'", i)
                    power = number(i)
                    if power < 1:
                        raise fail("exponent must be a positive integer", i)
                    exps[j] += power
                    i += 1
                else:
                    exps[j] += 1
            else:
                raise fail("expected a number or a variable", i)
            if values[i] != "*":
                break
            i += 1
        u = tuple(exps)
        c = Fraction(num) if den == 1 else Fraction(num, den)
        terms[u] = terms[u] + c if u in terms else c
        value = values[i]
        if value == "+" or value == "-":
            sign = -1 if value == "-" else 1
            i += 1
        elif kinds[i] == _END:
            break
        else:
            raise fail(f"expected '+', '-' or end of input, got {value!r}", i)
    _check_variables(variables)
    # zero terms go only now, so a cancelled term keeps its place if it comes back
    return Poly._trusted(variables, {u: c for u, c in terms.items() if c})


# ---------------------------------------------------------------------------
# weights and orders

def _weighted_order(f: Poly, weights: Sequence[Fraction]) -> Fraction:
    """Smallest weighted degree of a monomial of the nonzero ``f``; the
    caller has checked ``f`` and the weights.  The degrees are summed in
    integers over the weights' common denominator, into one ``Fraction``."""
    nums, den = _common_denominator(weights)
    return Fraction(min(sum(e * w for e, w in zip(u, nums)) for u in f.terms), den)


def weighted_profile(fs: Sequence[Poly], weights: Sequence) -> WeightedProfile:
    """The weights and the sorted weighted orders of the inputs ``fs`` (at least one): the
    profile whose :func:`minexp.exponent.weighted_upper_bound` bounds the
    minimal exponent at the origin of ``fs = 0``.

    The weights are exact (a float is rejected), one per variable of every
    input, and positive (checked by :class:`WeightedProfile`).  The bound
    needs a singular point at the origin, so every input must be nonzero and
    every monomial must have total degree at least 2.
    """
    if not fs:
        raise ValueError("need at least one polynomial")
    weights = tuple(map(_as_fraction, weights))
    for i, f in enumerate(fs, 1):
        if len(f.variables) != len(weights):
            raise ValueError(f"{len(weights)} weights but {len(f.variables)} variables")
        if f.is_zero():
            raise ValueError(f"input {i} is zero and defines no hypersurface")
        if any(sum(u) < 2 for u in f.terms):
            raise ValueError(
                f"input {i} has a term of total degree <= 1: the origin is not a singular "
                "point, so the bound does not apply"
            )
    return WeightedProfile(weights, tuple(sorted(_weighted_order(f, weights) for f in fs)))


# ---------------------------------------------------------------------------
# finite-field transversality probe

class ProbeWitness(NamedTuple):
    point: tuple[int, ...]
    vanishing: tuple[int, ...]            # 1-based indices of the vanishing inputs
    lifted_point: tuple[int, ...]         # centered integer lift of the point
    genuine: bool                         # True if the lift fails over the rationals too
    note: str


class ProbeReport(NamedTuple):
    verdict: str                          # "PASS", "FAIL" or "INCONCLUSIVE"
    field_size: int
    points_checked: int
    witness: ProbeWitness | None = None
    reason: str | None = None


_MAX_PROBE_VARS = 5
PROBE_LIMIT = 100_000  # the default budget of lines through the origin a probe decides
_MAX_PROBE_FIELD = 13
_PROBE_FIELDS = frozenset(
    p for p in range(2, _MAX_PROBE_FIELD + 1) if all(p % d for d in range(2, p))
)


def _mod_terms(f: Poly, q: int) -> list[tuple[int, tuple[int, ...]]] | None:
    """Coefficients reduced mod q, or None if a denominator is divisible by q."""
    out = []
    for u, c in f.terms.items():
        if c.denominator % q == 0:
            return None
        cm = c.numerator * pow(c.denominator, -1, q) % q
        if cm:
            out.append((cm, u))
    return out


def _power_terms(terms: list[tuple[int, tuple[int, ...]]], q: int, tables: dict[int, list[int]]):
    """Terms from :func:`_mod_terms` as (coefficient, ((index, table), ...)),
    one pair per nonzero exponent e, with table[x] = x^e mod q.  ``tables``
    holds one table per exponent, shared by every caller."""
    out = []
    for c, u in terms:
        factors = []
        for i, e in enumerate(u):
            if e:
                if e not in tables:
                    tables[e] = [pow(x, e, q) for x in range(q)]
                factors.append((i, tables[e]))
        out.append((c, tuple(factors)))
    return out


def _eval_power_terms(terms, point: tuple[int, ...], q: int) -> int:
    total = 0
    for c, factors in terms:
        for i, table in factors:
            c *= table[point[i]]
        total += c
    return total % q


def _split_last(terms: list[tuple[int, tuple[int, ...]]], q: int, tables: dict[int, list[int]]):
    """Terms from :func:`_mod_terms` of f = sum over e of g_e * x_n^e, as one
    (e, table, g_e) triple per exponent e of the last variable: table[x] =
    x^e mod q, and g_e as power terms (see :func:`_power_terms`) in the other
    variables, read from the point's prefix."""
    groups: dict[int, list] = {}
    for c, u in terms:
        groups.setdefault(u[-1], []).append((c, u[:-1]))
    out = []
    for e, group in groups.items():
        if e not in tables:
            tables[e] = [pow(x, e, q) for x in range(q)]
        out.append((e, tables[e], _power_terms(group, q, tables)))
    return out


def _zeros(parts, values: tuple[int, ...], q: int) -> tuple[list[int], list[int]]:
    """The roots and the multiple roots, each ascending, of phi(t) = f(prefix,
    t) mod q, for the form split by :func:`_split_last` whose g_e take the
    ``values`` at the prefix.  A root t is multiple where phi'(t) = sum over e
    of e * g_e(prefix) * t^(e - 1), the last partial of f, is 0 mod q."""
    phi = [0] * q
    for c, (_, table, _) in zip(values, parts):
        if c:
            phi = [v + c * x for v, x in zip(phi, table)]
    roots = [t for t, v in enumerate(phi) if not v % q]
    multiple = [t for t in roots if not sum(e * c * pow(t, e - 1, q) for c, (e, *_) in zip(values, parts) if e) % q]
    return roots, multiple


def _needs_gradient(zeros: list) -> list[tuple[int, list[int]]]:
    """(t, indices of the inputs that vanish there), t ascending, for each
    last coordinate where two or more inputs vanish, or one vanishes at a
    multiple root; ``zeros`` holds each input's roots and multiple roots
    from :func:`_zeros`; for one input, its multiple roots at once.  Where one
    input vanishes at a simple root, its gradient row is independent."""
    if len(zeros) == 1:
        return [(t, [0]) for t in zeros[0][1]]
    out = []
    for t in sorted(set().union(*(roots for roots, _ in zeros))):
        vanishing = [i for i, (roots, _) in enumerate(zeros) if t in roots]
        if len(vanishing) > 1 or t in zeros[vanishing[0]][1]:
            out.append((t, vanishing))
    return out


def _line_prefixes(q: int, n: int):
    """The first n - 1 coordinates of each line representative of F_q^n
    other than (0, ..., 0, 1), in lexicographic order.

    A line representative is the point of its line whose first nonzero
    coordinate is 1.  (0, ..., 0, 1) is a line of its own; every other one
    is a prefix of n - 1 coordinates that is itself a line representative,
    followed by any last coordinate t."""
    for k in range(n - 2, -1, -1):  # k zeros before the leading 1 of the prefix
        head = (0,) * k + (1,)
        for tail in itertools.product(range(q), repeat=n - k - 2):
            yield head + tail


def _vanishing_points(split: list, terms: list, q: int, n: int):
    """(point, indices of the inputs that vanish there) for each line
    representative of F_q^n whose gradient rank needs checking (see
    :func:`_needs_gradient`), in lexicographic order; ``split`` holds each
    input as :func:`_split_last` gives it, with the span of its g_e in
    ``terms``, the g_e of every input.

    One loop runs over the prefix (0, ..., 0), keeping only t = 1, then
    :func:`_line_prefixes`.  Each prefix evaluates every input's g_e once,
    and one memo keeps the points by all those values."""
    memo: dict[tuple[int, ...], list] = {}
    zero = (0,) * (n - 1)
    for prefix in itertools.chain([zero], _line_prefixes(q, n)):
        key = tuple([_eval_power_terms(g, prefix, q) for g in terms])
        points = memo.get(key)
        if points is None:
            zeros = [_zeros(parts, key[span], q) for parts, span in split]
            points = memo[key] = _needs_gradient(zeros)
        for t, vanishing in points:
            if t == 1 or prefix != zero:
                yield prefix + (t,), vanishing


def _rank(rows: list[list], inverse, reduce) -> int:
    """Gauss-Jordan rank of ``rows`` over a field: ``inverse`` inverts a
    nonzero entry, and ``reduce`` brings a product or difference of entries
    back to normal form (``x % q`` over F_q, the identity over Q)."""
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


def _independent(grads: list, vanishing: list[int], point: tuple[int, ...], q: int) -> bool:
    """Whether the gradient rows mod q of the inputs ``vanishing`` (each
    input's partial derivatives as power terms) are linearly independent at
    ``point``.  One row is independent exactly when some entry is nonzero,
    so its entries are evaluated only up to the first nonzero one."""
    if len(vanishing) == 1:
        return any(_eval_power_terms(gm, point, q) for gm in grads[vanishing[0]])
    rows = [[_eval_power_terms(gm, point, q) for gm in grads[i]] for i in vanishing]
    return _rank(rows, lambda x: pow(x, -1, q), lambda x: x % q) == len(vanishing)


def probe_transversality(fs: Sequence[Poly], field_size: int, limit: int = PROBE_LIMIT) -> ProbeReport:
    """Heuristic finite-field screen for smooth + simple-normal-crossing inputs.

    At a nonzero point of F_q^n where some of the inputs vanish, the
    gradient rows of exactly those inputs must be linearly independent mod q.
    The inputs are homogeneous, so which of them vanish and the rank of their
    gradient rows are the same at every point of a line through the origin:
    the scan decides one point per line, the one whose first nonzero
    coordinate is 1, in lexicographic order.  The first failing one is the
    first failing point of F_q^n in lexicographic order.

    The scan goes by line prefix: each input is split as f = sum over e of
    g_e(x_1..x_{n-1}) * x_n^e, and at each prefix (the first n - 1
    coordinates, themselves a line representative) every g_e is evaluated
    once.  The q values of f over the last coordinate then come from the
    shared x^e mod q tables.  At a last coordinate t where exactly one input
    vanishes, its last partial is phi'(t) for phi(t) = f(prefix, t) mod q,
    so at a simple root of phi the gradient row is nonzero and the point is
    transverse.  The gradient rank is checked, in ascending order of t,
    only where two or more inputs vanish or one vanishes at a multiple root
    (where one input vanishes, its gradient is evaluated up to its first
    nonzero entry).  A prefix whose g_e values, of every input, were seen
    before reuses the points found there.

    ``points_checked`` counts the points of F_q^n the scan decided: all
    q^n - 1 nonzero points on a PASS, and on a FAIL the nonzero points up to
    and including the witness (the witness read as a base-q number).

    A PASS is evidence only.  A FAIL comes with a witness point; the witness
    is additionally re-checked over the rationals at its centered integer
    lift, and flagged ``genuine`` when the failure survives exactly (a real
    counterexample, not a mod-q artifact).

    Desk-scale limits are enforced: at most 5 variables, prime field size at
    most 13, and at most ``limit`` lines through the origin, the
    (q^n - 1)/(q - 1) points the scan decides (otherwise INCONCLUSIVE).
    ``limit`` must be at least 1.
    """
    if not fs:
        raise ValueError("need at least one polynomial")
    xs = fs[0].variables
    for f in fs[1:]:
        if f.variables != xs:
            raise ValueError("mismatched variable lists")
    n = len(xs)
    if n > _MAX_PROBE_VARS:
        raise ValueError(f"probe supports at most {_MAX_PROBE_VARS} variables, got {n}")
    if field_size > _MAX_PROBE_FIELD:
        raise ValueError(f"probe supports field sizes up to {_MAX_PROBE_FIELD}")
    if field_size not in _PROBE_FIELDS:
        raise ValueError(f"field size {field_size} is not prime")
    for i, f in enumerate(fs, 1):
        if f.is_zero():
            raise ValueError(f"input {i} is zero")
        if len({sum(u) for u in f.terms}) != 1:
            raise ValueError(f"input {i} is not homogeneous")
    if limit < 1:
        raise ValueError("limit must be at least 1")

    q = field_size
    total = q**n - 1
    lines = total // (q - 1)
    if lines > limit:
        return ProbeReport(
            "INCONCLUSIVE", q, 0,
            reason=f"line budget exceeded: {lines} lines > limit {limit}",
        )

    split = []
    terms = []
    grads_mod = []
    tables: dict[int, list[int]] = {}
    for f in fs:
        tm = _mod_terms(f, q)
        if tm is None:
            return ProbeReport(
                "INCONCLUSIVE", q, 0,
                reason=f"a coefficient denominator is divisible by {q}",
            )
        parts = _split_last(tm, q, tables)
        split.append((parts, slice(len(terms), len(terms) + len(parts))))
        terms += [g for _, _, g in parts]
        # each partial mod q straight from the terms mod q: c*u_i x^(u - e_i) where nonzero
        rows = [[(c * u[i] % q, u[:i] + (u[i] - 1,) + u[i + 1 :]) for c, u in tm if c * u[i] % q] for i in range(n)]
        grads_mod.append([_power_terms(row, q, tables) for row in rows])

    for point, vanishing in _vanishing_points(split, terms, q, n):
        if _independent(grads_mod, vanishing, point, q):
            continue
        # modular failure; re-check exactly at the centered lift
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
        witness = ProbeWitness(point, tuple(i + 1 for i in vanishing), lift, genuine, note)
        checked = 0  # the witness as a base-q number: its place in the affine scan
        for x in point:
            checked = checked * q + x
        return ProbeReport("FAIL", q, checked, witness=witness)
    return ProbeReport("PASS", q, total)

"""Sparse multivariate polynomials over exact rationals.

A polynomial is an ordered tuple of variable names plus a map from exponent
vectors to nonzero ``Fraction`` coefficients.  Everything is exact; no
floating point enters any computation in this package.

Input grammar (used by :func:`parse_poly`)::

    poly   :=  [sign] term { sign term }
    term   :=  factor { "*" factor }
    factor :=  NUMBER [ "/" NUMBER ]      rational coefficient
            |  NAME   [ "^" NUMBER ]      variable power, exponent >= 1

Whitespace is insignificant.  Variables are declared by the caller, never
inferred from the text.  Printing uses graded lexicographic term order
(highest total degree first, ties broken lexicographically on the exponent
vector), so output is deterministic and ``parse_poly(str(f), f.variables)``
reproduces ``f`` exactly.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from minexp.exponent import WeightedProfile, _as_fraction


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
        if not variables:
            raise ValueError("a polynomial needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables}")
        n = len(variables)
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} does not match {n} variables")
            if any((not isinstance(e, int)) or e < 0 for e in exps):
                raise ValueError(f"exponents must be nonnegative integers, got {exps}")
            c = _as_fraction(coeff)
            if c != 0:
                cleaned[exps] = c
        self._variables = variables
        self._terms = cleaned

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only view of the term map (exponent vector -> coefficient)."""
        return MappingProxyType(self._terms)

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls(variables, {})

    @classmethod
    def monomial(cls, variables: Sequence[str], exps: Sequence[int], coeff=1) -> "Poly":
        return cls(variables, {tuple(exps): coeff})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Poly":
        idx = tuple(variables).index(name)
        exps = [0] * len(variables)
        exps[idx] = 1
        return cls(variables, {tuple(exps): 1})

    def is_zero(self) -> bool:
        return not self._terms

    def support(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self._terms)

    def _require_same_variables(self, other: "Poly") -> None:
        if self._variables != other._variables:
            raise ValueError(
                f"mismatched variable lists: {self._variables} vs {other._variables}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_variables(other)
        out = dict(self._terms)
        for u, c in other._terms.items():
            out[u] = out.get(u, Fraction(0)) + c
        return Poly(self._variables, out)

    def __neg__(self) -> "Poly":
        return Poly(self._variables, {u: -c for u, c in self._terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_variables(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for u, cu in self._terms.items():
            for v, cv in other._terms.items():
                w = tuple(a + b for a, b in zip(u, v))
                out[w] = out.get(w, Fraction(0)) + cu * cv
        return Poly(self._variables, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._variables == other._variables and self._terms == other._terms

    __hash__ = None  # mutable-looking mapping inside; compare by value only

    def scale(self, c) -> "Poly":
        c = _as_fraction(c)
        return Poly(self._variables, {u: c * cu for u, cu in self._terms.items()})

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
        return Poly(self._variables, out)

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

    def embed(self, variables: Sequence[str]) -> "Poly":
        """Re-express this polynomial in a larger ordered variable list."""
        variables = tuple(variables)
        positions = []
        for name in self._variables:
            try:
                positions.append(variables.index(name))
            except ValueError:
                raise ValueError(f"variable {name!r} missing from target list") from None
        n = len(variables)
        out: dict[tuple[int, ...], Fraction] = {}
        for u, c in self._terms.items():
            v = [0] * n
            for pos, e in zip(positions, u):
                v[pos] = e
            out[tuple(v)] = c
        return Poly(variables, out)

    def _sorted_support(self) -> list[tuple[int, ...]]:
        # graded lex, largest first
        return sorted(self._terms, key=lambda u: (sum(u), u), reverse=True)

    def _monomial_str(self, u: tuple[int, ...]) -> str:
        parts = []
        for name, e in zip(self._variables, u):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for i, u in enumerate(self._sorted_support()):
            c = self._terms[u]
            mono = self._monomial_str(u)
            mag = abs(c)
            if mono:
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


# ---------------------------------------------------------------------------
# parsing

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


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse polynomial text over a declared ordered variable list.

    Like terms are combined; zero results are legal and print as ``0``.
    Raises :class:`PolyParseError` with a position on malformed input,
    unknown variable names and zero-denominator coefficients.
    """
    return _Parser(text, variables).parse()


# ---------------------------------------------------------------------------
# weights and orders

def as_weights(weights: Sequence, n: int) -> tuple[Fraction, ...]:
    """Coerce to a tuple of positive rationals of the expected length."""
    w = tuple(_as_fraction(x) for x in weights)
    if len(w) != n:
        raise ValueError(f"expected {n} weights, got {len(w)}")
    if any(x <= 0 for x in w):
        raise ValueError("weights must be positive")
    return w


def weighted_order(f: Poly, weights: Sequence) -> Fraction:
    """Smallest weighted degree of a monomial appearing in ``f``.

    With all weights equal to 1 this is the ordinary order (minimal total
    degree).  The zero polynomial has no order and is rejected.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no weighted order")
    w = as_weights(weights, len(f.variables))
    return min(sum(e * wi for e, wi in zip(u, w)) for u in f.terms)


def weighted_profile(fs: Sequence[Poly], weights: Sequence) -> WeightedProfile:
    """The weights and the sorted weighted orders of the inputs ``fs``: the
    profile whose :func:`minexp.exponent.weighted_upper_bound` bounds the
    minimal exponent at the origin of ``fs = 0``.

    The bound needs a singular point at the origin, so every input must be
    nonzero and every monomial must have total degree at least 2.
    """
    for i, f in enumerate(fs, 1):
        if f.is_zero():
            raise ValueError(f"input {i} is zero and defines no hypersurface")
        if any(sum(u) < 2 for u in f.terms):
            raise ValueError(
                f"input {i} has a term of total degree <= 1: the origin is not a singular "
                "point, so the bound does not apply"
            )
    return WeightedProfile(tuple(weights), tuple(sorted(weighted_order(f, weights) for f in fs)))


def is_homogeneous(f: Poly, weights: Sequence) -> tuple[bool, Fraction | None]:
    """Whether every monomial of ``f`` has the same weighted degree.

    Returns ``(True, degree)`` or ``(False, None)``.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial is not graded")
    w = as_weights(weights, len(f.variables))
    degrees = {sum(e * wi for e, wi in zip(u, w)) for u in f.terms}
    if len(degrees) == 1:
        return True, next(iter(degrees))
    return False, None


# ---------------------------------------------------------------------------
# auxiliary hypersurface constructions

def cone_hypersurface(fs: Sequence[Poly]) -> Poly:
    """Build sum_j f_j * y_j in the variables x_1..x_n, y_1..y_r.

    All inputs must share one ambient variable list; one fresh cone
    coordinate ``y<j>`` is appended per input polynomial.
    """
    if not fs:
        raise ValueError("need at least one polynomial")
    xs = fs[0].variables
    for f in fs[1:]:
        if f.variables != xs:
            raise ValueError(f"mismatched variable lists: {xs} vs {f.variables}")
    r = len(fs)
    ys = tuple(f"y{j}" for j in range(1, r + 1))
    clash = set(xs) & set(ys)
    if clash:
        raise ValueError(f"ambient variables collide with cone coordinates: {sorted(clash)}")
    variables = xs + ys
    n = len(xs)
    terms: dict[tuple[int, ...], Fraction] = {}
    for j, f in enumerate(fs):
        block = [0] * r
        block[j] = 1
        block = tuple(block)
        for u, c in f.terms.items():
            key = u + block
            terms[key] = terms.get(key, Fraction(0)) + c
    return Poly(variables, terms)


# ---------------------------------------------------------------------------
# finite-field transversality probe

@dataclass(frozen=True)
class ProbeWitness:
    point: tuple[int, ...]
    vanishing: tuple[int, ...]            # 1-based indices of the vanishing inputs
    lifted_point: tuple[int, ...]         # centered integer lift of the point
    genuine: bool                         # True if the lift fails over the rationals too
    note: str


@dataclass(frozen=True)
class ProbeReport:
    verdict: str                          # "PASS", "FAIL" or "INCONCLUSIVE"
    field_size: int
    points_checked: int
    witness: ProbeWitness | None = None
    reason: str | None = None


_MAX_PROBE_VARS = 5
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


def _line_representatives(q: int, n: int):
    """The lex-smallest point of each line through the origin of F_q^n (the
    one whose first nonzero coordinate is 1), in lexicographic order."""
    for k in range(n - 1, -1, -1):
        head = (0,) * k + (1,)
        for tail in itertools.product(range(q), repeat=n - k - 1):
            yield head + tail


def probe_transversality(fs: Sequence[Poly], field_size: int, limit: int = 100_000) -> ProbeReport:
    """Heuristic finite-field screen for smooth + simple-normal-crossing inputs.

    At a nonzero point of F_q^n where some of the inputs vanish, the
    gradient rows of exactly those inputs must be linearly independent mod q.
    The inputs are homogeneous, so which of them vanish and the rank of their
    gradient rows are the same at every point of a line through the origin:
    the scan visits one point per line, the one whose first nonzero
    coordinate is 1, in lexicographic order.  The first failing one is the
    first failing point of F_q^n in lexicographic order.

    ``points_checked`` counts the points of F_q^n the scan decided: all
    q^n - 1 nonzero points on a PASS, and on a FAIL the nonzero points up to
    and including the witness (the witness read as a base-q number).

    A PASS is evidence only.  A FAIL comes with a witness point; the witness
    is additionally re-checked over the rationals at its centered integer
    lift, and flagged ``genuine`` when the failure survives exactly (a real
    counterexample, not a mod-q artifact).

    Desk-scale limits are enforced: at most 5 variables, prime field size at
    most 13, and at most ``limit`` nonzero points of F_q^n, counted as points,
    not lines (otherwise INCONCLUSIVE).  ``limit`` must be at least 1.
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
        homogeneous, _ = is_homogeneous(f, [1] * n)
        if not homogeneous:
            raise ValueError(f"input {i} is not homogeneous")
    if limit < 1:
        raise ValueError("limit must be at least 1")

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
        grad = []
        for name in xs:
            gm = _mod_terms(f.derivative(name), q)
            assert gm is not None  # same denominators as f
            grad.append(gm)
        grads_mod.append(grad)

    for point in _line_representatives(q, n):
        vanishing = [i for i, tm in enumerate(polys_mod) if _eval_mod(tm, point, q) == 0]
        if not vanishing:
            continue
        rows = [
            [_eval_mod(gm, point, q) for gm in grads_mod[i]]
            for i in vanishing
        ]
        if _rank(rows, lambda x: pow(x, -1, q), lambda x: x % q) == len(vanishing):
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
        witness = ProbeWitness(
            point=point,
            vanishing=tuple(i + 1 for i in vanishing),
            lifted_point=lift,
            genuine=genuine,
            note=note,
        )
        checked = 0  # the witness as a base-q number: its place in the affine scan
        for x in point:
            checked = checked * q + x
        return ProbeReport("FAIL", q, checked, witness=witness)
    return ProbeReport("PASS", q, total)

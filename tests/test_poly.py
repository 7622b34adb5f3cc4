"""Polynomial parsing, weighted orders and the transversality probe."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import parse_poly_by_tokens, probe_by_affine_scan, probe_by_line_scan, rank_by_elimination
from minexp import poly
from minexp.exponent import WeightedProfile
from minexp.newton import MonomialSupport
from minexp.poly import (
    Poly,
    PolyParseError,
    ProbeReport,
    _eval_power_terms,
    _rank,
    _weighted_order,
    parse_poly,
    probe_transversality,
    weighted_profile,
)

F = Fraction


# --- construction ------------------------------------------------------------

@pytest.mark.parametrize("exps", [(True, 2), (0, False), (1.0, 2), (-1, 2)])
def test_poly_rejects_exponents_that_are_not_nonnegative_integers(exps):
    # a bool is an int to isinstance, but not an exponent: (True, 2) once
    # printed as x*y^2 and was rejected only later, by MonomialSupport
    with pytest.raises(ValueError, match=r"^exponents must be nonnegative integers, got "):
        Poly(("x", "y"), {exps: 1})



# --- parsing -----------------------------------------------------------------

def test_parse_direct_terms():
    f = parse_poly("x1^2 - x2^3", ["x1", "x2"])
    assert dict(f.terms) == {(2, 0): F(1), (0, 3): F(-1)}


def test_parse_combines_like_terms():
    f = parse_poly("x1*x1 + x1^2", ["x1"])
    assert dict(f.terms) == {(2,): F(2)}


def test_parse_rational_coefficient():
    f = parse_poly("3/2*x1^2*x2", ["x1", "x2"])
    assert dict(f.terms) == {(2, 1): F(3, 2)}


def test_parse_cancellation_gives_zero():
    f = parse_poly("x1 - x1", ["x1"])
    assert f.is_zero()
    assert str(f) == "0"


def test_parse_leading_sign_and_constants():
    f = parse_poly("-x1 + 5/3", ["x1"])
    assert dict(f.terms) == {(1,): F(-1), (0,): F(5, 3)}


def test_parse_unknown_variable_reports_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1 + y2", ["x1"])
    assert str(err.value) == "unknown variable 'y2' (at position 5)"
    assert err.value.position == 5


def test_parse_zero_denominator():
    with pytest.raises(PolyParseError) as err:
        parse_poly("1/0*x1", ["x1"])
    assert str(err.value) == "zero denominator in coefficient (at position 2)"
    assert err.value.position == 2


# with the two tests above, every PolyParseError message and the position it names
PARSE_ERRORS = {
    "x1 +": ("expected a number or a variable", 4),
    "": ("expected a number or a variable", 0),
    "x1 * * x2": ("expected a number or a variable", 5),
    "x1^0": ("exponent must be a positive integer", 3),
    "x1^-2": ("expected integer exponent after '^'", 3),
    "x1^": ("expected integer exponent after '^'", 3),
    "2x1": ("expected '+', '-' or end of input, got 'x1'", 1),
    "x1^2/3": ("expected '+', '-' or end of input, got '/'", 4),
    "1/x1": ("expected denominator after '/'", 2),
    "x1 $": ("unexpected character '$'", 3),
    # the whole text is tokenized first: a stray character wins over a syntax error
    "x1 + + $": ("unexpected character '$'", 7),
    # \d once read these as 3 and 2, and int() took them
    "\u0663*x1^\u0662": ("unexpected character '\u0663'", 0),
}


@pytest.mark.parametrize("bad", PARSE_ERRORS)
def test_parse_syntax_errors(bad):
    message, position = PARSE_ERRORS[bad]
    with pytest.raises(PolyParseError) as err:
        parse_poly(bad, ["x1", "x2"])
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


@pytest.mark.parametrize(
    "text, position",
    [("1" * 5000 + "*x1^2", 0), ("x2 + x1^" + "2" * 5000, 8), ("3/" + "7" * 4301 + "*x1", 2)],
    ids=["coefficient", "exponent", "denominator"],
)
def test_parse_numbers_past_the_digit_limit(text, position):
    # int() raised the interpreter's ValueError past 4300 digits, with no
    # position and advice to call sys.set_int_max_str_digits
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, ["x1", "x2"])
    assert str(err.value) == f"number has too many digits (at position {position})"
    assert err.value.position == position


def test_parse_checks_the_variable_list_after_the_text():
    with pytest.raises(ValueError, match=r"^a polynomial needs at least one variable$"):
        parse_poly("1", [])
    with pytest.raises(ValueError, match=r"^duplicate variable names in \('x1', 'x1'\)$"):
        parse_poly("x1^2", ["x1", "x1"])
    with pytest.raises(PolyParseError, match=r"^unknown variable 'x1' \(at position 0\)$"):
        parse_poly("x1", [])
    with pytest.raises(ValueError, match=r"^variable 2 of \('x1', '', 'x2'\) has an empty or blank name$"):
        parse_poly("x1^2", ["x1", "", "x2"])


@pytest.mark.parametrize("names", [["x1", ""], ["x1", " "], ["\t", "x1"]])
def test_poly_rejects_an_empty_or_blank_variable_name(names):
    with pytest.raises(ValueError, match=r"has an empty or blank name$"):
        Poly(names, {(1, 0): 1})


@pytest.mark.parametrize("text", ["x1 - x1 + x2 + x1 + x2^2 - x2^2", "0*x2^2 + x1 + 0 + x2"])
def test_parse_drops_zero_terms_and_keeps_the_place_of_a_cancelled_one(text):
    f = parse_poly(text, ["x1", "x2"])
    assert list(f.terms.items()) == [((1, 0), F(1)), ((0, 1), F(1))]


_VARS = ("x1", "x2", "x3")


@st.composite
def polys(draw, min_terms=0):
    nvars = draw(st.integers(1, 3))
    names = _VARS[:nvars]
    nterms = draw(st.integers(min_terms, 5))
    terms = {}
    for _ in range(nterms):
        exps = tuple(draw(st.integers(0, 6)) for _ in range(nvars))
        coeff = F(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9)))
        terms[exps] = coeff
    return Poly(names, terms)


@settings(max_examples=200, derandomize=True)
@given(polys())
def test_print_parse_round_trip(f):
    assert parse_poly(str(f), f.variables) == f


# (n, degrees) of the cone hypersurfaces sum_j c_j*f_j*y_j that the newton_cone
# benchmark sends, f_j the Fermat polynomial of degree d_j in x1..xn
_CONE_SHAPES = ((7, (2, 3, 4)), (9, (2, 4, 6)), (12, (4, 4, 4)), (14, (3, 4, 5)))


@st.composite
def cone_texts(draw):
    """A cone hypersurface's text as the benchmark writes it, two extra
    monomials included, and its variable list."""
    n, degrees = draw(st.sampled_from(_CONE_SHAPES))
    r = len(degrees)
    names = [f"x{i}" for i in range(1, n + 1)] + [f"y{j}" for j in range(1, r + 1)]
    terms = {}
    for j, d in enumerate(degrees):
        for i in range(n):
            exps = [0] * (n + r)
            exps[i], exps[n + j] = d, 1
            terms[tuple(exps)] = draw(st.integers(1, 7))
    for _ in range(2):
        j = draw(st.integers(0, r - 1))
        i, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        a = draw(st.integers(1, degrees[j] - 1))
        exps = [0] * (n + r)
        exps[i], exps[k], exps[n + j] = a, degrees[j] - a, 1
        terms[tuple(exps)] = draw(st.sampled_from((-2, -1, 1, 3)))
    pieces = []
    for exps, c in terms.items():
        factors = [] if abs(c) == 1 else [str(abs(c))]
        factors += [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
        sign = ("-" if c < 0 else "") if not pieces else (" - " if c < 0 else " + ")
        pieces.append(sign + "*".join(factors))
    return "".join(pieces), names


# known and unknown names, numbers, every operator, spaces and stray characters
_TOKENS = (
    "x1", "x2", "z", "y7", "_a", "0", "1", "2", "12", "007",
    "+", "-", "*", "/", "^", " ", "  ", "$", ".", "(", "\u00e9",
)
_VARIABLE_LISTS = (("x1", "x2"), ("x1",), ("x2", "x1", "z"), (), ("x1", "x1"))


@st.composite
def token_mixes(draw):
    text = "".join(draw(st.lists(st.sampled_from(_TOKENS), max_size=14)))
    return text, draw(st.sampled_from(_VARIABLE_LISTS))


def _outcome(parse, text, variables):
    try:
        f = parse(text, variables)
    except ValueError as err:  # a PolyParseError or a bad variable list
        return type(err), str(err), getattr(err, "position", None)
    return f.variables, list(f.terms.items()), [type(c) for c in f.terms.values()]


@settings(max_examples=400, derandomize=True)
@given(st.one_of(token_mixes(), cone_texts()))
def test_reader_matches_the_token_parser(case):
    # same variables, terms in the same order and Fractions, or the same
    # exception class, message and position
    text, variables = case
    assert _outcome(parse_poly, text, variables) == _outcome(parse_poly_by_tokens, text, variables)


@settings(max_examples=200, derandomize=True)
@given(st.one_of(cone_texts(), polys().map(lambda f: (str(f), f.variables)), token_mixes()))
def test_trusted_polys_pass_the_public_checks(case):
    # parse_poly, derivative and from_poly skip the per-term checks: what
    # they build must be what the public constructors build from it
    text, variables = case
    try:
        f = parse_poly(text, variables)
    except ValueError:
        return
    for g in [f] + [f.derivative(name) for name in f.variables]:
        assert Poly(g.variables, g.terms) == g
        assert all(type(c) is Fraction for c in g.terms.values())
        assert all(type(e) is int for u in g.terms for e in u)
        if g.is_zero():
            with pytest.raises(ValueError, match="^the zero polynomial has empty support$"):
                MonomialSupport.from_poly(g)
        else:
            ms = MonomialSupport.from_poly(g)
            assert MonomialSupport(ms.n, ms.points) == ms


@settings(max_examples=100, derandomize=True)
@given(polys(min_terms=1), polys(min_terms=1), st.lists(st.fractions(min_value=F(1, 4), max_value=4), min_size=3, max_size=3))
def test_weighted_order_is_a_valuation(f, g, ws):
    nvars = max(len(f.variables), len(g.variables))
    names = _VARS[:nvars]
    f, g = (Poly(names, {u + (0,) * (nvars - len(u)): c for u, c in p.terms.items()}) for p in (f, g))
    product = {}
    for u, cu in f.terms.items():
        for v, cv in g.terms.items():
            key = tuple(a + b for a, b in zip(u, v))
            product[key] = product.get(key, 0) + cu * cv
    w = ws[:nvars]
    assert _weighted_order(Poly(names, product), w) == _weighted_order(f, w) + _weighted_order(g, w)


# --- weighted orders and the weighted profile ---------------------------------

def test_weighted_order_examples():
    f = parse_poly("x1^2 + x2^3", ["x1", "x2"])
    assert _weighted_order(f, (F(1), F(1))) == 2
    assert _weighted_order(f, (F(3), F(2))) == 6
    g = parse_poly("x1^2*x2", ["x1", "x2"])
    assert _weighted_order(g, (F(1, 2), F(1))) == 2
    # summed in integers over the common denominator 6: one Fraction, in lowest terms
    order = _weighted_order(parse_poly("x1^2 + x1*x2^2", ["x1", "x2"]), (F(1, 2), F(2, 3)))
    assert type(order) is Fraction and (order.numerator, order.denominator) == (1, 1)


def test_weighted_order_rejects_zero():
    with pytest.raises(ValueError, match="input 1 is zero"):
        weighted_profile([Poly(["x1"], {})], [1])


def test_weighted_profile_checks_weights():
    cusp = parse_poly("x1^2 + x2^3", ["x1", "x2"])
    assert weighted_profile([cusp], [3, "2"]) == WeightedProfile((3, 2), (6,))
    with pytest.raises(ValueError, match="^3 weights but 2 variables$"):
        weighted_profile([cusp], [1, 1, 1])
    with pytest.raises(ValueError, match="^weights must be positive$"):
        weighted_profile([cusp], [1, 0])
    with pytest.raises(ValueError, match="^weights must be positive$"):
        weighted_profile([cusp], [F(-1, 2), 1])
    # no inputs is named as such, not as an empty order list
    with pytest.raises(ValueError, match="^need at least one polynomial$"):
        weighted_profile([], [1, 1])


@settings(max_examples=100, derandomize=True)
@given(polys(min_terms=1))
def test_homogeneous_implies_order_equals_degree(f):
    degrees = {sum(u) for u in f.terms}
    if len(degrees) == 1:
        assert _weighted_order(f, [F(1)] * len(f.variables)) == degrees.pop()


def test_cone_weighted_order_splits_over_blocks():
    # the weighted order of sum_j f_j * y_j is the least of wt(f_j) + wt(y_j)
    rng = random.Random(7)
    for _ in range(50):
        nvars = rng.randint(1, 3)
        names = _VARS[:nvars]
        r = rng.randint(1, 3)
        fs = []
        for _ in range(r):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 5) for _ in range(nvars))
                terms[exps] = F(rng.choice([-3, -1, 1, 2, 5]))
            fs.append(Poly(names, terms))
        cone = {}
        for j, f in enumerate(fs):
            block = tuple(int(k == j) for k in range(r))
            cone.update({u + block: c for u, c in f.terms.items()})
        g = Poly(names + tuple(f"y{j}" for j in range(1, r + 1)), cone)
        w = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(nvars)]
        eps = [F(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(r)]
        assert _weighted_order(g, w + eps) == min(
            _weighted_order(f, w) + e for f, e in zip(fs, eps)
        )


# --- transversality probe -----------------------------------------------------

def test_probe_smooth_hyperplane_passes():
    f = parse_poly("x1", ["x1", "x2"])
    report = probe_transversality([f], 3)
    assert report.verdict == "PASS"
    assert report.points_checked == 8


def test_probe_double_line_fails_genuinely():
    f = parse_poly("x1^2", ["x1", "x2"])
    report = probe_transversality([f], 3)
    assert report.verdict == "FAIL"
    witness = report.witness
    assert witness is not None
    assert witness.point[0] == 0 and any(witness.point)
    assert witness.vanishing == (1,)
    assert witness.genuine


def test_probe_smooth_quadric_passes():
    f = parse_poly("x1^2 + x2^2 + x3^2", ["x1", "x2", "x3"])
    report = probe_transversality([f], 5)
    assert report.verdict == "PASS"
    assert report.points_checked == 5**3 - 1


def test_probe_snc_pair_passes():
    fs = [parse_poly("x1", ["x1", "x2", "x3"]), parse_poly("x2", ["x1", "x2", "x3"])]
    assert probe_transversality(fs, 3).verdict == "PASS"


def test_probe_tangent_pair_fails():
    # both vanish along x1 = 0 with proportional gradients
    fs = [parse_poly("x1", ["x1", "x2"]), parse_poly("2*x1", ["x1", "x2"])]
    report = probe_transversality(fs, 5)
    assert report.verdict == "FAIL"
    assert report.witness.genuine


def test_probe_rejects_composite_field():
    f = parse_poly("x1", ["x1"])
    with pytest.raises(ValueError):
        probe_transversality([f], 9)


def test_probe_rejects_inhomogeneous():
    f = parse_poly("x1^2 + x1", ["x1"])
    with pytest.raises(ValueError, match="^input 1 is not homogeneous$"):
        probe_transversality([f], 3)


@pytest.mark.parametrize(
    "texts, names, message",
    [
        ([], None, "need at least one polynomial"),
        (["x1^2", "x2^2"], [["x1"], ["x1", "x2"]], "mismatched variable lists"),
        (["x1^2"], [[f"x{i}" for i in range(1, 7)]], "probe supports at most 5 variables, got 6"),
        (["x1^2", "x1 - x1"], [["x1", "x2"]] * 2, "input 2 is zero"),
    ],
    ids=["no_polynomial", "mismatched_variables", "six_variables", "zero_input"],
)
def test_probe_refusals(texts, names, message):
    fs = [parse_poly(text, variables) for text, variables in zip(texts, names or [])]
    with pytest.raises(ValueError, match=f"^{message}$"):
        probe_transversality(fs, 3)


def test_probe_budget_inconclusive():
    f = parse_poly("x1 + x2 + x3", ["x1", "x2", "x3"])
    report = probe_transversality([f], 5, limit=10)
    assert report.verdict == "INCONCLUSIVE"
    assert report.reason == "line budget exceeded: 31 lines > limit 10"  # (5^3 - 1)/4 lines, not 124 points
    # the limit bounds the (13^5 - 1)/12 = 30941 lines the scan decides, not the 371292 points
    fermat = parse_poly("x1^3 + x2^3 + x3^3 + x4^3 + x5^3", ["x1", "x2", "x3", "x4", "x5"])
    assert probe_transversality([fermat], 13, limit=30_941) == ProbeReport("PASS", 13, 13**5 - 1)
    assert probe_transversality([fermat], 13, limit=30_940).reason == "line budget exceeded: 30941 lines > limit 30940"


def test_probe_denominator_clash_inconclusive():
    f = parse_poly("1/3*x1^2", ["x1", "x2"])
    report = probe_transversality([f], 3)
    assert report.verdict == "INCONCLUSIVE"


def _random_form(rng, names, q):
    """A homogeneous form of degree 1..q+1 (so q | d occurs) with 1-4 terms;
    now and then a coefficient denominator is divisible by q."""
    degree = rng.randint(1, q + 1)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * len(names)
        for _ in range(degree):
            exps[rng.randrange(len(names))] += 1
        den = q if rng.random() < 0.02 else rng.choice([d for d in (1, 1, 1, 2, 3, 4) if d % q])
        terms[tuple(exps)] = F(rng.choice([c for c in range(-q, q + 1) if c]), den)
    return Poly(names, terms)


def test_probe_matches_affine_scan_oracle():
    # both oracles: every point of F_q^n, and the per-point scan of the lines
    rng = random.Random(5)
    shapes = [(q, n) for q in (2, 3, 5, 7, 11, 13) for n in range(1, 5) if q**n <= 30_000]
    shapes += [(q, 5) for q in (2, 3, 5)]  # five variables, the most a probe takes
    seen = {
        "PASS": 0, "INCONCLUSIVE": 0, "FAIL": 0, "several forms": 0, "leading zero": 0, "late": 0,
        "five variables": 0, "one variable": 0, "q = 13, four variables": 0,
        "last variable absent": 0, "last variable in every term": 0,
    }
    for _ in range(250):
        q, n = rng.choice(shapes)
        names = [f"x{i}" for i in range(1, n + 1)]
        fs = [_random_form(rng, names, q) for _ in range(rng.randint(1, 3))]
        if any(f.is_zero() for f in fs):
            continue
        limit = (q**n - 1) // (q - 1) - 1 if rng.random() < 0.1 else 100_000  # one line short, or the default
        if limit < 1:  # n = 1 is one line, and a budget below one line is rejected
            with pytest.raises(ValueError, match="limit must be at least 1"):
                probe_transversality(fs, q, limit)
            continue
        report = probe_transversality(fs, q, limit)
        assert report == probe_by_affine_scan(fs, q, limit), (fs, q, limit)
        assert report == probe_by_line_scan(fs, q, limit), (fs, q, limit)
        seen[report.verdict] += 1
        seen["five variables"] += n == 5
        seen["one variable"] += n == 1
        seen["q = 13, four variables"] += (q, n) == (13, 4)
        seen["last variable absent"] += n > 1 and any(all(u[-1] == 0 for u in f.terms) for f in fs)
        seen["last variable in every term"] += n > 1 and any(all(u[-1] for u in f.terms) for f in fs)
        if report.verdict == "FAIL":
            witness = report.witness
            seen["several forms"] += len(witness.vanishing) > 1
            seen["leading zero"] += witness.point[0] == 0
            seen["late"] += witness.point[0] != 0 and n > 1
    assert all(seen.values()), seen


def _forms(texts, names):
    return [parse_poly(text, names) for text in texts]


PREFIX_CASES = [
    # one variable: no free prefix, only the line of (1,)
    (["x1^2"], ["x1"], 3, "PASS", None, 2),
    (["3*x1"], ["x1"], 3, "FAIL", (1,), 1),  # zero mod 3, so singular at every point
    # the last variable absent from a form, and in every term of one
    (["x1^2 + x2^2"], ["x1", "x2", "x3"], 5, "FAIL", (0, 0, 1), 1),
    (["x1*x3 + x2*x3"], ["x1", "x2", "x3"], 5, "FAIL", (1, 4, 0), 45),
    (["x1*x3 - x2^2", "x3"], ["x1", "x2", "x3"], 7, "FAIL", (1, 0, 0), 49),
    # two forms vanishing at different last coordinates of the prefix (1,):
    # x2 - x1 at t = 1 (transverse), (x2 - 2*x1)^2 at t = 2 (singular)
    (["x2 - x1", "x2^2 - 4*x1*x2 + 4*x1^2"], ["x1", "x2"], 5, "FAIL", (1, 2), 7),
    (["x2 - x1", "x2 - 2*x1"], ["x1", "x2"], 5, "PASS", None, 24),
    # the first input vanishes at t = 9, the second at t = 1: (1, 1) comes first
    (["x2^2 - 18*x1*x2 + 81*x1^2", "x2^2 - 2*x1*x2 + x1^2"], ["x1", "x2"], 11, "FAIL", (1, 1), 12),
    # (0, ..., 0, 1): transverse on x1*(x1 + x2), singular on x1^2
    (["x1^2 + x1*x2"], ["x1", "x2"], 5, "PASS", None, 24),
    (["x1^2"], ["x1", "x2", "x3", "x4"], 3, "FAIL", (0, 0, 0, 1), 1),
    # singular only on the last line: (1, 4) of F_5^2, and (1, 2, 2) of F_3^3,
    # where the lines x2 = -x1 and x3 = -x1 of (x2 + x1)*(x3 + x1) meet
    (["x1^2 + 2*x1*x2 + x2^2"], ["x1", "x2"], 5, "FAIL", (1, 4), 9),
    (["x2*x3 + x1*x2 + x1*x3 + x1^2"], ["x1", "x2", "x3"], 3, "FAIL", (1, 2, 2), 17),
    # q = 2, and q = 13 with four variables
    (["x1*x2 + x3^2"], ["x1", "x2", "x3"], 2, "PASS", None, 7),
    (["x1^2 + x2^2 + x3^2 + x4^2"], ["x1", "x2", "x3", "x4"], 2, "FAIL", (0, 0, 1, 1), 3),
    (["x1^2 + x2^2 + x3^2 + x4^2", "x1 + 2*x2 + 3*x3 + 4*x4"], ["x1", "x2", "x3", "x4"], 13, "PASS", None, 13**4 - 1),
    (["x1^13 + x2^13 + x3^13 + x4^13"], ["x1", "x2", "x3", "x4"], 13, "FAIL", (0, 0, 1, 12), 25),
]


@pytest.mark.parametrize("texts, names, q, verdict, point, checked", PREFIX_CASES)
def test_probe_by_prefix_cases(texts, names, q, verdict, point, checked):
    fs = _forms(texts, names)
    report = probe_transversality(fs, q)
    assert report == probe_by_line_scan(fs, q) == probe_by_affine_scan(fs, q)
    assert report.verdict == verdict
    assert report.points_checked == checked
    assert (report.witness and report.witness.point) == point


def test_independence_check_matches_gauss_jordan(monkeypatch):
    # with one vanishing input the gradient is evaluated only up to its first
    # nonzero entry; the answer is the full row's Gauss-Jordan rank, on the
    # prefix cases and on random forms
    independent = poly._independent
    seen = Counter()

    def checked(grads, vanishing, point, q):
        answer = independent(grads, vanishing, point, q)
        rows = [[_eval_power_terms(gm, point, q) for gm in grads[i]] for i in vanishing]
        rank = rank_by_elimination(rows, lambda x: pow(x, -1, q), lambda x: x % q)
        assert answer == (rank == len(vanishing)), (point, vanishing)
        seen[len(vanishing) == 1, answer] += 1
        return answer

    monkeypatch.setattr(poly, "_independent", checked)
    cases = [(_forms(texts, names), q) for texts, names, q, *_ in PREFIX_CASES]
    rng = random.Random(7)
    for _ in range(60):
        q, n = rng.choice([(2, 3), (3, 3), (5, 2), (5, 3), (7, 2), (11, 2)])
        names = [f"x{i}" for i in range(1, n + 1)]
        cases.append(([_random_form(rng, names, q) for _ in range(rng.randint(1, 2))], q))
    for fs, q in cases:
        if not any(f.is_zero() for f in fs):
            probe_transversality(fs, q)
    assert set(seen) == {(True, True), (True, False), (False, True), (False, False)}, seen


def test_probe_by_prefix_inconclusive_cases():
    names = ["x1", "x2", "x3", "x4"]
    for fs, q, limit in [
        (_forms(["x1^2 + x2^2 + x3^2 + x4^2"], names), 13, 2379),  # 2380 lines: one over the limit
        (_forms(["x1^2 + x4^2", "1/13*x2*x3"], names), 13, 100_000),
    ]:
        report = probe_transversality(fs, q, limit)
        assert report.verdict == "INCONCLUSIVE"
        assert report == probe_by_line_scan(fs, q, limit) == probe_by_affine_scan(fs, q, limit)


_ENTRIES = st.integers(-6, 6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_ENTRIES, max_size=5), st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_rank_of_one_row_matches_gauss_jordan(row, q):
    # zero rows included: an empty row, and rows whose entries are all 0 or all q
    for entries in (row, [0] * len(row), [q] * len(row)):
        mod_row = [x % q for x in entries]
        fq = (lambda x: pow(x, -1, q), lambda x: x % q)
        assert _rank([mod_row], *fq) == rank_by_elimination([mod_row], *fq) == int(any(mod_row))
        rat_row = [F(x, 3) for x in entries]
        qq = (lambda x: 1 / x, lambda x: x)
        assert _rank([rat_row], *qq) == rank_by_elimination([rat_row], *qq) == int(any(rat_row))
    assert _rank([], *qq) == rank_by_elimination([], *qq) == 0

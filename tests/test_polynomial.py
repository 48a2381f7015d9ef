"""Polynomial layer tests.

Algebraic laws are property-based; printed forms and root splittings are
checked against hand-computed expectations (small enough to verify by eye).
"""

from collections import Counter
from datetime import timedelta
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from virlog.errors import DomainError, ParseError, SymbolError
from virlog.fusion import EulerOperator, LogSeries
from virlog.polynomial import (
    MultiPoly,
    UniPoly,
    accumulate,
    divexact_terms,
    rational_roots,
    sym,
)
from virlog.rational import parse_rational, render_rational
from virlog.virasoro import UEAElement
from virlog.wlog import LaurentField, WLogElement

from rational_roots_oracle import rational_roots_by_divisors

# -- rationals --------------------------------------------------------------


def test_parse_rational_accepts_integers_and_fractions():
    assert parse_rational("7") == 7
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational(" 10/ 4 ") == Fraction(5, 2)


@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "a", "1/0", "--2", "1/ "])
def test_parse_rational_rejects_non_rationals(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


@given(st.fractions())
def test_rational_roundtrip(q):
    assert parse_rational(render_rational(q)) == q


# -- MultiPoly --------------------------------------------------------------

fractions_s = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)


@st.composite
def mpolys(draw, vars=("c", "h"), max_terms=4, max_exp=3, min_terms=0):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vars))
    coeffs = fractions_s.filter(bool) if min_terms else fractions_s
    terms = draw(st.dictionaries(exps, coeffs, min_size=min_terms, max_size=max_terms))
    return MultiPoly(vars, terms)


# vars tuples (registry order) for drawing operands that often differ in vars
var_tuples = st.sampled_from([("c",), ("h",), ("c", "h"), ("h", "t"), ("c", "h", "t")])


def test_symbol_registry_is_enforced():
    with pytest.raises(SymbolError):
        MultiPoly.symbol("x")
    with pytest.raises(SymbolError):
        MultiPoly(("h", "c"), {})  # wrong order
    with pytest.raises(SymbolError):
        MultiPoly(("c",), {(-1,): Fraction(1)})


@given(mpolys(), mpolys(), mpolys())
def test_ring_laws(a, b, x):
    assert (a + b) * x == a * x + b * x
    assert a * b == b * a
    assert a + b == b + a
    assert (a - b) + b == a
    assert a * (b * x) == (a * b) * x


@given(mpolys())
def test_fraction_interop_reflects(p):
    half = Fraction(1, 2)
    assert half + p == p + half
    assert half * p == p * half
    assert half - p == -(p - half)


@given(st.data())
def test_divexact_inverts_multiplication(data):
    # operands on different vars tuples, e.g. (c,) and (h, t)
    a = data.draw(mpolys(data.draw(var_tuples)))
    b = data.draw(mpolys(data.draw(var_tuples)))
    if b.is_zero():
        return
    assert (a * b).divexact(b) == a


@given(
    mpolys(("c", "h", "t"), max_terms=12, max_exp=2, min_terms=8),
    mpolys(("c", "h", "t"), max_terms=12, max_exp=2, min_terms=8),
)
@settings(max_examples=40)
def test_divexact_three_vars_many_terms(a, b):
    # 8+ terms among 27 monomials: remainder keys cancel and come back
    assert (a * b).divexact(b) == a


def test_divexact_rejects_inexact():
    c, h = sym("c"), sym("h")
    with pytest.raises(DomainError):
        (c * c + 1).divexact(h)


@given(st.data())
def test_divexact_rejects_low_degree_remainder(data):
    # a*b + r = q*b would make r = (q - a)*b, of total degree >= deg b
    a = data.draw(mpolys(data.draw(var_tuples)))
    b = data.draw(mpolys(data.draw(var_tuples), min_terms=1))
    r = data.draw(mpolys(data.draw(var_tuples), min_terms=1))
    low = MultiPoly(r.vars, {e: q for e, q in r.terms.items() if sum(e) < max(map(sum, b.terms))})
    assume(not low.is_zero())
    with pytest.raises(DomainError):
        (a * b + low).divexact(b)


def test_divexact_terms_on_fractions():
    F = Fraction
    # 6c^2 + 4c = 2c * (3c + 2), quotient stays Fraction
    quot = divexact_terms({(2,): F(6), (1,): F(4)}, {(1,): F(2)})
    assert quot == {(1,): 3, (0,): 2}
    assert all(type(q) is Fraction for q in quot.values())
    # (3c + 3) / (2c + 2) and 3c / 2c are 3/2 over Q
    assert divexact_terms({(1,): F(3), (0,): F(3)}, {(1,): F(2), (0,): F(2)}) == {(0,): F(3, 2)}
    assert divexact_terms({(1,): F(3)}, {(1,): F(2)}) == {(0,): F(3, 2)}
    # c / (c + 1) and 3 / 2c leave a remainder
    with pytest.raises(DomainError):
        divexact_terms({(1,): F(1)}, {(1,): F(1), (0,): F(1)})
    with pytest.raises(DomainError):
        divexact_terms({(0,): F(3)}, {(1,): F(2)})


@given(st.data())
def test_results_are_canonical(data):
    # results are canonical (a validated rebuild changes nothing) and keep
    # Fraction coefficients
    a = data.draw(mpolys(data.draw(var_tuples)))
    b = data.draw(mpolys(data.draw(var_tuples)))
    q = data.draw(fractions_s)
    results = [a + b, a - b, -a, a * b, a * q, q * a, a - q, q - a,
               a.derivative("h"), a.derivative("t")]
    if not b.is_zero():
        results.append((a * b).divexact(b))
    for r in results:
        assert MultiPoly(r.vars, r.terms).terms == r.terms
        assert all(type(c) is Fraction for c in r.terms.values())


@given(mpolys(), mpolys())
def test_derivative_product_rule(a, b):
    lhs = (a * b).derivative("h")
    rhs = a.derivative("h") * b + a * b.derivative("h")
    assert lhs == rhs


@given(mpolys(), fractions_s, fractions_s)
def test_evaluate_is_homomorphic(p, cv, hv):
    q = p * p + 3 * p - Fraction(1, 2)
    pv = p.evaluate({"c": cv, "h": hv})
    assert q.evaluate({"c": cv, "h": hv}) == pv * pv + 3 * pv - Fraction(1, 2)


def test_subs_partial_keeps_symbols():
    c, h = sym("c"), sym("h")
    p = c * h + h * h
    out = p.subs({"c": Fraction(2)})
    assert out == 2 * h + h * h


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2)), max_size=12))
def test_accumulate_sums_and_drops_zeros(pairs):
    # few keys and small values, so sums cancel and keys come back after;
    # the sums keep the type of the coefficients
    want = {}
    for key, value in pairs:
        want[key] = want.get(key, 0) + value
    want = {key: value for key, value in want.items() if value}
    got = accumulate((key, Fraction(value)) for key, value in pairs)
    assert got == want and all(type(q) is Fraction for q in got.values())
    got = accumulate(pairs)
    assert got == want and all(type(q) is int for q in got.values())


# Two elements of each Combination subclass; a + b cancels a term of a.
COMBINATIONS = [
    (
        LaurentField({(2, 3): 1, (-1, 0): Fraction(-1, 2)}),
        LaurentField({(-1, 0): Fraction(1, 2), (0, Fraction(1, 3)): 4}),
    ),
    (
        EulerOperator({(0, 2): 1, (1, 1): Fraction(3, 2)}),
        EulerOperator({(1, 1): Fraction(-3, 2), (2, 0): sym("b")}),
    ),
    (
        LogSeries({(Fraction(3, 4), 1): Fraction(1, 3) * sym("b"), (0, 0): Fraction(2)}),
        LogSeries({(Fraction(3, 4), 1): Fraction(-1, 3) * sym("b"), (Fraction(-5, 4), 0): 1}),
    ),
    (
        UEAElement.from_word((-1, -2)),  # L(-2)L(-1) + L(-3)
        UEAElement({((-3,), 0): Fraction(-1), ((), 1): sym("c")}),
    ),
    (
        WLogElement({(0, 1): 1, (1, -1): Fraction(-1, 2)}, Fraction(3)),
        WLogElement({(1, -1): Fraction(1, 2), (2, 0): sym("c")}, Fraction(-3)),
    ),
]


@pytest.mark.parametrize(
    "a, b", COMBINATIONS, ids=[type(a).__name__ for a, _ in COMBINATIONS]
)
def test_combination_vector_space(a, b):
    other = next(x for x, _ in COMBINATIONS if type(x) is not type(a))
    assert a + b - b == a
    assert (-a + a).is_zero()
    assert a.scale(0).is_zero()
    assert len((a + b).terms) < len(a.terms) + len(b.terms)
    for result in (a + b, a - b, b - a, -a, a.scale(Fraction(-2, 3)), a.scale(0)):
        assert type(result) is type(a)
        assert all(result.terms.values())
    assert (a == other) is False
    assert (a == Fraction(1)) is False
    with pytest.raises(TypeError):
        a + other
    with pytest.raises(TypeError):
        a - other


def test_render_graded_lex():
    c, h = sym("c"), sym("h")
    p = h * h + c * h + c * c
    assert p.render() == "c^2 + c*h + h^2"
    q = 2 * h * h - h + Fraction(1, 3)
    assert q.render() == "2*h^2 - h + 1/3"
    assert MultiPoly.const(0).render() == "0"
    assert (-h).render() == "-h"


@given(mpolys())
def test_mpoly_json_roundtrip(p):
    assert MultiPoly.from_json(p.to_json()) == p


def test_eq_and_hash_ignore_padding_vars():
    padded = MultiPoly(("c", "h"), {(0, 1): Fraction(1)})
    assert padded == sym("h")
    assert hash(padded) == hash(sym("h"))
    const = MultiPoly(("c",), {(0,): Fraction(5, 2)})
    assert const == Fraction(5, 2)
    assert hash(const) == hash(Fraction(5, 2))


# -- UniPoly ----------------------------------------------------------------


@st.composite
def unipolys(draw, var="s", max_deg=5):
    deg = draw(st.integers(-1, max_deg))
    coeffs = [draw(fractions_s) for _ in range(deg + 1)]
    return UniPoly(var, coeffs)


def test_rational_roots_with_residual():
    x = UniPoly.x("s")
    p = 6 * (x - Fraction(1, 2)) ** 2 * (x + 3) * x * (x * x + 1)
    roots, residual = rational_roots(p)
    assert roots == [
        (Fraction(-3), 1),
        (Fraction(0), 1),
        (Fraction(1, 2), 2),
    ]
    assert residual == x * x + 1
    rebuilt = UniPoly.const("s", 6) * residual
    for r, m in roots:
        rebuilt = rebuilt * (x - r) ** m
    assert rebuilt == p


def test_rational_root_next_to_an_irrational_one():
    # -sqrt(7/2) ends in an interval holding no k/2, just right of the root -2
    x = UniPoly.x("s")
    roots, residual = rational_roots((x + 2) * (2 * x * x - 7))
    assert roots == [(Fraction(-2), 1)]
    assert residual == x * x - Fraction(7, 2)


@given(unipolys())
def test_rational_roots_reconstruction(p):
    if p.is_zero():
        return
    roots, residual = rational_roots(p)
    rebuilt = UniPoly.const(p.var, p.leading()) * residual
    x = UniPoly.x(p.var)
    for r, m in roots:
        rebuilt = rebuilt * (x - r) ** m
    assert rebuilt == p
    for r, _ in roots:
        assert residual.evaluate(r) != 0


@st.composite
def rooted_unipolys(draw):
    """A constant times up to three rational linear factors, with
    multiplicity, times a small factor that may have rational roots too."""
    x = UniPoly.x("s")
    p = UniPoly.const("s", draw(fractions_s.filter(bool)))
    for _ in range(draw(st.integers(0, 3))):
        root = draw(st.fractions(min_value=-12, max_value=12, max_denominator=5))
        p = p * (x - root) ** draw(st.integers(1, 2))
    rest = draw(unipolys(max_deg=3))
    return p if rest.is_zero() else p * rest


# every prime of a root's numerator (at most 60) or denominator (at most
# 5) or of the rest's coefficients cleared of denominators (at most 600)
PRIMES_BELOW_600 = [q for q in range(2, 600) if all(q % r for r in range(2, isqrt(q) + 1))]


# the oracle's time, not the tested code's, varies with the draw
@settings(max_examples=200, deadline=None)
@given(rooted_unipolys())
def test_rational_roots_match_divisor_enumeration(p):
    roots, residual = rational_roots(p)
    want_roots, want_residual = rational_roots_by_divisors(p, PRIMES_BELOW_600)
    assert roots == want_roots
    assert residual.coeffs == want_residual.coeffs


ROOTLESS = [UniPoly("s", cs) for cs in ([7], [1, 0, 1], [-2, 0, 1], [-5, 0, 3], [-2, 0, 0, 1],
                                        [1, 0, -10, 0, 1])]
huge = st.integers(10**19, 10**40)


# divisor enumeration would take of the order of 10^10 steps per example
@settings(max_examples=50, deadline=timedelta(seconds=2))
@given(st.lists(st.tuples(huge, huge, st.booleans()), min_size=1, max_size=4),
       st.sampled_from(ROOTLESS))
def test_rational_roots_with_huge_coefficients(factors, rootless):
    p, want = rootless, Counter()
    for a, b, negative in factors:
        a = -a if negative else a
        p = p * UniPoly("s", (-a, b))  # b s - a
        want[Fraction(a, b)] += 1
    roots, residual = rational_roots(p)
    assert roots == sorted(want.items())
    assert residual == rootless.monic()


@st.composite
def close_rooted_unipolys(draw):
    """8 to 12 distinct roots k / d with one shared denominator d <= 10 and
    numerators |k| <= 9, up to three of them doubled, times a rootless
    factor: each rational root found deflates g before the next one is
    refined."""
    x = UniPoly.x("s")
    d = draw(st.integers(2, 10))
    numerators = draw(st.lists(st.integers(-9, 9).filter(bool), min_size=8, max_size=12,
                               unique=True))
    doubled = draw(st.sets(st.sampled_from(numerators), min_size=1, max_size=3))
    p = draw(st.sampled_from(ROOTLESS))
    for k in numerators:
        p = p * (x - Fraction(k, d)) ** (2 if k in doubled else 1)
    return p


# the numerators, d and the rootless factors' end coefficients are
# products of these primes
@settings(max_examples=25, deadline=None)
@given(close_rooted_unipolys())
def test_rational_roots_of_close_roots_match_divisor_enumeration(p):
    roots, residual = rational_roots(p)
    want_roots, want_residual = rational_roots_by_divisors(p, (2, 3, 5, 7))
    assert roots == want_roots
    assert residual.coeffs == want_residual.coeffs


@pytest.mark.parametrize("p", [
    UniPoly("s", (-1, 3)) * UniPoly("s", (2, 5)),
    UniPoly("s", (-1, 3)) ** 2 * UniPoly("s", (2, 5)) ** 3 * UniPoly("s", (7, 0, 1)),
    UniPoly("s", (-10**6, 1001)) * UniPoly("s", (-(10**6 + 1), 1001)),
])
def test_rational_roots_when_the_deflated_g_is_linear(p):
    # after the first root is divided out, the second is refined on a linear g;
    # 10^6 + 1 = 101 * 9901 and 1001 = 7 * 11 * 13
    roots, residual = rational_roots(p)
    want_roots, want_residual = rational_roots_by_divisors(p, (2, 3, 5, 7, 11, 13, 101, 9901))
    assert roots == want_roots
    assert residual.coeffs == want_residual.coeffs


def test_rational_roots_of_many_close_roots_with_a_large_denominator():
    x, d = UniPoly.x("s"), 10**6 + 1
    want = [Fraction(10**12 + k, d) for k in range(12)]
    p = UniPoly("s", (-2, 0, 1))
    for r in want:
        p = p * (x - r)
    roots, residual = rational_roots(p)
    assert roots == [(r, 1) for r in want]
    assert residual == UniPoly("s", (-2, 0, 1))


def test_unipoly_symbolic_coefficients():
    h = sym("h")
    p = UniPoly("s", [h * 2, Fraction(1)])
    assert p.evaluate(Fraction(3)) == 2 * h + 3
    with pytest.raises(DomainError):
        rational_roots(p)


def test_unipoly_converts_only_other_coefficients():
    q, h = Fraction(3, 4), sym("h")
    p = UniPoly("s", [2, q, h, "1/2"])
    assert p.coeffs[1] is q and p.coeffs[2] is h
    assert [type(c) for c in p.coeffs] == [Fraction, Fraction, MultiPoly, Fraction]
    assert p.coeffs[0] == 2 and p.coeffs[3] == Fraction(1, 2)


@given(unipolys())
def test_unipoly_json_roundtrip(p):
    assert UniPoly.from_json(p.to_json()) == p

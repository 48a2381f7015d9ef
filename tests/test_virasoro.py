"""Enveloping-algebra layer tests.

Bracket values and normal orderings are checked against hand-computed
expansions; structural laws (Jacobi, anti-involution) run over exhaustive
small ranges.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from virlog.virasoro import UEAElement, straighten_word


def L(n):
    return UEAElement.generator(n)


def word(*modes):
    return UEAElement.from_word(modes)


def test_bracket_examples():
    assert L(1).bracket(L(-1)) == word(0).scale(2)
    # (2^3 - 2)/12 = 1/2 central contribution
    assert L(2).bracket(L(-2)) == word(0).scale(4) + UEAElement.central().scale(
        Fraction(1, 2)
    )
    assert UEAElement.central().bracket(L(5)).is_zero()


def test_normal_order_examples():
    assert word(1, -1) == word(-1, 1) + word(0).scale(2)
    assert word(2, -2) == word(-2, 2) + word(0).scale(4) + UEAElement.central().scale(
        Fraction(1, 2)
    )
    assert word(1, -1, -1) == word(-1, -1, 1) + word(-1, 0).scale(4) + word(-1).scale(2)


def test_canonical_words_sorted():
    for (w, _p) in word(3, -2, 0, -5, 1).terms:
        assert list(w) == sorted(w)


def test_degree_preserved_by_straightening():
    for w in [(1, -1), (2, -2, 1), (3, -1, -2), (-2, 5, -3, 0)]:
        d = -sum(w)
        for (out_word, _p) in straighten_word(w):
            assert -sum(out_word) == d


def test_jacobi_identity_exhaustive():
    rng = range(-6, 7)
    gens = {m: L(m) for m in rng}
    for m in rng:
        for n in rng:
            assert gens[m].bracket(gens[n]) == -(gens[n].bracket(gens[m]))
            for p in rng:
                a, b, c = gens[m], gens[n], gens[p]
                total = (
                    a.bracket(b).bracket(c)
                    + b.bracket(c).bracket(a)
                    + c.bracket(a).bracket(b)
                )
                assert total.is_zero(), (m, n, p)


modes_s = st.integers(-4, 4)
words_s = st.lists(modes_s, min_size=0, max_size=3).map(tuple)


@st.composite
def elements(draw):
    out = UEAElement()
    for _ in range(draw(st.integers(0, 3))):
        w = draw(words_s)
        coeff = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
        out = out + UEAElement.from_word(w, coeff)
    return out


@given(elements(), elements())
@settings(max_examples=50)
def test_product_respects_canonical_form(a, b):
    ab = a * b
    for (w, _p) in ab.terms:
        assert list(w) == sorted(w)
    # multiplying by an already-canonical factor changes nothing
    assert ab == a * b


@given(elements(), elements(), elements())
@settings(max_examples=40)
def test_associativity_and_linearity(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_transpose_on_generators():
    assert L(3).transpose() == L(-3)
    assert L(0).transpose() == L(0)
    assert UEAElement.central().transpose() == UEAElement.central()


@given(words_s, words_s)
@settings(max_examples=60)
def test_transpose_antihomomorphism(w1, w2):
    a, b = UEAElement.from_word(w1), UEAElement.from_word(w2)
    assert (a * b).transpose() == b.transpose() * a.transpose()


@given(elements())
@settings(max_examples=50)
def test_transpose_is_involution(e):
    assert e.transpose().transpose() == e


def test_transpose_word_example():
    # L(-1)L(-2) -> L(2)L(1), then canonicalized
    lhs = word(-1, -2).transpose()
    assert lhs == word(2, 1) == word(1, 2) + L(3)


def test_render_groups_repeats():
    assert word(-2, -1, -1).render() == "L(-2)L(-1)^2"
    assert UEAElement.one().render() == "1"
    assert UEAElement().render() == "0"


@given(elements())
@settings(max_examples=40)
def test_uea_json_roundtrip(e):
    assert UEAElement.from_json(e.to_json()) == e

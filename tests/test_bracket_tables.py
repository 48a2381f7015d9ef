"""The memoized brackets against their product and per-generator routes.

UEAElement.bracket sums over a table of word commutators and wlog_bracket
over one generator kernel with a cocycle memo.  These tests hold both to
the routes in tests/bracket_oracles.py on random elements, check that the
cocycle memo keys on the cocycle and never stores a failure, and check
that no memo table is handed out as the terms of a result.

Both brackets sum integral coefficients as ints.  An int that leaked into
a result would compare and print like the Fraction it stands for, so the
comparisons also check the type of every coefficient.  The last test holds
the memos to their entry counts after the benchmark's Jacobi triples: the
int cores add no table and no entry.
"""

import functools
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from virlog import virasoro, wlog
from virlog.errors import DomainError
from virlog.polynomial import MultiPoly, sym
from virlog.virasoro import UEAElement
from virlog.wlog import WLogElement, wlog_bracket

from bracket_oracles import bilinear_bracket, generator_bracket, product_bracket

MODES = ("none", "closed", "residue")

fractions_s = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


@st.composite
def coeffs(draw):
    """A nonzero Fraction, or a polynomial in c and h with such a factor."""
    q = draw(fractions_s)
    shape = draw(st.sampled_from(["q", "q*c", "q+h", "q*c*h", "c-q"]))
    return {
        "q": q,
        "q*c": sym("c") * q,
        "q+h": sym("h") + q,
        "q*c*h": sym("c") * sym("h") * q,
        "c-q": sym("c") - q,
    }[shape]


# -- Virasoro ---------------------------------------------------------------


@st.composite
def uea_elements(draw):
    """Up to three raw words of modes -4..4 (the empty word included), each
    with a central power 0-2; the constructor straightens them."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        word = tuple(draw(st.lists(st.integers(-4, 4), max_size=3)))
        terms[(word, draw(st.integers(0, 2)))] = draw(coeffs())
    return UEAElement(terms)


def _assert_same(got, want):
    assert got == want
    assert got.render() == want.render()
    # an int left in got would pass both checks above
    for key, c in got.terms.items():
        assert type(c) in (Fraction, MultiPoly), (key, c, type(c))


@given(uea_elements(), uea_elements())
@settings(max_examples=300, deadline=None)
@example(UEAElement.central(), UEAElement.generator(3))
@example(UEAElement.one().scale(sym("c")), UEAElement.from_word((2, -2), cpow=2))
@example(UEAElement.from_word((1, -1), sym("h"), 1), UEAElement.from_word((-1, 0), cpow=2))
@example(UEAElement(), UEAElement.generator(1))
def test_uea_bracket_matches_product_route(a, b):
    _assert_same(a.bracket(b), product_bracket(a, b))


def test_uea_bracket_of_generators_and_central():
    L = UEAElement.generator
    for m in range(-6, 7):
        for n in range(-6, 7):
            _assert_same(L(m).bracket(L(n)), product_bracket(L(m), L(n)))
    C = UEAElement.central()
    assert C.bracket(L(2)).is_zero() and L(2).bracket(C).is_zero()
    assert virasoro._word_commutator((), (2,)) == {}


# -- logarithmic Witt algebra ----------------------------------------------

generators_s = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def wlog_elements(draw):
    """Up to three generators with |i|, |m| <= 3, and maybe a central term."""
    terms = {draw(generators_s): draw(coeffs()) for _ in range(draw(st.integers(0, 3)))}
    central = draw(st.one_of(st.just(Fraction(0)), coeffs()))
    return WLogElement(terms, central)


def _outcome(fn, *args):
    """fn(*args), or DomainError if it raised one."""
    try:
        return fn(*args)
    except DomainError:
        return DomainError


@given(wlog_elements(), wlog_elements(), st.sampled_from(MODES))
@settings(max_examples=300, deadline=None)
@example(
    WLogElement({(-1, 2): Fraction(1), (0, 1): sym("c")}, Fraction(7)),
    WLogElement({(1, -2): Fraction(1, 2)}, sym("h")),
    "residue",
)
@example(WLogElement({(2, 1): Fraction(1)}), WLogElement({(0, -1): Fraction(1)}), "closed")
@example(WLogElement({(2, 1): Fraction(1)}), WLogElement({}, Fraction(3)), "closed")
def test_wlog_element_bracket_matches_bilinear_sum(x, y, mode):
    got = _outcome(wlog_bracket, x, y, mode)
    want = _outcome(bilinear_bracket, x, y, mode)
    if want is DomainError:
        assert got is DomainError
        # a failure is not remembered: the same call fails again
        assert _outcome(wlog_bracket, x, y, mode) is DomainError
    else:
        _assert_same(got, want)


@pytest.mark.parametrize("mode", MODES)
def test_wlog_generator_bracket_matches_formula(mode):
    gens = [(i, m) for i in range(-3, 4) for m in range(-3, 4)] + [wlog.CENTRAL]
    for a in gens:
        for b in gens:
            got = _outcome(wlog_bracket, a, b, mode)
            want = _outcome(generator_bracket, a, b, mode)
            if want is DomainError:
                assert got is DomainError, (a, b)
            else:
                _assert_same(got, want)


def test_closed_cocycle_failure_is_not_cached(monkeypatch):
    monkeypatch.setattr(wlog, "_COCYCLE_MEMO", {})
    above = WLogElement({(0, 1): Fraction(1), (2, 0): Fraction(1)})
    for _ in range(2):
        with pytest.raises(DomainError, match="log index above 1"):
            wlog_bracket((2, 0), (0, 1), "closed")
        with pytest.raises(DomainError, match="log index above 1"):
            wlog_bracket(above, WLogElement.generator(1, -1), "closed")
    # the pair inside the domain that came first is kept, nothing else
    assert list(wlog._COCYCLE_MEMO.values()) == [Fraction(0)]
    assert all(isinstance(v, Fraction) for v in wlog._COCYCLE_MEMO.values())


# -- memo keys and ownership ------------------------------------------------


def test_cocycle_memo_keys_on_the_cocycle(monkeypatch):
    pair = ((-1, 2), (1, -2))
    elems = tuple(WLogElement.generator(*g) for g in pair)
    monkeypatch.setattr(wlog, "_COCYCLE_MEMO", {})
    warm = {mode: (wlog_bracket(*pair, mode), wlog_bracket(*elems, mode)) for mode in MODES}
    for mode in MODES:
        monkeypatch.setattr(wlog, "_COCYCLE_MEMO", {})
        assert warm[mode] == (wlog_bracket(*pair, mode), wlog_bracket(*elems, mode))
    # the three cocycles differ on this pair, so a memo blind to the
    # cocycle would have returned the first value three times
    assert [warm[mode][0].central for mode in MODES] == [0, 1, -1]


def test_results_do_not_share_memo_tables():
    L = UEAElement.generator
    for a, b in [(L(2), L(-2)), (L(1), L(-1)), (UEAElement.from_word((1, -1)), L(0))]:
        want = product_bracket(a, b)
        a.bracket(b).terms.clear()
        _assert_same(a.bracket(b), want)
    g, h = (-1, 2), (1, -2)
    x, y = WLogElement.generator(*g), WLogElement.generator(*h, Fraction(1, 2))
    for mode in MODES:
        want = (generator_bracket(g, h, mode), bilinear_bracket(x, y, mode))
        wlog_bracket(g, h, mode).terms.clear()
        wlog_bracket(x, y, mode).terms.clear()
        assert (wlog_bracket(g, h, mode), wlog_bracket(x, y, mode)) == want


def _module_tables(module):
    """Names of the module-level dicts, lists, sets and lru caches."""
    return {
        name
        for name, value in vars(module).items()
        if not name.startswith("__")
        and isinstance(value, (dict, list, set, functools._lru_cache_wrapper))
    }


def test_memos_keep_their_sizes_after_the_benchmark_jacobi_triples(monkeypatch):
    for module, memo in [
        (wlog, "_COCYCLE_MEMO"),
        (virasoro, "_COMMUTATOR_MEMO"),
        (virasoro, "_STRAIGHTEN_MEMO"),
    ]:
        monkeypatch.setattr(module, memo, {})
    # the wlog-scan workload's Jacobi jobs: wlog generators with |i|, |m| <= 2
    # under the residue cocycle, and Virasoro generators of modes -6..6
    gens = [(i, m) for i in range(-2, 3) for m in range(-2, 3)]
    for x, y, z in combinations_with_replacement(gens, 3):
        ex, ey, ez = (WLogElement.generator(*g) for g in (x, y, z))
        total = (
            wlog_bracket(wlog_bracket(x, y, "residue"), ez, "residue")
            + wlog_bracket(wlog_bracket(y, z, "residue"), ex, "residue")
            + wlog_bracket(wlog_bracket(z, x, "residue"), ey, "residue")
        )
        assert total.is_zero()
    L = [UEAElement.generator(m) for m in range(-6, 7)]
    for a in L:
        for b in L:
            for c in L:
                total = a.bracket(b).bracket(c) + b.bracket(c).bracket(a) + c.bracket(a).bracket(b)
                assert total.is_zero()

    assert len(wlog._COCYCLE_MEMO) == 1925
    assert len(virasoro._COMMUTATOR_MEMO) == 312
    assert len(virasoro._STRAIGHTEN_MEMO) == 465
    assert all(type(v) is Fraction for v in wlog._COCYCLE_MEMO.values())
    assert all(
        type(q) is Fraction for table in virasoro._STRAIGHTEN_MEMO.values() for q in table.values()
    )
    assert _module_tables(wlog) == {"_COCYCLES", "_COCYCLE_MEMO"}
    assert _module_tables(virasoro) == {"_STRAIGHTEN_MEMO", "_COMMUTATOR_MEMO"}

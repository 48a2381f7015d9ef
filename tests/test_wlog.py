"""Log-Witt algebra: bracket, cocycles, involution, vacuum pairings."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from virlog import wlog
from virlog.errors import DomainError
from virlog.polynomial import sym
from virlog.wlog import (
    CENTRAL,
    LaurentField,
    WLogElement,
    antiinvolution,
    antiinvolution_word,
    check_jacobi,
    cocycle_closed_form,
    cocycle_residue,
    vacuum_expectation,
    wlog_bracket,
    wlog_deviations,
    wlog_pairing,
)

from bracket_oracles import closed_form_by_fractions, jacobi_by_elements

B = sym("b")


def gen(i, m, coeff=F(1)):
    return WLogElement.generator(i, m, coeff)


# -- bracket ----------------------------------------------------------------


def test_horizontal_family_is_plain_witt():
    # i = j = 0 kills the shifted term, leaving (m-n) t^(0)(m+n)
    for m in range(-3, 4):
        for n in range(-3, 4):
            got = wlog_bracket((0, m), (0, n))
            if m == n:
                assert got.is_zero()
            else:
                assert got == gen(0, m + n, F(m - n))


def test_bracket_example_all_cocycle_modes():
    plain = wlog_bracket((-1, 2), (1, -2), "none")
    assert plain.terms == {(0, 0): F(4), (-1, 0): F(2)}
    assert plain.central == 0
    assert wlog_bracket((-1, 2), (1, -2), "residue").central == F(-1)
    assert wlog_bracket((-1, 2), (1, -2), "closed").central == F(1)
    # m == n and i == j drop both generator terms, and a zero cocycle value
    # drops the central one: no zero coefficient is stored
    assert wlog_bracket((1, 2), (1, 2), "residue").terms == {}
    assert wlog_bracket((0, 1), (2, 1), "residue").terms == {(1, 2): F(2)}


def test_bracket_self_and_antisymmetry():
    gens = [(i, m) for i in range(-3, 4) for m in range(-3, 4)]
    for g1 in gens:
        assert wlog_bracket(g1, g1, "residue").is_zero()
    for g1 in gens:
        for g2 in gens:
            fwd = wlog_bracket(g1, g2, "residue")
            bwd = wlog_bracket(g2, g1, "residue")
            assert (fwd + bwd).is_zero()


def test_closed_form_antisymmetry_within_domain():
    gens = [(i, m) for i in range(-4, 2) for m in range(-4, 5)]
    for g1 in gens:
        for g2 in gens:
            assert cocycle_closed_form(g1, g2) == -cocycle_closed_form(g2, g1)


def test_bracket_is_bilinear_on_elements():
    x = gen(-1, 2) + gen(0, 1, F(3))
    y = gen(1, -2, F(1, 2)) + WLogElement(central=F(7))
    got = wlog_bracket(x, y, "residue")
    want = (
        wlog_bracket((-1, 2), (1, -2), "residue").scale(F(1, 2))
        + wlog_bracket((0, 1), (1, -2), "residue").scale(F(3, 2))
    )
    assert got == want


def test_central_generator_brackets_to_zero():
    assert wlog_bracket(CENTRAL, (2, 5), "residue").is_zero()
    assert wlog_bracket((2, 5), CENTRAL, "residue").is_zero()


def test_bracket_rejects_bad_generators():
    with pytest.raises(DomainError):
        wlog_bracket((F(1, 2), 0), (0, 0))
    with pytest.raises(DomainError):
        wlog_bracket("q", (0, 0))


# -- cocycles ---------------------------------------------------------------


def test_closed_form_fixture_value():
    assert cocycle_closed_form((-1, 2), (0, -2)) == F(2, 3)
    assert cocycle_closed_form((0, -2), (-1, 2)) == F(-2, 3)


def test_closed_form_horizontal_vanishes():
    for m in range(-5, 6):
        for n in range(-5, 6):
            assert cocycle_closed_form((0, m), (0, n)) == 0


def _value_or_error(fn, a, b):
    try:
        return fn(a, b)
    except DomainError as exc:
        return ("DomainError", str(exc))


def test_closed_form_matches_fraction_sum():
    # the int sum over 12 (i+j)! against the term-by-term Fraction sum,
    # the refusals outside the domain included
    gens = [(i, m) for i in range(-6, 7) for m in range(-6, 7)]
    for a in gens:
        for b in gens:
            got = _value_or_error(cocycle_closed_form, a, b)
            assert got == _value_or_error(closed_form_by_fractions, a, b), (a, b)
            assert type(got) in (F, tuple)


def test_closed_form_domain_guard():
    with pytest.raises(DomainError, match="residue"):
        cocycle_closed_form((2, 0), (0, 0))
    with pytest.raises(DomainError, match="residue"):
        cocycle_closed_form((0, 1), (3, -1))
    # index exactly 1 is still inside
    cocycle_closed_form((1, 1), (1, -1))


def test_residue_fixture_values():
    assert cocycle_residue((-1, 2), (0, -2)) == F(-2, 3)
    assert cocycle_residue((-1, 2), (1, -2)) == F(-1)


def test_residue_virasoro_normalization():
    # vertical pairs t^(m+1), t^(1-m) reproduce (m^3 - m)/12
    for m in range(-5, 6):
        f = LaurentField({(m + 1, F(0)): F(1)})
        g = LaurentField({(1 - m, F(0)): F(1)})
        f3 = f.derivative().derivative().derivative()
        assert (f3 * g).residue() / 12 == F(m**3 - m, 12)
    f = LaurentField({(3, F(0)): F(1)})
    g = LaurentField({(-1, F(0)): F(1)})
    assert (f.derivative().derivative().derivative() * g).residue() / 12 == F(1, 2)


def _residue_by_fields(a, b):
    # the vector-field route: three derivatives, one product, one residue
    f = LaurentField.from_generator(a)
    g = LaurentField.from_generator(b)
    return (f.derivative().derivative().derivative() * g).residue() / 12


def _assert_closed_form_matches_fields(a, b):
    got = cocycle_residue(a, b)
    assert type(got) is F
    assert got == _residue_by_fields(a, b)


def test_residue_closed_form_matches_fields_on_grid():
    gens = [(i, m) for i in range(-4, 5) for m in range(-4, 5)]
    for a in gens:
        for b in gens:
            _assert_closed_form_matches_fields(a, b)


_INDEX = st.integers(-10, 10)


@given(_INDEX, _INDEX, _INDEX, _INDEX)
@settings(max_examples=300, deadline=None)
@example(-1, 2, 0, -2)  # s = 0, the flagship pair
@example(3, 0, -1, 0)  # s = 0, the vertical pair
@example(2, 5, -2, -5)  # s = 0, i + j = 0
@example(-4, 3, -3, -3)  # s = 0, i + j = -7: no t^(-1) term
@example(2, 1, 1, 4)  # i + j = 3: zero
@example(7, -3, 2, 3)  # i + j >= 3 with s = 0: zero
@example(-3, 2, -2, 1)  # both log indices negative
@example(-10, -10, -10, 9)  # both negative, top = 22
def test_residue_closed_form_matches_fields_sweep(i, m, j, n):
    _assert_closed_form_matches_fields((i, m), (j, n))


def test_residue_horizontal_vanishes():
    for m in range(-6, 7):
        for n in range(-6, 7):
            assert cocycle_residue((0, m), (0, n)) == 0


def test_residue_antisymmetry():
    gens = [(i, m) for i in range(-4, 5) for m in range(-4, 5)]
    for g1 in gens:
        for g2 in gens:
            assert cocycle_residue(g1, g2) == -cocycle_residue(g2, g1)


def test_cocycle_identity_residue_sample():
    rng = random.Random(20260822)
    gens = [(i, m) for i in range(-3, 4) for m in range(-3, 4)]

    def c_elem(e, z):
        total = F(0)
        for g, coeff in e.terms.items():
            total += coeff * cocycle_residue(g, z)
        return total

    for _ in range(60):
        x, y, z = (rng.choice(gens) for _ in range(3))
        total = (
            c_elem(wlog_bracket(x, y), z)
            + c_elem(wlog_bracket(y, z), x)
            + c_elem(wlog_bracket(z, x), y)
        )
        assert total == 0


def test_jacobi_scan_bound_two_all_modes():
    for mode in ("none", "residue", "closed"):
        report = check_jacobi(2, mode)
        assert report["violations"] == []
        assert report["checked"] > 0
    # closed mode must skip the pairs outside its domain, not fail on them
    assert check_jacobi(2, "closed")["skipped"] > 0
    assert check_jacobi(2, "residue")["skipped"] == 0


@pytest.mark.parametrize(
    "bound, mode",
    [(b, mode) for b in (1, 2) for mode in ("none", "closed", "residue")] + [(3, "residue")],
)
def test_jacobi_scan_matches_element_sums(bound, mode):
    assert check_jacobi(bound, mode) == jacobi_by_elements(bound, mode)


def test_jacobi_scan_reports_what_the_element_sums_report(monkeypatch):
    # a central term that is not a cocycle, with fractional values, and a
    # generator kernel that breaks the Jacobi identity: both scans must
    # flag the same triples
    monkeypatch.setattr(wlog, "_COCYCLE_MEMO", {})
    monkeypatch.setitem(
        wlog._COCYCLES, "skew", lambda a, b: F(a[1] ** 3 * b[0] - b[1] ** 3 * a[0], 5)
    )
    skew = check_jacobi(2, "skew")
    assert skew["violations"] and skew["skipped"] == 0
    assert skew == jacobi_by_elements(2, "skew")

    kernel = wlog._bracket_terms

    def broken(a, b, fn):
        # j - i off by one when i = 1 and n = 0
        top_key, top, low_key, low, central = kernel(a, b, fn)
        return top_key, top, low_key, low + (a[0] == 1 and b[1] == 0), central

    monkeypatch.setattr(wlog, "_bracket_terms", broken)
    for mode in ("none", "closed"):
        report = check_jacobi(2, mode)
        assert report["violations"]
        assert report == jacobi_by_elements(2, mode)


def test_jacobi_scan_skips_every_triple_under_an_unknown_cocycle():
    report = check_jacobi(1, "nope")
    assert (report["checked"], report["skipped"], report["violations"]) == (0, 165, [])
    assert report == jacobi_by_elements(1, "nope")


# -- realization ------------------------------------------------------------


def _field_of(element):
    total = LaurentField()
    for g, coeff in element.terms.items():
        total = total + LaurentField.from_generator(g).scale(coeff)
    return total


def test_vector_field_realization_transports_bracket():
    gens = [(i, m) for i in range(-3, 4) for m in range(-3, 4)]
    for g1 in gens:
        for g2 in gens:
            lie = _field_of(wlog_bracket(g1, g2, "none"))
            fields = LaurentField.from_generator(g1).bracket(
                LaurentField.from_generator(g2)
            )
            assert lie == fields


def test_laurent_field_arithmetic():
    f = LaurentField({(2, F(3)): F(1)})  # t^2 e^(3t)
    assert f.derivative() == LaurentField({(1, F(3)): F(2), (2, F(3)): F(3)})
    g = LaurentField({(-1, F(-3)): F(5)})
    assert f * g == LaurentField({(1, F(0)): F(5)})
    # product rule
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert lhs == rhs


def test_laurent_residues():
    assert LaurentField({(-1, F(0)): F(1)}).residue() == 1
    assert LaurentField({(0, F(0)): F(1)}).residue() == 0
    # t^-3 e^(2t): coefficient of t^-1 is 2^2/2!
    assert LaurentField({(-3, F(2)): F(1)}).residue() == 2
    assert LaurentField({(2, F(5)): F(1)}).residue() == 0
    assert LaurentField({(0, F(5)): F(1)}).residue() == 0


@pytest.mark.parametrize("i, m", [(0, 0), (1, -2), (-3, -2), (-1, 5), (2, 1)])
def test_laurent_from_generator_int_exponent(i, m):
    # from_generator keeps the exponent -m an int; as a key it equals and
    # hashes like Fraction(-m), so the field and its residues are the same
    f = LaurentField.from_generator((i, m))
    g = LaurentField({(i, F(-m)): 1})
    assert f == g
    assert f.residue() == g.residue()
    f3 = f.derivative().derivative().derivative()
    g3 = g.derivative().derivative().derivative()
    assert f3 == g3
    assert (f3 * f).residue() == (g3 * g).residue()


# -- deviations -------------------------------------------------------------


def test_deviations_report_shape_and_sign_flip():
    report = wlog_deviations(3)
    assert report, "the two cocycles are known to disagree"
    flagship = {
        "pair": [[-1, 2], [0, -2]],
        "closed": "2/3",
        "residue": "-2/3",
    }
    assert flagship in report
    for entry in report:
        assert set(entry) == {"pair", "closed", "residue"}
        # every recorded disagreement is the global sign flip
        assert F(entry["closed"]) == -F(entry["residue"])


# -- involution -------------------------------------------------------------


def test_antiinvolution_on_generators():
    assert antiinvolution((-1, -2)) == gen(-1, 2, F(-1))
    for m in range(-4, 5):
        assert antiinvolution((0, m)) == gen(0, -m)


def test_antiinvolution_is_an_involution():
    rng = random.Random(7)
    for _ in range(40):
        e = WLogElement(
            {
                (rng.randint(-4, 4), rng.randint(-4, 4)): F(rng.randint(-5, 5))
                for _ in range(3)
            },
            F(rng.randint(-3, 3)),
        )
        assert antiinvolution(antiinvolution(e)) == e


def test_antiinvolution_fixes_central():
    central = WLogElement(central=F(-5, 2))
    e = gen(1, 2, F(3)) + gen(2, -1) + central
    assert antiinvolution(e) == gen(1, -2, F(-3)) + gen(2, 1) + central
    assert antiinvolution(WLogElement(central=B)).central == B
    assert antiinvolution(CENTRAL) == WLogElement(central=F(1))


def test_antiinvolution_antiautomorphism_uncentered():
    gens = [(i, m) for i in range(-4, 5) for m in range(-4, 5)]
    for g1 in gens:
        for g2 in gens:
            lhs = antiinvolution(wlog_bracket(g1, g2, "none"))
            rhs = wlog_bracket(antiinvolution(g1), antiinvolution(g2), "none")
            # theta([x,y]) = [theta(y), theta(x)] = -[theta(x), theta(y)]
            assert lhs == rhs.scale(F(-1))


def test_antiinvolution_word_reverses_and_signs():
    sign, word = antiinvolution_word([(-1, -2), (0, 3), (1, 1)])
    assert sign == F(1)  # (-1)^(-1) * (-1)^0 * (-1)^1
    assert word == ((1, -1), (0, -3), (-1, 2))


# -- generation -------------------------------------------------------------


def _index_two(i_sign, m):
    # [t^(s)(p), t^(s)(q)] = (p-q) t^(2s)(p+q) exactly, no shifted term
    if m % 2 == 0:
        p, q = m // 2 + 1, m // 2 - 1
    else:
        p, q = (m + 1) // 2, (m - 1) // 2
    got = wlog_bracket((i_sign, p), (i_sign, q))
    return got.scale(F(1, p - q))


def test_generation_from_low_indices():
    # every |i| <= 3, |m| <= 3 generator is an explicit bracket combination
    # of index -1, 0, 1 modes
    for m in range(-3, 4):
        assert _index_two(1, m) == gen(2, m)
        assert _index_two(-1, m) == gen(-2, m)
        # [t^(1)(p), t^(2)(q)] = (p-q) t^(3)(m) + t^(2)(m); p - q = m + 4 > 0
        p, q = m + 2, -2
        lifted = wlog_bracket((1, p), (2, q)) - _index_two(1, m)
        assert lifted == gen(3, m, F(p - q))
        # two different splittings of [t^(-1), t^(-2)] share the junk term
        a1 = wlog_bracket((-1, m + 1), (-2, -1))
        a2 = wlog_bracket((-1, m + 2), (-2, -2))
        diff = a1 - a2
        assert diff == gen(-3, m, F((m + 2) - (m + 4)))


# -- vacuum expectation -----------------------------------------------------


def test_vev_base_cases():
    assert vacuum_expectation([]) == 1
    assert vacuum_expectation([(0, 2)]) == 0
    assert vacuum_expectation([(0, 0)]) == 0
    assert vacuum_expectation([(-1, -2)]) == 0  # surviving creation factor
    assert vacuum_expectation([CENTRAL]) == B
    assert vacuum_expectation([CENTRAL, CENTRAL]) == B * B


def test_vev_published_pairing_magnitude():
    got = wlog_pairing([(-1, -2)], [(0, -2)], "residue")
    assert got == F(2, 3) * B
    closed = wlog_pairing([(-1, -2)], [(0, -2)], "closed")
    assert closed == F(-2, 3) * B
    # magnitude (2/3) b under either cocycle orientation
    assert got * got == closed * closed == F(4, 9) * B * B


def test_vev_second_pairing_recorded_value():
    # the deviations ledger entry: this pairing computes to +/- b, not 0
    assert wlog_pairing([(-1, -2)], [(1, -2)], "residue") == B
    assert wlog_pairing([(-1, -2)], [(1, -2)], "closed") == -B


def test_vev_annihilating_suffix_order_independent():
    # factors that annihilate the vacuum (mode >= 0) can be permuted at the
    # tail of a word without changing the expectation
    rng = random.Random(11)
    annihilators = [(i, m) for i in range(-2, 3) for m in range(0, 4)]
    creators = [(i, m) for i in range(-2, 3) for m in range(-3, 0)]
    for _ in range(25):
        head = [rng.choice(creators) for _ in range(rng.randint(0, 2))]
        tail = [rng.choice(annihilators) for _ in range(3)]
        shuffled = list(tail)
        rng.shuffle(shuffled)
        assert vacuum_expectation(head + tail, "residue") == vacuum_expectation(
            head + shuffled, "residue"
        )


def test_vev_commutator_consistency():
    # vev(x y w) - vev(y x w) equals vev([x,y] w) whenever x annihilates and
    # y creates; that swap is where the engine pays brackets, so the identity
    # exercises its bilinear bookkeeping through deep recursion.  It cannot
    # hold for arbitrary x, y: the residue cocycle is nonzero on some pairs
    # that both annihilate the vacuum (e.g. modes 1 and 0 at indices 0, -1
    # give -1/12), so no word-level evaluation is a module action
    rng = random.Random(35)
    annihilators = [(i, m) for i in range(-2, 3) for m in range(0, 4)]
    creators = [(i, m) for i in range(-2, 3) for m in range(-3, 0)]
    gens = annihilators + creators
    for _ in range(50):
        x, y = rng.choice(annihilators), rng.choice(creators)
        tail = [rng.choice(gens) for _ in range(rng.randint(0, 2))]
        lhs = vacuum_expectation([x, y, *tail], "residue") - vacuum_expectation(
            [y, x, *tail], "residue"
        )
        bracket = wlog_bracket(x, y, "residue")
        # the central key CENTRAL is in bracket.terms too, and
        # vacuum_expectation([CENTRAL, *tail]) is b * vacuum_expectation(tail)
        rhs = 0
        for g, coeff in bracket.terms.items():
            rhs = rhs + coeff * vacuum_expectation([g, *tail], "residue")
        assert lhs == rhs


def test_vev_multifactor_value():
    # hand-traced through the reordering engine: only the chain
    # (0,2) -> [(0,2),(-1,-2)] -> -2b/3 paired against the -2b/3 from
    # (-1,2) through (0,-2) survives, with overall theta sign -1
    val = wlog_pairing([(-1, -2), (0, -2)], [(-1, -2), (0, -2)], "residue")
    assert val == F(-4, 9) * B * B
    assert vacuum_expectation([(0, 2), (0, -2)], "residue") == 0


# -- element plumbing -------------------------------------------------------


def test_element_render():
    e = wlog_bracket((-1, 2), (1, -2), "residue")
    assert e.render() == "2*t^(-1)(0) + 4*t^(0)(0) - b"
    assert WLogElement().render() == "0"
    assert gen(2, -1, F(-1, 3)).render() == "-1/3*t^(2)(-1)"


def test_element_json_roundtrip():
    e = wlog_bracket((-1, 2), (1, -2), "residue") + WLogElement(
        {(0, 1): F(5, 7) * B}
    )
    assert WLogElement.from_json(e.to_json()) == e


def test_element_scale_and_negation_reach_central():
    e = gen(0, 1, F(2)) + WLogElement(central=F(3))
    assert e.scale(F(-1, 3)) == gen(0, 1, F(-2, 3)) + WLogElement(central=F(-1))
    assert e.scale(B).central == 3 * B
    assert -e == gen(0, 1, F(-2)) + WLogElement(central=F(-3))
    assert (-e).central == -3 and (e - e).central == 0
    assert (e + -e).is_zero()


def test_element_rejects_central_key():
    with pytest.raises(DomainError):
        WLogElement({CENTRAL: F(1)})

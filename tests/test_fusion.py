"""Descent / indicial / resonance tests.

The three checked families (central charge 1, -2, 0) each pin the full
pipeline: singular vector, Euler operator, indicial polynomial, fusion
polynomial, root structure.  The indicial polynomial that fusion_indicial
reads from the words of a singular vector is checked against the one of
its composed Euler operator.  The resonance solver is verified by applying
the operator back to its output, and determine_b, which reads b from the
indicial polynomial, is held equal to that solve.
"""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virlog import fusion
from virlog.errors import DomainError
from virlog.fusion import (
    EulerOperator,
    IndicialData,
    LogSeries,
    descent_factor,
    descent_indicial,
    descent_operator,
    determine_b,
    fixture_polynomial,
    fusion_indicial,
    ope_level2_coefficient,
    solve_euler,
)
from virlog.modules import JordanVermaModule, ModuleVector, shapovalov_matrix, singular_vectors
from virlog.polynomial import MultiPoly, UniPoly, rational_roots, sym


def _roots_dict(data):
    return {r: m for r, m in data.roots}


# -- operator algebra -------------------------------------------------------


def test_descent_factor_values():
    assert descent_factor(1, Fraction(5, 8)) == EulerOperator({(0, 1): Fraction(-1)})
    assert descent_factor(2, Fraction(5, 8)) == EulerOperator(
        {(1, 1): Fraction(-1), (2, 0): Fraction(5, 8)}
    )


def test_descent_factor_rejects_bad_parts():
    for bad in (0, -1, Fraction(1, 2)):
        with pytest.raises(DomainError):
            descent_factor(bad, Fraction(1))


def test_compose_is_application_order():
    # d . x^-1 d  =  x^-1 d^2 - x^-2 d
    d = EulerOperator.monomial(0, 1)
    xd = EulerOperator.monomial(1, 1)
    assert d.compose(xd) == EulerOperator(
        {(1, 2): Fraction(1), (2, 1): Fraction(-1)}
    )


def _random_homogeneous(rng, weight):
    terms = {}
    for j in range(0, 4):
        if rng.random() < 0.6:
            terms[(weight - j, j)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    op = EulerOperator(terms)
    return op if not op.is_zero() else EulerOperator.monomial(weight, 0)


def test_compose_matches_sequential_application():
    rng = random.Random(7)
    for _ in range(25):
        a = _random_homogeneous(rng, rng.randint(-2, 3))
        b = _random_homogeneous(rng, rng.randint(-2, 3))
        series = LogSeries(
            {
                (Fraction(rng.randint(-8, 8), rng.randint(1, 4)), rng.randint(0, 2)):
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(3)
            }
        )
        assert a.compose(b).apply(series) == a.apply(b.apply(series))


def test_apply_is_linear():
    op = EulerOperator({(0, 2): Fraction(1), (1, 1): Fraction(1, 2)})
    s1 = LogSeries.monomial(Fraction(3, 4), 1, Fraction(2))
    s2 = LogSeries.monomial(Fraction(-1, 4), 0, Fraction(1, 3))
    assert op.apply(s1 + s2) == op.apply(s1) + op.apply(s2)


def test_inhomogeneous_operator_has_no_indicial():
    op = EulerOperator({(0, 1): Fraction(1), (0, 0): Fraction(1)})
    assert op.weight() is None
    with pytest.raises(DomainError):
        op.indicial()
    with pytest.raises(DomainError):
        op.apply(LogSeries.monomial(0))


def test_operator_render_and_json():
    mod = JordanVermaModule(Fraction(0), Fraction(5, 8))
    op = descent_operator(singular_vectors(mod, 2)[0], Fraction(5, 8))
    assert op.render() == "d^2 + 3/2*x^-1*d - 15/16*x^-2"
    assert EulerOperator.from_json(op.to_json()) == op


# -- the three checked families ---------------------------------------------


def test_family_c0_ordinary_fusion():
    data = fusion_indicial(Fraction(0), Fraction(5, 8), Fraction(5, 8))
    assert data.level == 2
    assert data.indicial == UniPoly(
        "s", (Fraction(-15, 16), Fraction(1, 2), Fraction(1))
    )
    assert data.fusion == UniPoly("h3", (0, -2, 1))
    assert _roots_dict(data) == {Fraction(0): 1, Fraction(2): 1}
    assert data.logarithmic is False
    assert sorted(r for r, _ in data.roots) == [0, 2]


def test_family_cminus2_logarithmic_fusion():
    data = fusion_indicial(Fraction(-2), Fraction(-1, 8), Fraction(-1, 8))
    assert data.level == 2
    mod = JordanVermaModule(Fraction(-2), Fraction(-1, 8))
    op = descent_operator(singular_vectors(mod, 2)[0], Fraction(-1, 8))
    assert op == EulerOperator(
        {(0, 2): Fraction(1), (1, 1): Fraction(1, 2), (2, 0): Fraction(1, 16)}
    )
    # (s - 1/4)^2
    assert data.indicial == UniPoly("s", (Fraction(1, 16), Fraction(-1, 2), Fraction(1)))
    assert data.fusion == UniPoly("h3", (0, 0, 1))
    assert data.roots == [(Fraction(0), 2)]
    assert data.logarithmic is True


# -- the logarithmic flag on fusion polynomials built from their factors ----


def _indicial_data_of(fus: UniPoly) -> IndicialData:
    return IndicialData(fus.degree(), fus.rename("s"), fus, *rational_roots(fus))


_h3 = UniPoly.x("h3")


@pytest.mark.parametrize("fus, logarithmic", [
    # a repeated irrational root: no rational root is repeated
    ((_h3 * _h3 - 2) ** 2 * (_h3 - 1), True),
    # a double root at 0
    (_h3 * _h3 * (_h3 - 3), True),
    ((_h3 * _h3 - 2) * (_h3 - Fraction(1, 3)), False),
    (7 * _h3 - 2, False),
    (UniPoly.const("h3", Fraction(5, 3)), False),
])
def test_logarithmic_by_construction(fus, logarithmic):
    data = _indicial_data_of(fus)
    assert data.logarithmic is logarithmic
    assert data.to_json()["logarithmic"] is logarithmic


# pairwise coprime factors: h3 - r for distinct r, h3^2 - p for distinct primes p
_linear = st.lists(st.fractions(-5, 5, max_denominator=4), unique=True, max_size=3).map(
    lambda rs: [_h3 - r for r in rs])
_quadratics = st.lists(st.sampled_from([2, 3, 5, 7]), unique=True, max_size=2).map(
    lambda ps: [_h3 * _h3 - p for p in ps])


@given(_linear, _quadratics, st.data())
def test_logarithmic_iff_a_factor_repeats(linear, quadratic, data):
    factors = linear + quadratic
    powers = data.draw(st.lists(st.integers(1, 3), min_size=len(factors),
                                max_size=len(factors)))
    lead = data.draw(st.fractions(1, 9, max_denominator=5))
    fus = UniPoly.const("h3", lead)
    for f, k in zip(factors, powers):
        fus = fus * f**k
    assert _indicial_data_of(fus).logarithmic is any(k > 1 for k in powers)


def test_family_c1_grid_matches_fixture_products():
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]:
        data = fusion_indicial(
            Fraction(1), Fraction(m * m, 4), Fraction(n * n, 4)
        )
        assert data.level == n + 1
        assert data.logarithmic is False
        expected_roots = {Fraction(i * i, 4) for i in range(m - n, m + n + 1, 2)}
        assert {r for r, _ in data.roots} == expected_roots
        assert all(mult == 1 for _, mult in data.roots)
        assert data.fusion.monic() == fixture_polynomial("c1", m, n)
        assert data.residual.degree() == 0


def test_family_c1_level3_operator():
    mod = JordanVermaModule(Fraction(1), Fraction(1))
    op = descent_operator(singular_vectors(mod, 3)[0], Fraction(1))
    assert op == EulerOperator(
        {
            (0, 3): Fraction(-1),
            (1, 2): Fraction(-4),
            (2, 1): Fraction(2),
            (3, 0): Fraction(4),
        }
    )


def test_fusion_no_singular_vector_errors():
    with pytest.raises(DomainError):
        fusion_indicial(Fraction(1), Fraction(1), Fraction(1, 3), max_level=4)
    with pytest.raises(DomainError):
        fusion_indicial(Fraction(1), Fraction(1), Fraction(1), level=2)


def test_descent_needs_bottom_layer():
    mod = JordanVermaModule(Fraction(1), Fraction(1), 2)
    vecs = singular_vectors(mod, 3)
    mixed = next(v for v in vecs if any(top == 2 for (_l, top) in v.terms))
    with pytest.raises(DomainError):
        descent_operator(mixed, Fraction(1))


# -- indicial polynomials from words against the operator route -------------


T_VALUES = tuple(Fraction(p, q) for p, q in
                 [(1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3), (3, 4)])


def _kac(t, r, s):
    """(c, h_{r,s}) on the Kac table with c = 13 - 6(t + 1/t)."""
    c = 13 - 6 * (t + 1 / t)
    h = Fraction(r * r - 1, 4) * t - Fraction(r * s - 1, 2) + Fraction(s * s - 1, 4) / t
    return c, h


@cache
def _kac_singular_vectors():
    """(h2, v) for the bottom-layer singular vectors v of M(c, h_{r,s}) at
    level rs <= 7, in Jordan blocks of size 1 and 2."""
    out = []
    for t in T_VALUES:
        for r in range(1, 8):
            for s in range(1, 7 // r + 1):
                c, h2 = _kac(t, r, s)
                for jordan in (1, 2):
                    out.extend(
                        (h2, v)
                        for v in singular_vectors(JordanVermaModule(c, h2, jordan), r * s)
                        if all(top == 1 for _lam, top in v.terms)
                    )
    return out


def _outcome(route, *args):
    """What route returns, or the message of the DomainError it raises."""
    try:
        return route(*args)
    except DomainError as exc:
        return str(exc)


def _indicial_by_operator(vec, h1, at=Fraction(0)):
    """q(s + at) from the composed Euler operator of vec."""
    return descent_operator(vec, h1).indicial().shift(at)


big_rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_descent_indicial_matches_the_operator_route(data):
    h2, vec = data.draw(st.sampled_from(_kac_singular_vectors()))
    h1 = data.draw(st.one_of(st.just(Fraction(0)), st.just(h2), big_rationals))
    at = data.draw(st.one_of(st.just(Fraction(0)), st.just(-(h1 + h2)), big_rationals))
    got = _outcome(descent_indicial, vec, h1, at)
    assert got == _outcome(_indicial_by_operator, vec, h1, at)
    # each drawn vector has an L(-1)^N term, so q has degree N and no draw raises
    assert isinstance(got, UniPoly)


def test_descent_indicial_raises_what_the_operator_route_raises():
    mod = JordanVermaModule(Fraction(1), Fraction(1), 2)
    upper = next(v for v in singular_vectors(mod, 3) if any(top == 2 for _l, top in v.terms))
    # the three words give (s - 4)(h1 - h1^2) together, zero at h1 = 1
    words = {((2, 2, 1), 1): Fraction(1), ((3, 1, 1), 1): Fraction(-1), ((4, 1), 1): Fraction(1)}
    cancelling = ModuleVector(mod, 5, words)
    for vec, message in [
        (ModuleVector(mod, 3, {}), "descent of the zero vector"),
        (upper, "descent needs a bottom-layer (ordinary) vector"),
        (cancelling, "operator is zero or inhomogeneous; no indicial polynomial"),
    ]:
        assert _outcome(descent_indicial, vec, Fraction(1)) == message
        assert _outcome(_indicial_by_operator, vec, Fraction(1)) == message
    assert descent_indicial(cancelling, Fraction(2)) == UniPoly("s", (8, -2))
    assert _indicial_by_operator(cancelling, Fraction(2)) == UniPoly("s", (8, -2))


def _indicial_data_by_operator(c, h1, h2) -> IndicialData:
    """fusion_indicial with the indicial polynomial of the composed operator."""
    mod = JordanVermaModule(c, h2)
    vec = next(found for level in range(1, 9) if (found := singular_vectors(mod, level)))[0]
    op = descent_operator(vec, h1)
    q = op.indicial()
    fus = q.shift(-(h1 + h2)).rename("h3")
    return IndicialData(op.require_homogeneous(), q, fus, *rational_roots(fus))


@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 5) for n in range(1, m + 1)])
def test_fusion_json_on_the_c1_grid_matches_the_operator_route(m, n):
    args = Fraction(1), Fraction(m * m, 4), Fraction(n * n, 4)
    assert fusion_indicial(*args).to_json() == _indicial_data_by_operator(*args).to_json()


# -- resonance solving ------------------------------------------------------


def test_solve_euler_nonresonant():
    d = EulerOperator.monomial(0, 1)
    particular, homogeneous = solve_euler(d, LogSeries.monomial(2))
    assert particular == LogSeries.monomial(3, 0, Fraction(1, 3))
    assert homogeneous == [LogSeries.monomial(0)]


def test_solve_euler_simple_resonance():
    # x d/dx applied to log(x) gives 1
    xd = EulerOperator.monomial(-1, 1)
    particular, homogeneous = solve_euler(xd, LogSeries.monomial(0))
    assert particular == LogSeries.monomial(0, 1)
    assert homogeneous == [LogSeries.monomial(0)]


def test_solve_euler_logarithmic_fixture():
    mod = JordanVermaModule(Fraction(0), Fraction(5, 8))
    op = descent_operator(singular_vectors(mod, 2)[0], Fraction(5, 8))
    b = sym("b")
    rhs = LogSeries({(Fraction(-5, 4), 0): Fraction(2, 3) * b})
    particular, homogeneous = solve_euler(op, rhs)
    assert particular.terms == {(Fraction(3, 4), 1): b * Fraction(1, 3)}
    assert homogeneous == [
        LogSeries.monomial(Fraction(-5, 4)),
        LogSeries.monomial(Fraction(3, 4)),
    ]
    assert op.apply(particular) == rhs


def test_solve_euler_double_root_forcing():
    # (x d/dx)^2 has indicial s^2; forcing at the double root needs log^2
    xd = EulerOperator.monomial(-1, 1)
    op = xd.compose(xd)
    particular, _ = solve_euler(op, LogSeries.monomial(0))
    assert particular == LogSeries.monomial(0, 2, Fraction(1, 2))
    assert op.apply(particular) == LogSeries.monomial(0)


@pytest.mark.parametrize("logpower", range(9))
def test_solve_euler_log_power_above_the_indicial_degree(logpower):
    # x^-2 d^2 has indicial s(s - 1); from log power 3 on, the solve reaches
    # derivatives of it past its degree, which are zero
    op = EulerOperator.monomial(2, 2)
    rhs = LogSeries.monomial(0, logpower)
    particular, _ = solve_euler(op, rhs)
    assert op.apply(particular) == rhs


def test_solve_euler_verification_property():
    rng = random.Random(11)
    for _ in range(30):
        op = _random_homogeneous(rng, rng.randint(-1, 3))
        if op.indicial().is_zero():
            continue
        rhs = LogSeries(
            {
                (Fraction(rng.randint(-6, 6), rng.randint(1, 3)), rng.randint(0, 2)):
                Fraction(rng.randint(1, 5), rng.randint(1, 3))
            }
        )
        particular, homogeneous = solve_euler(op, rhs)
        assert op.apply(particular) == rhs
        for member in homogeneous:
            assert op.apply(member).is_zero()


def test_log_series_guards_and_io():
    with pytest.raises(DomainError):
        LogSeries({(sym("h"), 0): Fraction(1)})
    with pytest.raises(DomainError):
        LogSeries({(Fraction(1), -1): Fraction(1)})
    series = LogSeries(
        {(Fraction(3, 4), 1): sym("b") * Fraction(1, 3), (Fraction(-2), 0): Fraction(5)}
    )
    assert LogSeries.from_json(series.to_json()) == series
    assert series.render() == "5*x^(-2) + (1/3*b)*x^(3/4)*log(x)"


# -- derived constants ------------------------------------------------------


def test_determine_b_value():
    assert determine_b(Fraction(5, 8)) == Fraction(5, 2)


def test_determine_b_rejects_degenerate_weights():
    with pytest.raises(DomainError):
        determine_b(Fraction(0))
    with pytest.raises(DomainError):
        determine_b(Fraction(1))


def _determine_b_by_resonance(h):
    """determine_b through the composed descent operator: solve it against
    the rhs 2/3 b x^(-2h) and divide the log x coefficient by 2/3 b."""
    h = Fraction(h)
    if h == 0:
        raise DomainError("degenerate weight 0: the level-1 singular vector collapses the descent")
    found = singular_vectors(JordanVermaModule(Fraction(0), h), 2)
    if not found:
        raise DomainError(
            "case outside the implemented family: no level-2 singular vector at central charge 0"
        )
    rhs = LogSeries({(-2 * h, 0): Fraction(2, 3) * sym("b")})
    particular, _ = solve_euler(descent_operator(found[0], h), rhs)
    log_coeff = particular.terms.get((-2 * h + 2, 1))
    if log_coeff is None:
        raise DomainError("no logarithmic resonance at this weight")
    return 2 * h / log_coeff.divexact(Fraction(2, 3) * sym("b")).constant_value()


B_GRID = sorted({Fraction(a, b) for a in range(-40, 41) for b in range(1, 13)}
                | {Fraction(0), Fraction(5, 8)})


def test_determine_b_matches_the_resonance_solve():
    outcomes = {h: _outcome(determine_b, h) for h in B_GRID}
    assert outcomes == {h: _outcome(_determine_b_by_resonance, h) for h in B_GRID}
    # 5/8 is the one weight of the grid with a level-2 singular vector
    assert {h: b for h, b in outcomes.items() if not isinstance(b, str)} == {
        Fraction(5, 8): Fraction(5, 2)}


def test_determine_b_reads_the_indicial_polynomial(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("resonance machinery called")

    for name in ("descent_operator", "solve_euler", "rational_roots"):
        monkeypatch.setattr(fusion, name, never)
    monkeypatch.setattr(EulerOperator, "compose", never)
    monkeypatch.setattr(MultiPoly, "divexact", never)
    assert determine_b(Fraction(5, 8)) == Fraction(5, 2)


@pytest.mark.parametrize("c, h", [(Fraction(1), Fraction(0)), (Fraction(-2), Fraction(-1, 8)),
                                  (Fraction(1, 2), Fraction(1, 16)), (Fraction(-7, 3), Fraction(5)),
                                  (Fraction(25), Fraction(-9, 4))])
def test_ope_level2_coefficient_matches_apply(c, h):
    raising = EulerOperator({(-3, 1): Fraction(1), (-2, 0): 3 * h})
    image = raising.apply(LogSeries.monomial(-2 * h))
    norm = shapovalov_matrix(JordanVermaModule(c, Fraction(0)), 2)[1, 1]
    assert ope_level2_coefficient(c, h) == image.coeff(-2 * h + 2) / norm


def test_ope_level2_coefficient_formula():
    rng = random.Random(3)
    for _ in range(10):
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice([1, -1])
        h = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        assert ope_level2_coefficient(c, h) == 2 * h / c
    assert ope_level2_coefficient(Fraction(-2), Fraction(-1, 8)) == Fraction(1, 8)
    with pytest.raises(DomainError):
        ope_level2_coefficient(Fraction(0), Fraction(5, 8))


# -- fixture families -------------------------------------------------------


def test_fixture_polynomial_c1():
    x = UniPoly.x("h3")
    assert fixture_polynomial("c1", 2, 2) == x * (x - 1) * (x - 4)
    assert fixture_polynomial("c1", 1, 1) == x * (x - 1)
    with pytest.raises(DomainError):
        fixture_polynomial("c1", 1, 2)
    with pytest.raises(DomainError):
        fixture_polynomial("c1", 2, 0)


def test_fixture_polynomial_cminus2():
    x = UniPoly.x("h3")
    assert fixture_polynomial("cminus2") == x * x


def test_fixture_polynomial_c0():
    x = UniPoly.x("h3")
    assert fixture_polynomial("c0", p=2) == x * x - 2 * x
    assert fixture_polynomial("c0", p=4).degree() == 4
    with pytest.raises(DomainError):
        fixture_polynomial("c0", p=3)
    with pytest.raises(DomainError):
        fixture_polynomial("c0", p=0)


def test_fixture_polynomial_unknown_family():
    with pytest.raises(DomainError):
        fixture_polynomial("c99")


def test_c0_fixture_matches_pipeline():
    # p = 2 gives the ordinary central charge 0 case
    data = fusion_indicial(Fraction(0), Fraction(5, 8), Fraction(5, 8))
    assert data.fusion.monic() == fixture_polynomial("c0", p=2)

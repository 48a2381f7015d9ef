"""Module-layer tests.

Two independent oracles pin the mode action: the defining commutation
relations checked directly on random vectors, and a re-derivation of the
action through the enveloping algebra (straighten, act on the top level,
change basis by solving a linear system).  The per-module straightening of
straightening_oracle pins the structure-constant route entry by entry,
types and polynomial vars included.  Gram matrices and determinants are
frozen against published closed forms.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import straightening_oracle as oracle
from virlog import modules
from virlog.cli import MAX_SYMBOLIC_DET_ROWS
from virlog.errors import DomainError, ShapeError, SymbolError
from virlog.linalg import ExactMatrix
from virlog.modules import (
    DensityModule,
    JordanVermaModule,
    ModuleVector,
    basis_vector,
    check_hom_pair,
    density_action,
    density_apply,
    level_basis,
    partitions,
    radical_dimension,
    shapovalov_determinant,
    shapovalov_matrix,
    singular_vectors,
)
from virlog.polynomial import MultiPoly, coeff_to_json, sym
from virlog.virasoro import UEAElement

from cofactor_determinant import determinant_cofactor
from gauss_jordan import int_gauss_jordan
from sparse_bareiss import sparse_bareiss

C = sym("c")
H = sym("h")


# -- partitions and basis order ---------------------------------------------


def test_partition_counts():
    assert [len(partitions(n)) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


def test_partitions_are_decreasing():
    for lam in partitions(6):
        assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
        assert sum(lam) == 6


def test_level_basis_order():
    m2 = JordanVermaModule("c", "h", 2)
    assert level_basis(m2, 3) == [
        ((1, 1, 1), 1),
        ((2, 1), 1),
        ((3,), 1),
        ((1, 1, 1), 2),
        ((2, 1), 2),
        ((3,), 2),
    ]
    assert level_basis(m2, 0) == [((), 1), ((), 2)]


def test_partitions_negative_raises():
    with pytest.raises(DomainError):
        partitions(-1)


# -- single-action fixtures -------------------------------------------------


def test_action_kills_top_for_positive_modes():
    m = JordanVermaModule("c", "h", 3)
    for top in (1, 2, 3):
        for k in (1, 2, 5):
            assert basis_vector(m, (), top).apply_mode(k).is_zero()


def test_action_l0_jordan_block():
    m = JordanVermaModule("c", "h", 2)
    v = basis_vector(m, (), 1)
    w = basis_vector(m, (), 2)
    assert v.apply_mode(0) == v.scale(H)
    assert w.apply_mode(0) == w.scale(H) + v


def test_action_central_term():
    # L(2) on L(-2)v picks up (4h + c/2)v
    m = JordanVermaModule("c", "h")
    got = basis_vector(m, (2,)).apply_mode(2)
    assert got == basis_vector(m, ()).scale(4 * H + C * Fraction(1, 2))


def test_action_jordan_mixing_example():
    m = JordanVermaModule(Fraction(0), Fraction(0), 2)
    # L(1) L(-1) w = 2 L(0) w = 2v at h = 0
    got = basis_vector(m, (1,), 2).apply_mode(1)
    assert got == basis_vector(m, (), 1).scale(2)


def test_apply_below_bottom_is_zero():
    m = JordanVermaModule(Fraction(1), Fraction(2))
    assert basis_vector(m, (1,)).apply_mode(5).is_zero()


# -- oracle 1: defining relations -------------------------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def module_vectors(draw):
    c = draw(rationals)
    h = draw(rationals)
    jordan = draw(st.integers(1, 2))
    mod = JordanVermaModule(c, h, jordan)
    level = draw(st.integers(0, 3))
    labels = level_basis(mod, level)
    terms = {}
    for label in labels:
        if draw(st.booleans()):
            terms[label] = draw(rationals)
    return ModuleVector(mod, level, terms)


@given(module_vectors(), st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=80, deadline=None)
def test_commutation_relations_hold_on_vectors(vec, m, n):
    lhs = vec.apply_mode(n).apply_mode(m) - vec.apply_mode(m).apply_mode(n)
    rhs = vec.apply_mode(m + n).scale(Fraction(m - n))
    if m + n == 0:
        central = Fraction(m**3 - m, 12) * vec.module.c_value()
        rhs = rhs + vec.scale(central)
    assert lhs == rhs


# -- oracle 2: enveloping-algebra route -------------------------------------


def _act_on_top(mod, element, top):
    """Canonical enveloping element on v_top, over (creation word, index)."""
    cval, hval = mod.c_value(), mod.h_value()
    out = {}
    for (w, cpow), coeff in element.terms.items():
        if any(mode > 0 for mode in w):
            continue
        coeff = coeff * cval**cpow
        neg = tuple(mode for mode in w if mode < 0)
        zeros = sum(1 for mode in w if mode == 0)
        for layer in range(0, min(zeros, top - 1) + 1):
            q = coeff * math.comb(zeros, layer) * hval ** (zeros - layer)
            key = (neg, top - layer)
            s = out.get(key, Fraction(0)) + q
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def _solve_square(rows, rhs):
    n = len(rows)
    aug = ExactMatrix([list(row) + [rhs[i]] for i, row in enumerate(rows)])
    reduced, pivots = aug.rref()
    assert pivots == list(range(n)), "change-of-basis matrix must be invertible"
    return [reduced.entries[r][n] for r in range(n)]


def _basis_change(level):
    """T with T[i][j] = coefficient of canonical word i in straightened B-word j."""
    parts = sorted(partitions(level))
    # canonical words list modes in ascending order, most negative first
    index = {tuple(-p for p in lam): i for i, lam in enumerate(parts)}
    t = [[Fraction(0)] * len(parts) for _ in parts]
    for j, lam in enumerate(parts):
        raw = UEAElement.from_word(tuple(-p for p in sorted(lam)))
        for (word, cpow), coeff in raw.terms.items():
            assert cpow == 0
            t[index[word]][j] += coeff
    return parts, index, t


def test_mode_action_matches_enveloping_route():
    rng = random.Random(20260822)
    for _ in range(40):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        h = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        jordan = rng.choice([1, 2, 3])
        mod = JordanVermaModule(c, h, jordan)
        level = rng.randint(0, 4)
        lam = rng.choice(partitions(level))
        top = rng.randint(1, jordan)
        k = rng.randint(-3, 3)
        got = basis_vector(mod, lam, top).apply_mode(k)
        target = level - k
        if target < 0:
            assert got.is_zero()
            continue
        element = UEAElement.generator(k) * UEAElement.from_word(
            tuple(-p for p in sorted(lam))
        )
        raw = _act_on_top(mod, element, top)
        parts, index, t = _basis_change(target)
        for j in range(1, jordan + 1):
            rhs = [Fraction(0)] * len(parts)
            for (word, jj), q in raw.items():
                if jj == j:
                    rhs[index[word]] = q
            coeffs = _solve_square(t, rhs)
            for mu, q in zip(parts, coeffs):
                assert got.coeff((mu, j)) == q, (lam, top, k, mu, j)


# -- Gram matrices ----------------------------------------------------------


def _typed(x):
    """A Coeff with its type, and a MultiPoly with its vars."""
    return (type(x), x.vars, x.terms) if isinstance(x, MultiPoly) else (type(x), x)


def _typed_rows(m):
    return [[_typed(x) for x in row] for row in m.entries]


def _typed_vector(vec):
    return vec.module, vec.level, {label: _typed(q) for label, q in vec.terms.items()}


def _kac(t, r, s):
    """(c, h_{r,s}) on the Kac table with c = 13 - 6(t + 1/t)."""
    c = 13 - 6 * (t + 1 / t)
    h = Fraction(r * r - 1, 4) * t - Fraction(r * s - 1, 2) + Fraction(s * s - 1, 4) / t
    return c, h


huge = st.integers(2**64, 2**70)
numeric_params = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(-1, 2)]),
    st.fractions(min_value=-8, max_value=8, max_denominator=6),
    st.builds(Fraction, huge.map(lambda n: -n) | huge, huge),
    st.builds(Fraction, huge.map(lambda n: -n) | huge, st.integers(1, 9)),
)
kac_points = st.builds(
    _kac,
    st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(2, 3)]),
    st.integers(1, 4),
    st.integers(1, 4),
)


@given(
    st.one_of(st.tuples(numeric_params, numeric_params), kac_points),
    st.integers(1, 4),
    st.integers(0, 6),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_numeric_module_matches_straightening(ch, jordan, level, data):
    mod = JordanVermaModule(*ch, jordan)
    assert _typed_rows(shapovalov_matrix(mod, level)) == _typed_rows(oracle.gram(mod, level))
    if level:
        got = [_typed_vector(v) for v in singular_vectors(mod, level)]
        assert got == [_typed_vector(v) for v in oracle.singular_vectors(mod, level)]
    labels = level_basis(mod, level)
    coeffs = data.draw(st.lists(numeric_params, min_size=len(labels), max_size=len(labels)))
    vec = ModuleVector(mod, level, dict(zip(labels, coeffs)))
    k = data.draw(st.integers(-3, level + 1))
    assert _typed_vector(vec.apply_mode(k)) == _typed_vector(oracle.apply_mode(vec, k))


@pytest.mark.parametrize(
    "rank,level", [(rank, level) for rank in (1, 2, 3) for level in range(1, 6)])
def test_symbolic_gram_matches_straightening(rank, level):
    mod = JordanVermaModule("c", "h", rank)
    assert _typed_rows(shapovalov_matrix(mod, level)) == _typed_rows(oracle.gram(mod, level))


@pytest.mark.parametrize("c,h", [
    ("c", Fraction(-3, 7)), ("c", Fraction(0)), (Fraction(5, 2), "h"), ("c", "h")])
def test_apply_mode_on_symbolic_modules_matches_straightening(c, h):
    mod = JordanVermaModule(c, h, 3)
    for level in range(5):
        for label in level_basis(mod, level):
            for coeff in (Fraction(-2, 3), sym("h") + 1, 2):
                vec = ModuleVector(mod, level, {label: coeff})
                for k in range(-3, level + 2):
                    want = oracle.apply_mode(vec, k)
                    assert _typed_vector(vec.apply_mode(k)) == _typed_vector(want)


def test_action_memo_is_bounded_by_level():
    # the structure constants do not depend on the module: fresh modules
    # at a level already seen add no entries
    rng = random.Random(20261018)
    sizes = []
    for _ in range(50):
        c = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
        h = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
        mod = JordanVermaModule(c, h, 2)
        shapovalov_matrix(mod, 5)
        singular_vectors(mod, 5)
        for lam in partitions(5):
            for k in (-2, 0, 1, 2, 3):
                basis_vector(mod, lam, 2).apply_mode(k)
        sizes.append(len(modules._ACTION_MEMO))
    assert sizes == [sizes[0]] * 50



def test_gram_level1_ordinary():
    assert shapovalov_matrix(JordanVermaModule("c", "h"), 1) == ExactMatrix([[2 * H]])


def test_gram_level1_jordan2():
    got = shapovalov_matrix(JordanVermaModule("c", "h", 2), 1)
    assert got == ExactMatrix([[2 * H, Fraction(2)], [Fraction(0), 2 * H]])


def test_gram_level2_ordinary_and_determinant():
    got = shapovalov_matrix(JordanVermaModule("c", "h"), 2)
    expected = ExactMatrix(
        [
            [8 * H**2 + 4 * H, 6 * H],
            [6 * H, 4 * H + C * Fraction(1, 2)],
        ]
    )
    assert got == expected
    det = shapovalov_determinant(JordanVermaModule("c", "h"), 2)
    assert det == 2 * H * (16 * H**2 + 2 * H * C - 10 * H + C)


def _level3_blocks():
    s = [
        [24 * H * (H + 1) * (1 + 2 * H), 36 * H * (H + 1), 24 * H],
        [36 * H * (H + 1), (H + 2) * (8 * H + C) + 18 * H, 16 * H + 2 * C],
        [24 * H, 16 * H + 2 * C, 6 * H + 2 * C],
    ]
    ds = [
        [144 * H**2 + 144 * H + 24, 72 * H + 36, MultiPoly.const(24)],
        [72 * H + 36, 16 * H + 34 + C, MultiPoly.const(16)],
        [MultiPoly.const(24), MultiPoly.const(16), MultiPoly.const(6)],
    ]
    return s, ds


def test_gram_level3_jordan2_entry_for_entry():
    s, ds = _level3_blocks()
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    expected = ExactMatrix(
        [s[i] + ds[i] for i in range(3)] + [zero[i] + s[i] for i in range(3)]
    )
    got = shapovalov_matrix(JordanVermaModule("c", "h", 2), 3)
    assert got == expected


def test_gram_level3_jordan2_determinant():
    det = shapovalov_determinant(JordanVermaModule("c", "h", 2), 3)
    f1 = 16 * H**2 + 2 * H * C - 10 * H + C
    f2 = 3 * H**2 + H * C - 7 * H + 2 + C
    assert det == Fraction(48 * 48) * H**4 * f1**2 * f2**2


def test_gram_derivative_block_structure():
    for level in (1, 2, 3, 4):
        m2 = shapovalov_matrix(JordanVermaModule("c", "h", 2), level)
        s = shapovalov_matrix(JordanVermaModule("c", "h"), level)
        p = len(partitions(level))
        assert m2.rows == 2 * p
        for i in range(p):
            for j in range(p):
                assert m2[i, j] == s[i, j]
                assert m2[p + i, p + j] == s[i, j]
                assert m2[p + i, j] == 0
                entry = s[i, j]
                deriv = entry.derivative("h") if isinstance(entry, MultiPoly) else 0
                assert m2[i, p + j] == deriv


def test_gram_determinant_square_law_small_levels():
    for level in (1, 2, 3, 4):
        d1 = shapovalov_determinant(JordanVermaModule("c", "h"), level)
        d2 = shapovalov_determinant(JordanVermaModule("c", "h", 2), level)
        assert d2 == d1 * d1


def test_gram_numeric_specialization_consistent():
    c, h = Fraction(1, 2), Fraction(-3, 7)
    sym_m = shapovalov_matrix(JordanVermaModule("c", "h", 2), 2)
    num_m = shapovalov_matrix(JordanVermaModule(c, h, 2), 2)
    point = {"c": c, "h": h}
    for i in range(num_m.rows):
        for j in range(num_m.cols):
            entry = sym_m[i, j]
            val = entry.evaluate(point) if isinstance(entry, MultiPoly) else entry
            assert num_m[i, j] == val


def test_gram_rejects_mixed_parameters():
    with pytest.raises(SymbolError):
        shapovalov_matrix(JordanVermaModule("c", Fraction(1), 2), 2)


def test_bareiss_and_cofactor_agree_on_gram():
    m = shapovalov_matrix(JordanVermaModule("c", "h", 2), 2)
    assert m.determinant() == determinant_cofactor(m.entries)


@pytest.mark.parametrize(
    "rank,level", [(1, lv) for lv in range(1, 6)] + [(2, lv) for lv in range(1, 5)])
def test_gram_determinant_matches_sparse_bareiss(rank, level):
    m = shapovalov_matrix(JordanVermaModule("c", "h", rank), level)
    det, ref = m.determinant(), sparse_bareiss(m.entries)
    assert (det.vars, det.terms) == (ref.vars, ref.terms)


def _assert_same_determinant(got, want):
    assert _typed(got) == _typed(want)
    assert coeff_to_json(got) == coeff_to_json(want)


@pytest.mark.parametrize("jordan,level", [
    (jordan, level) for jordan in (1, 2, 3) for level in range(6)
    if jordan * len(partitions(level)) <= MAX_SYMBOLIC_DET_ROWS])
def test_symbolic_determinant_from_int_rows(jordan, level):
    # the int route against the Gram matrix of MultiPoly entries: same
    # value, type, vars (level 1 is over h alone) and JSON
    mod = JordanVermaModule("c", "h", jordan)
    got = shapovalov_determinant(mod, level)
    entries = shapovalov_matrix(mod, level).entries
    _assert_same_determinant(got, ExactMatrix(entries).determinant())
    if len(entries) <= 9:
        _assert_same_determinant(got, sparse_bareiss(entries))
    if level == 0:
        assert _typed(got) == (Fraction, 1)
    else:
        assert got.vars == (("h",) if level == 1 else ("c", "h"))


def test_numeric_determinant_from_int_rows():
    rng = random.Random(20261019)
    for jordan in (1, 2, 3):
        for level in range(6):
            points = [(Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                       Fraction(rng.randint(-40, 40), rng.randint(1, 9))) for _ in range(2)]
            if level:
                # a Kac weight at the level, where the determinant is 0
                labels = [(r, level // r) for r in range(1, level + 1) if level % r == 0]
                points.append(_kac(rng.choice([Fraction(2), Fraction(2, 3)]), *rng.choice(labels)))
            for c, h in points:
                mod = JordanVermaModule(c, h, jordan)
                got = shapovalov_determinant(mod, level)
                entries = shapovalov_matrix(mod, level).entries
                _assert_same_determinant(got, ExactMatrix(entries).determinant())
                _assert_same_determinant(got, sparse_bareiss(entries))


# -- singular vectors and radicals ------------------------------------------


def _span_contains(vectors, candidate):
    rows = [v.coefficients() for v in vectors]
    base_rank = ExactMatrix(rows).rank()
    return ExactMatrix(rows + [candidate.coefficients()]).rank() == base_rank


def test_singular_jordan2_level3():
    mod = JordanVermaModule(Fraction(1), Fraction(1), 2)
    found = singular_vectors(mod, 3)
    assert len(found) == 2
    s1 = ModuleVector(
        mod,
        3,
        {
            ((1, 1, 1), 1): Fraction(1),
            ((2, 1), 1): Fraction(-4),
            ((3,), 1): Fraction(6),
        },
    )
    s2 = ModuleVector(
        mod,
        3,
        {
            ((2, 1), 1): Fraction(-2),
            ((3,), 1): Fraction(5),
            ((1, 1, 1), 2): Fraction(1),
            ((2, 1), 2): Fraction(-4),
            ((3,), 2): Fraction(6),
        },
    )
    for s in (s1, s2):
        assert s.apply_mode(1).is_zero() and s.apply_mode(2).is_zero()
        assert _span_contains(found, s)
    for f in found:
        assert _span_contains([s1, s2], f)


def test_singular_jordan2_level1():
    mod = JordanVermaModule(Fraction(0), Fraction(0), 2)
    assert singular_vectors(mod, 1) == [basis_vector(mod, (1,), 1)]


def test_singular_ordinary_level2():
    mod = JordanVermaModule(Fraction(0), Fraction(5, 8))
    got = singular_vectors(mod, 2)
    expected = ModuleVector(
        mod, 2, {((1, 1), 1): Fraction(1), ((2,), 1): Fraction(-3, 2)}
    )
    assert got == [expected]
    assert got[0].render() == "L(-1)^2v - 3/2*L(-2)v"


def test_singular_ordinary_level3():
    mod = JordanVermaModule(Fraction(1), Fraction(1))
    got = singular_vectors(mod, 3)
    expected = ModuleVector(
        mod,
        3,
        {
            ((1, 1, 1), 1): Fraction(1),
            ((2, 1), 1): Fraction(-4),
            ((3,), 1): Fraction(6),
        },
    )
    assert got == [expected]


def test_singular_generic_point_empty():
    mod = JordanVermaModule(Fraction(1), Fraction(1, 3))
    assert singular_vectors(mod, 1) == []
    assert singular_vectors(mod, 2) == []


def test_singular_rejects_bad_input():
    with pytest.raises(DomainError):
        singular_vectors(JordanVermaModule("c", "h"), 2)
    with pytest.raises(DomainError):
        singular_vectors(JordanVermaModule(Fraction(1), Fraction(1)), 0)


def test_singular_count_bound_small_grid():
    values = [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)]
    for c in values:
        for h in values:
            for level in (1, 2, 3):
                assert len(singular_vectors(JordanVermaModule(c, h), level)) <= 1
                assert len(singular_vectors(JordanVermaModule(c, h, 2), level)) <= 2


def test_radical_dimensions():
    assert radical_dimension(JordanVermaModule(Fraction(1), Fraction(1), 2), 3) == 2
    assert radical_dimension(JordanVermaModule(Fraction(0), Fraction(0), 2), 1) == 1
    assert radical_dimension(JordanVermaModule(Fraction(1), Fraction(1, 3)), 2) == 0
    with pytest.raises(DomainError):
        radical_dimension(JordanVermaModule("c", "h"), 2)


SWEEP_T = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(1, 3),
           Fraction(3, 2), Fraction(2, 3))


@st.composite
def jordan_cases(draw):
    """(module of jordan size 2-4, level 1-6): on the Kac table at the
    level, as the benchmark's numeric sweep draws it, or at a p/q weight."""
    level, jordan = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    if draw(st.booleans()):
        labels = [(r, level // r) for r in range(1, level + 1) if level % r == 0]
        c, h = _kac(draw(st.sampled_from(SWEEP_T)), *draw(st.sampled_from(labels)))
    else:
        c, h = (Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 9))) for _ in range(2))
    return JordanVermaModule(c, h, jordan), level


def _kernel_by_gauss_jordan(rows, cols):
    reduced, pivots = int_gauss_jordan(rows)
    basis = []
    for f in (f for f in range(cols) if f not in pivots):
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][f]
        basis.append(vec)
    return basis


@given(jordan_cases())
@settings(max_examples=80, deadline=None)
def test_top_block_certificate_matches_full_elimination(case):
    mod, level = case
    gram = shapovalov_matrix(mod, level)
    assert radical_dimension(mod, level) == gram.cols - len(int_gauss_jordan(gram.entries)[1])
    # the full stacked L(1), L(2) matrix, from the mode action on each basis vector
    basis = level_basis(mod, level)
    rows = []
    for gen in (1, 2):
        if gen <= level:
            images = [basis_vector(mod, lam, top).apply_mode(gen) for lam, top in basis]
            rows += [[image.coeff(label) for image in images]
                     for label in level_basis(mod, level - gen)]
    want = [ModuleVector(mod, level, {b: q for b, q in zip(basis, vec) if q}).normalize_leading()
            for vec in _kernel_by_gauss_jordan(rows, len(basis))]
    got = singular_vectors(mod, level)
    assert [_typed_vector(v) for v in got] == [_typed_vector(v) for v in want]


def test_top_block_certificate_skips_the_full_kernel(monkeypatch):
    calls = []
    real = modules._modular_rref
    monkeypatch.setattr(modules, "_modular_rref", lambda *a: calls.append(a) or real(*a))
    generic = JordanVermaModule(Fraction(-13, 2), Fraction(-35), 3)
    assert radical_dimension(generic, 6) == 0
    assert singular_vectors(generic, 6) == []
    assert calls == []
    # on the Kac table the top block is singular and the 33 columns are
    # reduced, given block row 0: the top block's 11 rows
    kac = JordanVermaModule(*_kac(Fraction(2), 2, 3), 3)
    assert radical_dimension(kac, 6) > 0
    assert [(len(a[0]), len(a[0][0])) for a in calls] == [(11, 33)]


# -- homomorphism certificate -----------------------------------------------


def _published_pair():
    mod = JordanVermaModule(Fraction(1), Fraction(1), 2)
    s1 = ModuleVector(
        mod,
        3,
        {
            ((1, 1, 1), 1): Fraction(1),
            ((2, 1), 1): Fraction(-4),
            ((3,), 1): Fraction(6),
        },
    )
    s2 = ModuleVector(
        mod,
        3,
        {
            ((2, 1), 1): Fraction(-2),
            ((3,), 1): Fraction(5),
            ((1, 1, 1), 2): Fraction(1),
            ((2, 1), 2): Fraction(-4),
            ((3,), 2): Fraction(6),
        },
    )
    return mod, s1, s2


def test_hom_pair_certified():
    _, s1, s2 = _published_pair()
    assert check_hom_pair(s1, s2) is True


def test_hom_pair_rejects_wrong_jordan_partner():
    _, s1, s2 = _published_pair()
    # s1 alongside itself fails the L(0) chain condition
    assert check_hom_pair(s1, s1) is False
    assert check_hom_pair(s2, s1) is False


def test_hom_pair_rejects_non_singular():
    mod, s1, _ = _published_pair()
    junk = basis_vector(mod, (2, 1), 2)
    assert check_hom_pair(s1, junk) is False
    assert check_hom_pair(junk, s1) is False


def test_hom_pair_shape_errors():
    mod, s1, s2 = _published_pair()
    with pytest.raises(ShapeError):
        check_hom_pair(s1, basis_vector(mod, (1,), 1))
    other = JordanVermaModule(Fraction(2), Fraction(1), 2)
    with pytest.raises(ShapeError):
        check_hom_pair(s1, basis_vector(other, (2, 1), 1))
    plain = JordanVermaModule(Fraction(1), Fraction(1))
    with pytest.raises(DomainError):
        check_hom_pair(basis_vector(plain, (1,)), basis_vector(plain, (1,)))


def test_hom_certificate_rests_on_the_nilpotent_part():
    # jordan-2 Kac weights h_{r,s}, rs = level, at levels 1-6 and the
    # benchmark's t: a singular vector with a top-2 (w) part is certified
    # with its image under L(0) - (h + level), that part moved onto v
    answers = Counter()
    for level in range(1, 7):
        for t in SWEEP_T:
            for r in (r for r in range(1, level + 1) if level % r == 0):
                mod = JordanVermaModule(*_kac(t, r, level // r), 2)
                found = singular_vectors(mod, level)
                partnered = False
                for s2 in found:
                    moved = {(lam, 1): q for (lam, top), q in s2.terms.items() if top == 2}
                    if moved:
                        s1 = s2.apply_mode(0) - s2.scale(mod.h_value() + level)
                        assert s1 == ModuleVector(mod, level, moved)
                        assert check_hom_pair(s1, s2) is True
                        partnered = True
                answer = modules._hom_certificate(mod, level)
                assert answer == (partnered, len(found))
                answers[answer] += 1
    assert answers == {(False, 1): 74, (True, 2): 24}


# -- jordan filtration structure --------------------------------------------


def test_bottom_layer_is_a_submodule():
    mod = JordanVermaModule(Fraction(2, 3), Fraction(-1, 2), 2)
    for lam in partitions(3):
        for k in range(-2, 3):
            image = basis_vector(mod, lam, 1).apply_mode(k)
            assert all(top == 1 for (_mu, top) in image.terms)


def test_top_layer_projection_intertwines():
    mod = JordanVermaModule(Fraction(2, 3), Fraction(-1, 2), 2)
    plain = JordanVermaModule(Fraction(2, 3), Fraction(-1, 2))
    for lam in partitions(3):
        for k in range(-2, 3):
            vec = basis_vector(mod, lam, 2)
            lhs = vec.apply_mode(k).top_projection(2)
            rhs = vec.top_projection(2).apply_mode(k)
            assert lhs.module == plain
            assert lhs == rhs


# -- density modules --------------------------------------------------------


def test_density_action_symbolic_example():
    mod = DensityModule("lam", "mu", "beta", depth=1)
    lam, mu, beta = sym("lam"), sym("mu"), sym("beta")
    assert density_action(mod, 1, (0, 1)) == {
        (-1, 1): mu + 2 * lam,
        (-1, 0): beta,
    }
    assert density_action(mod, 0, (3, 0)) == {(3, 0): mu + 3 + lam}


def test_density_zero_beta_decouples_layers():
    mod = DensityModule(Fraction(2), Fraction(1, 3), Fraction(0), depth=2)
    assert density_action(mod, 2, (1, 2)) == {(-1, 2): Fraction(1, 3) + 1 + 2 * 3}


def test_density_layer_bound():
    mod = DensityModule("lam", "mu", "beta", depth=1)
    with pytest.raises(DomainError):
        density_action(mod, 1, (0, 5))
    with pytest.raises(DomainError):
        DensityModule("lam", "mu", "beta", depth=-1)


def test_density_witt_bracket_consistency():
    mod = DensityModule("lam", "mu", "beta", depth=1)
    for m in range(-4, 5):
        for n in range(-4, 5):
            for r in range(-2, 3):
                for i in (0, 1):
                    e = {(r, i): Fraction(1)}
                    lhs_terms = density_apply(mod, m, density_apply(mod, n, e))
                    rhs_terms = density_apply(mod, n, density_apply(mod, m, e))
                    diff = dict(lhs_terms)
                    for lab, q in rhs_terms.items():
                        s = diff.get(lab, Fraction(0)) - q
                        if s == 0:
                            diff.pop(lab, None)
                        else:
                            diff[lab] = s
                    expected = {} if m == n else {
                        lab: Fraction(m - n) * q
                        for lab, q in density_apply(mod, m + n, e).items()
                    }
                    assert diff == expected, (m, n, r, i)


# -- housekeeping -----------------------------------------------------------


def test_module_vector_validation():
    mod = JordanVermaModule(Fraction(1), Fraction(1), 2)
    with pytest.raises(ShapeError):
        ModuleVector(mod, 3, {((1, 2), 1): Fraction(1)})
    with pytest.raises(ShapeError):
        ModuleVector(mod, 3, {((2, 1), 5): Fraction(1)})
    with pytest.raises(ShapeError):
        ModuleVector(mod, 2, {((2, 1), 1): Fraction(1)})


def test_module_vector_render():
    mod = JordanVermaModule("c", "h", 2)
    vec = ModuleVector(
        mod,
        3,
        {((1, 1, 1), 1): Fraction(1), ((2, 1), 2): Fraction(-3, 2)},
    )
    # attached words put the smallest part first
    assert vec.render() == "L(-1)^3v - 3/2*L(-1)L(-2)w"


def test_module_vector_json_roundtrip():
    mod = JordanVermaModule("c", "h", 2)
    vec = ModuleVector(
        mod,
        2,
        {((1, 1), 1): sym("h") + 1, ((2,), 2): Fraction(-5, 3)},
    )
    assert ModuleVector.from_json(vec.to_json()) == vec


def test_module_json_roundtrip():
    for mod in (
        JordanVermaModule("c", "h", 2),
        JordanVermaModule(Fraction(-1, 2), Fraction(5, 8)),
    ):
        assert JordanVermaModule.from_json(mod.to_json()) == mod


def test_symbol_guards():
    with pytest.raises(SymbolError):
        JordanVermaModule("x", Fraction(1))
    with pytest.raises(DomainError):
        JordanVermaModule("c", "h", 0)
    with pytest.raises(DomainError):
        basis_vector(JordanVermaModule("c", "h"), (2, 1)).normalize_leading().scale(
            sym("h")
        ).normalize_leading()

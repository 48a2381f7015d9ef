"""Matrix layer tests.

The determinant is cross-checked against independent cofactor expansion
and, over Q[vars], against sparse Bareiss elimination on term dicts
(tests/sparse_bareiss.py) on random small matrices.  The modular rref is
cross-checked against Gauss-Jordan over Fraction and fraction-free
Gauss-Jordan in Z (tests/gauss_jordan.py), and kernels are verified by
multiplying back.  The block reduction of Toeplitz matrices, given block
row 0, is cross-checked against a plain Gauss-Jordan mod p and against
the plain elimination of the assembled rows.
"""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virlog import linalg
from virlog.errors import DomainError, ShapeError
from virlog.linalg import ExactMatrix, _lift, _modular_rref, _prime, _reconstruct, _rref_mod
from virlog.polynomial import MultiPoly, coeff_to_json, sym

from cofactor_determinant import determinant_cofactor
from gauss_jordan import int_gauss_jordan
from sparse_bareiss import sparse_bareiss

fractions_s = st.fractions(min_value=-8, max_value=8, max_denominator=4)


@st.composite
def square_matrices(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    return ExactMatrix(
        [[draw(fractions_s) for _ in range(n)] for _ in range(n)]
    )


@st.composite
def rect_matrices(draw, max_n=5):
    r = draw(st.integers(1, max_n))
    c = draw(st.integers(1, max_n))
    return ExactMatrix(
        [[draw(fractions_s) for _ in range(c)] for _ in range(r)]
    )


@given(square_matrices())
@settings(max_examples=60)
def test_bareiss_matches_cofactor(m):
    assert m.determinant() == determinant_cofactor(m.entries)


def test_determinant_needs_row_swap():
    m = ExactMatrix([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert m.determinant() == -1


def test_determinant_singular():
    m = ExactMatrix(
        [
            [Fraction(1), Fraction(2), Fraction(3)],
            [Fraction(2), Fraction(4), Fraction(6)],
            [Fraction(0), Fraction(1), Fraction(1)],
        ]
    )
    assert m.determinant() == 0


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def symbolic_entries(draw):
    """Zero (for zero pivots and row swaps), a Fraction, or a MultiPoly over
    a subset of (c, h, t) with up to three terms."""
    kind = draw(st.sampled_from(["zero", "fraction", "poly"]))
    if kind == "zero":
        return Fraction(0)
    if kind == "fraction":
        return draw(small_fractions)
    vars = draw(st.sampled_from([("c",), ("h",), ("t",), ("c", "h"), ("c", "h", "t")]))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * len(vars)), small_fractions, max_size=3))
    return MultiPoly(vars, terms)


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(symbolic_entries(), min_size=n, max_size=n), min_size=n, max_size=n)))
@settings(max_examples=80, deadline=None)
def test_symbolic_bareiss_matches_cofactor(rows):
    m = ExactMatrix(rows)
    det = m.determinant()
    assert det == determinant_cofactor(rows)
    if isinstance(det, MultiPoly):
        assert all(type(q) is Fraction for q in det.terms.values())
    elif any(isinstance(x, MultiPoly) for row in rows for x in row):
        assert det == 0  # a zero pivot column ends elimination early


wide_coeffs = st.one_of(
    small_fractions,
    st.integers(-2**70, 2**70).map(Fraction),
    st.builds(Fraction, st.integers(-2**66, 2**66), st.integers(1, 2**65)),
)


@st.composite
def packed_route_matrices(draw):
    """Square matrices of 1-5 rows over 0-3 of the vars (c, h, t): Fraction
    and MultiPoly entries with negative, Fraction and >= 2^64 coefficients,
    constant MultiPolys among them, with zero rows, zero columns and
    repeated rows."""
    n = draw(st.integers(1, 5))
    vars = draw(st.sampled_from([(), ("c",), ("h",), ("c", "h"), ("c", "h", "t")]))
    terms = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * len(vars)), wide_coeffs, max_size=3)
    entry = st.one_of(
        st.just(Fraction(0)), wide_coeffs, terms.map(lambda t: MultiPoly(vars, t)))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=1)):
        rows[i] = [Fraction(0)] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=1)):
        for row in rows:
            row[j] = Fraction(0)
    for i, k in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=1)):
        rows[i] = list(rows[k])
    return rows


def assert_same_determinant(rows):
    det, ref = ExactMatrix(rows).determinant(), sparse_bareiss(rows)
    assert type(det) is type(ref)
    if isinstance(det, MultiPoly):
        assert det.vars == ref.vars
        assert det.terms == ref.terms
        assert all(type(q) is Fraction for q in det.terms.values())
    else:
        assert det == ref
    assert det == determinant_cofactor(rows)


@given(packed_route_matrices())
@settings(max_examples=150, deadline=None)
def test_determinant_matches_sparse_bareiss_and_cofactor(rows):
    assert_same_determinant(rows)


def test_packed_coefficient_at_the_digit_limit():
    # Row norms 3 and 5 give P = 15 = 2^4 - 1, so the digits are B = 5 bits
    # wide and -15 h^2 sits at -(2^(B-1) - 1), the most negative balanced
    # digit; its packed determinant is -15 * 2^10.
    c, h = sym("c"), sym("h")
    rows = [[3 * h, Fraction(0)], [Fraction(0), -5 * h]]
    assert ExactMatrix(rows).determinant() == -15 * h * h
    assert_same_determinant(rows)
    # One grid var: at the far corner c = 1 the row norm is P = 2^61 - 1,
    # B = 62, and the h coefficient there is 2^(B-1) - 1, the largest digit.
    big = 2**61 - 1
    for rows in ([[big * c * h]], [[big * c * h, Fraction(0)], [Fraction(0), Fraction(1)]],
                 [[-big * h]], [[h, Fraction(0)], [Fraction(0), -big * c]]):
        assert_same_determinant(rows)
    assert ExactMatrix([[big * c * h]]).determinant() == big * c * h


def test_structurally_zero_column_against_zero_determinant():
    c, h = sym("c"), sym("h")
    zero = Fraction(0)
    # a column before the last with no pivot at any point: Fraction(0)
    for rows in ([[zero, c], [zero, h]],
                 [[c, zero, h], [h, zero, c], [c + h, zero, Fraction(1)]]):
        det = ExactMatrix(rows).determinant()
        assert type(det) is Fraction and det == 0
        assert_same_determinant(rows)
    # a zero last column, or dependent rows, give the zero MultiPoly
    for rows in ([[c, zero], [h, zero]], [[c, h], [2 * c, 2 * h]],
                 [[c, h, c * h], [h, c, h * h], [c + h, c + h, c * h + h * h]]):
        det = ExactMatrix(rows).determinant()
        assert type(det) is MultiPoly and det.is_zero() and det.vars == ("c", "h")
        assert_same_determinant(rows)


c_, h_, t_ = sym("c"), sym("h"), sym("t")
F = Fraction

# return type and coeff_to_json of determinant(), recorded from the
# elimination over Fraction and MultiPoly entries that preceded the
# integer kernel.  A symbolic result is over the union of the entries'
# vars; the older elimination dropped the vars of constant factors, so in
# "constant-entry-wider-vars" it gave vars ["c"] for the same polynomial.
def poly_doc(vars, *terms):
    return {"vars": list(vars), "terms": [{"coeff": q, "exps": list(e)} for q, e in terms]}


DETERMINANT_TABLE = {
    "fraction-only": ([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]], "Fraction", "1/60"),
    "fraction-swap": ([[F(0), F(2, 3)], [F(5, 6), F(7)]], "Fraction", "-5/9"),
    "fraction-integers": ([[F(2), F(3)], [F(4), F(5)]], "Fraction", "-2"),
    "one-by-one-symbolic": (
        [[c_ + F(1, 2)]], "MultiPoly", poly_doc("c", ("1", (1,)), ("1/2", (0,)))),
    "one-by-one-zero-poly": ([[c_ - c_]], "MultiPoly", poly_doc("c")),
    "constant-det": (
        [[c_, c_ - 1], [c_ + 1, c_]], "MultiPoly", poly_doc("c", ("1", (0,)))),
    "constant-det-wider-vars": (
        [[c_, c_ - 1, F(0)], [c_ + 1, c_, F(0)], [h_, F(1, 2), F(3)]],
        "MultiPoly", poly_doc("ch", ("3", (0, 0)))),
    "zero-det": ([[c_, h_], [2 * c_, 2 * h_]], "MultiPoly", poly_doc("ch")),
    "zero-column": ([[F(0), c_], [F(0), h_]], "Fraction", "0"),
    "swap-mixed": (
        [[F(0), c_], [h_, F(1, 3)]], "MultiPoly", poly_doc("ch", ("-1", (1, 1)))),
    "const-poly-entries": (
        [[MultiPoly.const(2), F(1, 2)], [F(1, 3), F(1)]], "MultiPoly", poly_doc("", ("11/6", ()))),
    "integer-coefficients": (
        [[c_ + 1, h_], [2 * h_, c_]],
        "MultiPoly", poly_doc("ch", ("1", (2, 0)), ("-2", (0, 2)), ("1", (1, 0)))),
    "constant-entry-wider-vars": (
        [[c_, F(0)], [F(0), MultiPoly(("h",), {(0,): 2})]],
        "MultiPoly", poly_doc("ch", ("2", (1, 0)))),
    "three-vars": (
        [[t_, F(1, 12)], [c_, h_]],
        "MultiPoly", poly_doc("cht", ("1", (0, 1, 1)), ("-1/12", (1, 0, 0)))),
}


@pytest.mark.parametrize("name", sorted(DETERMINANT_TABLE))
def test_determinant_type_and_json(name):
    rows, type_name, doc = DETERMINANT_TABLE[name]
    det = ExactMatrix(rows).determinant()
    assert type(det).__name__ == type_name
    assert coeff_to_json(det) == doc
    if isinstance(det, MultiPoly):
        assert all(type(q) is Fraction for q in det.terms.values())


def test_symbolic_determinant():
    c, h = sym("c"), sym("h")
    m = ExactMatrix([[c, h], [h, c]])
    assert m.determinant() == c * c - h * h
    # 3x3 with polynomial entries, against cofactor expansion
    m3 = ExactMatrix(
        [
            [c + 1, h, Fraction(2)],
            [h, c * h, h + 3],
            [Fraction(0), c, h * h],
        ]
    )
    assert m3.determinant() == determinant_cofactor(m3.entries)


def test_non_square_determinant_raises():
    with pytest.raises(ShapeError):
        ExactMatrix([[Fraction(1), Fraction(2)]]).determinant()


def test_null_space_known_kernel():
    cases = [
        # x + 2y + 3z = 0, 2x + 4y + 6z = 0: a 2-dim kernel
        ([[1, 2, 3], [2, 4, 6]], [[-2, 1, 0], [-3, 0, 1]]),
        # a free column between two pivots; the later pivot reduces the
        # row above across the free column too
        ([[1, 2, 3], [0, 0, 1]], [[-2, 1, 0]]),
        ([[1, 2, 3], [0, 0, 2]], [[-2, 1, 0]]),
    ]
    for rows, want in cases:
        m = ExactMatrix([[Fraction(x) for x in row] for row in rows])
        basis = m.null_space()
        # free columns carry the unit entries
        assert basis == want
        for vec in basis:
            assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in m.entries)


def rref_reference(entries):
    """Gauss-Jordan over Fraction: an independent reference for the
    fraction-free rref()."""
    m = [
        [Fraction(x.constant_value()) if isinstance(x, MultiPoly) else Fraction(x) for x in row]
        for row in entries
    ]
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for col in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][col] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    return m, pivots


@st.composite
def kernel_matrices(draw):
    """Rectangular rational matrices with zero columns, repeated rows and
    constant MultiPoly entries."""
    r, c = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), small_fractions, small_fractions.map(MultiPoly.const))
    zero_cols = draw(st.sets(st.integers(0, c - 1), max_size=c))
    rows = [[Fraction(0) if j in zero_cols else draw(entry) for j in range(c)] for _ in range(r)]
    return rows + [rows[i] for i in draw(st.lists(st.integers(0, r - 1), max_size=3))]


@given(kernel_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_matches_fraction_gauss_jordan(rows):
    reduced, pivots = ExactMatrix(rows).rref()
    want, want_pivots = rref_reference(rows)
    assert pivots == want_pivots
    assert reduced.entries == want
    assert all(type(x) is Fraction for row in reduced.entries for x in row)
    assert int_gauss_jordan([
        [x.constant_value() if isinstance(x, MultiPoly) else x for x in row] for row in rows
    ]) == (want, want_pivots)


@given(rect_matrices())
@settings(max_examples=60)
def test_rank_nullity(m):
    basis = m.null_space()
    assert m.rank() + len(basis) == m.cols
    for vec in basis:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in m.entries)


def test_null_space_rejects_symbolic():
    with pytest.raises(DomainError):
        ExactMatrix([[sym("h")]]).null_space()


@given(rect_matrices())
@settings(max_examples=30)
def test_matrix_json_roundtrip(m):
    assert ExactMatrix.from_json(m.to_json()) == m


def test_matrix_json_roundtrip_symbolic():
    m = ExactMatrix([[sym("c") + 1, Fraction(1, 2)]])
    assert ExactMatrix.from_json(m.to_json()) == m


# -- the modular kernel -------------------------------------------------------

P0, P1 = _prime(0), _prime(1)


def assert_rref(rows):
    """rref() equals Gauss-Jordan over Fraction and in Z, in values, types
    and pivots, and its kernel basis multiplies back to zero."""
    m = ExactMatrix(rows)
    reduced, pivots = m.rref()
    want, want_pivots = rref_reference(rows)
    assert (reduced.entries, pivots) == (want, want_pivots)
    assert int_gauss_jordan(rows) == (want, want_pivots)
    assert all(type(x) is Fraction for row in reduced.entries for x in row)
    basis = m.null_space()
    assert len(basis) == m.cols - len(pivots) == m.cols - m.rank()
    for vec in basis:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
    return pivots


def as_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_first_primes_just_below_two_to_the_62():
    assert [2**62 - _prime(k) for k in range(6)] == [57, 87, 117, 143, 153, 167]


@pytest.mark.parametrize("rows, want_pivots", [
    # column 0 vanishes mod P0 only: full rank over Q
    ([[P0, 0], [0, 1]], [0, 1]),
    ([[P0, 0], [0, P0]], [0, 1]),
    # det = P0: rank 1 mod P0, 2 over Q
    ([[1, 1], [1, 1 + P0]], [0, 1]),
    # rank drops mod P0 and a kernel is left over Q: the profile of P1
    # comes first in greedy order and replaces the one of P0
    ([[1, 1, 1], [1, 1 + P0, 1]], [0, 1]),
    ([[1, 1, 2, 3], [1, 1 + P0, 2, 5], [2, 2 + P0, 4, 8]], [0, 1]),
    # every entry divisible by P0: rank 0 mod P0
    ([[P0, 2 * P0, -3 * P0]], [0]),
    ([[P0, 2 * P0], [3 * P0, 6 * P0]], [0]),
    # the denominator P1 needs three primes of P0's profile, and P1 itself
    # drops column 0, so its profile comes later in greedy order and is
    # skipped
    ([[P1, 0, 1], [0, 1, 1]], [0, 1]),
    ([[P1, 0, 5, 7], [0, 1, 2, P1]], [0, 1]),
])
def test_rref_through_unlucky_primes(rows, want_pivots):
    assert assert_rref(as_fractions(rows)) == want_pivots


def test_rref_values_above_two_to_the_130():
    big = [3**90 + 7, -(2**140) + 1, 5**61, 2**131 + 3, -(7**50)]
    other = [11**40, 2**135 - 9, -(3**85), 13**37, 2**133]
    combo = [Fraction(3**40, 2**45) * a - Fraction(5**30, 7) * b for a, b in zip(big, other)]
    rows = [big, other, combo, [Fraction(a, 2**150 + 1) for a in big]]
    assert assert_rref(rows) == [0, 1]
    reduced, _ = ExactMatrix(rows).rref()
    assert max(abs(x.numerator) for row in reduced.entries for x in row) > 2**130
    assert max(x.denominator for row in reduced.entries for x in row) > 2**130


@pytest.mark.parametrize("rows, want_pivots", [
    # kernels of dimension 2 and 3
    ([[1, 2, 3], [2, 4, 6]], [0]),
    ([[1, 2, 3, 4], [2, 4, 6, 8], [-1, -2, -3, -4]], [0]),
    ([[0, 1, 2, 0, 3], [0, 2, 4, 1, 7]], [1, 3]),
    # wide
    ([[1, 2, 3, 4, 5, 6]], [0]),
    ([[0, 0, 0, 1, 2], [0, 1, 0, 0, 3]], [1, 3]),
    # zero rows and zero columns
    ([[0, 0, 0], [0, 0, 0]], []),
    ([[0, 1, 0], [0, 0, 0], [0, 2, 0]], [1]),
    ([[0, 0], [1, 0], [0, 0], [2, 0]], [0]),
    ([[0]], []),
    # full column rank, tall
    ([[1, 0], [0, 0], [3, 4], [5, 6]], [0, 1]),
])
def test_rref_shapes(rows, want_pivots):
    assert assert_rref(as_fractions(rows)) == want_pivots


def test_rref_with_no_columns():
    reduced, pivots = ExactMatrix([[], []]).rref()
    assert (reduced.rows, reduced.cols, pivots) == (2, 0, [])
    assert int_gauss_jordan([[], []]) == ([[], []], [])
    assert ExactMatrix([[], []]).null_space() == []


huge_fractions = st.builds(
    Fraction,
    st.integers(-(2**200), 2**200),
    st.integers(1, 2**200),
)


@st.composite
def huge_kernel_matrices(draw):
    """Rows with numerators and denominators up to 2^200: a few drawn rows,
    then small rational combinations of them, in drawn order."""
    c = draw(st.integers(1, 5))
    base = [[draw(huge_fractions) for _ in range(c)] for _ in range(draw(st.integers(1, 3)))]
    zero_cols = draw(st.sets(st.integers(0, c - 1), max_size=c - 1))
    base = [[Fraction(0) if j in zero_cols else x for j, x in enumerate(row)] for row in base]
    rows = list(base)
    for _ in range(draw(st.integers(0, 3))):
        coeffs = [draw(small_fractions) for _ in base]
        rows.append([sum(a * row[j] for a, row in zip(coeffs, base)) for j in range(c)])
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


@given(huge_kernel_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_huge_entries_match_gauss_jordan(rows):
    assert_rref(rows)


def _reconstruction_by_search(u, modulus):
    """The fraction a/b = u mod modulus with |a|, b <= isqrt((modulus - 1) // 2)
    and b prime to modulus, found by trying every b; None when there is none."""
    bound = isqrt((modulus - 1) // 2)
    found = set()
    for b in range(1, bound + 1):
        if gcd(b, modulus) == 1:
            a = u * b % modulus
            for a in (a, a - modulus):
                if abs(a) <= bound:
                    found.add(Fraction(a, b))
    assert len(found) <= 1
    return found.pop() if found else None


@pytest.mark.parametrize("modulus", [*range(2, 80), 97 * 89, 2 * 3 * 5 * 7 * 11, 2**13])
def test_reconstruct_matches_search(modulus):
    for u in range(modulus):
        assert _reconstruct(u, modulus) == _reconstruction_by_search(u, modulus), u


def test_a_later_profile_is_skipped(monkeypatch):
    # mod P1 column 0 vanishes; the lift keeps P0's profile, skips P1 and
    # needs P0 and two more primes for the denominator P1 > 2^61.5
    used = []

    def recorded(k):
        used.append(k)
        return _prime(k)

    monkeypatch.setattr(linalg, "_prime", recorded)
    reduced, pivots = ExactMatrix(as_fractions([[P1, 0, 1], [0, 1, 1]])).rref()
    assert (pivots, reduced.entries[0][2]) == ([0, 1], Fraction(1, P1))
    assert used == [0, 1, 2, 3]


# -- the block reduction of Toeplitz matrices -----------------------------------


def rref_mod_reference(rows, cols, p):
    """(pivots, {free column f: its entries in the pivot rows before f}) of
    the reduced row echelon form mod p, by plain Gauss-Jordan."""
    m = [[x % p for x in row] for row in rows]
    pivots = []
    for col in range(cols):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][col]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for k, row in enumerate(m):
            a = row[col]
            if k != r and a:
                m[k] = [(x - a * y) % p for x, y in zip(row, m[r])]
        pivots.append(col)
    return pivots, {f: [m[r][f] for r, pc in enumerate(pivots) if pc < f]
                    for f in range(cols) if f not in pivots}


toeplitz_entries = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**200), 2**200),
    st.integers(-3, 3).map(lambda x: x * P0),
)


@st.composite
def toeplitz_matrices(draw):
    """(top, rows, cols, jordan): block row 0 and the rows of a block
    upper-triangular Toeplitz int matrix of jordan 1-4 block rows, blocks
    1-8 columns wide, and each block row 1-2 stacked groups of rows, up to
    two more than the width.  Block row i is block row 0 moved i blocks
    right.  The top block is often singular (zero columns, zero or repeated
    rows) and some of its columns are multiples of P0, so P0 can be
    unlucky."""
    jordan, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    if jordan * n > 20:
        n = 20 // jordan
    cols = jordan * n
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
    p0_cols = draw(st.sets(st.integers(0, n - 1), max_size=2))
    top = []
    for _ in range(draw(st.integers(1, 2))):
        group = []
        for _ in range(draw(st.integers(1, n + 2))):
            head = [0 if j in zero_cols else draw(toeplitz_entries) * (P0 if j in p0_cols else 1)
                    for j in range(n)]
            group.append(head + [draw(toeplitz_entries) for _ in range(cols - n)])
        for i, k in draw(st.lists(st.tuples(st.integers(0, len(group) - 1),
                                            st.integers(0, len(group) - 1)), max_size=2)):
            group[i] = list(group[k])
        for i in draw(st.sets(st.integers(0, len(group) - 1), max_size=1)):
            group[i][:n] = [0] * n
        top += group
    rows = [[0] * (i * n) + row[:cols - i * n] for i in range(jordan) for row in top]
    return top, rows, cols, jordan


@given(toeplitz_matrices())
@settings(max_examples=150, deadline=None)
def test_block_reduction_matches_plain_elimination(case):
    top, rows, cols, jordan = case
    for p in (P0, P1):
        want = rref_mod_reference(rows, cols, p)
        assert _rref_mod(top, cols, p, jordan) == want
        assert _rref_mod(rows, cols, p) == want
    reduced, pivots = int_gauss_jordan(rows)
    free = [f for f in range(cols) if f not in pivots]
    want = {f: [reduced[r][f] for r, pc in enumerate(pivots) if pc < f] for f in free}
    assert _modular_rref(top, cols, jordan) == (pivots, want)


def test_lift_checks_every_block_row():
    # block row 0 [1, 2] annuls v = (-2, 1), block row 1 [0, 1] does not:
    # the matrix [[1, 2], [0, 1]] has no kernel
    assert _lift([[1, 2]], [0], {1: [2]}, P0) == {1: [Fraction(2)]}
    assert _lift([[1, 2]], [0], {1: [2]}, P0, jordan=2) is None

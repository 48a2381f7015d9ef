"""Exact dense matrices: a fraction-free integer elimination for
determinants and a certified modular kernel for ranks and kernels.

Entries are Coeff = Fraction | MultiPoly.  The matrix is first scaled to
integer coefficients.  The determinant is a Bareiss (1968) elimination in
Z: every intermediate is a minor of the scaled matrix, so each division is
exact and no Fraction is built until the end.  Callers that hold integer
rows already (the module matrices of virlog.modules) pass them straight to
the integer entry points _int_determinant, _modular_rref and
_full_column_rank; ExactMatrix calls the first two after scaling.

A determinant over Z[vars] is evaluated at an integer grid in all vars but
the last, which is packed into each entry as a power of two (Kronecker
substitution), and recovered from the integer determinants by
interpolating over the grid and unpacking digits.

The reduced row echelon form behind rank and kernel is computed mod primes
just below 2^62 and lifted by the Chinese remainder theorem and rational
reconstruction (the multi-modular solve of Cabay 1971, with Wang's 1981
reconstruction).  Rank mod p is at most the rank over Q, so full column rank
mod one prime is full rank over Q.  Otherwise each lifted kernel vector is
checked exactly, M v = 0 in ints, and the checks prove the whole form: see
ExactMatrix.rref.

The matrices of a Jordan module are block upper-triangular Toeplitz: block
row i is block row 0 moved i blocks right, so the kernel is given block
row 0 alone.  Mod p, block row 0 is reduced once on its first block of
columns, the top block, and its pivot rows, moved into every block row,
are already in echelon form; only the rows the top block leaves zero, one
or two on the Kac table, are reduced further (_echelon_mod).  Full column
rank mod p is the top block's.  The reduced form mod p is unique, so its
pivots and entries are those of a plain elimination, and only its free
columns are back-substituted.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import reduce
from itertools import count, islice, product
from math import gcd, isqrt, lcm, prod
from operator import mul

from .errors import DomainError, ParseError, ShapeError, SymbolError
from .polynomial import (
    Coeff,
    MultiPoly,
    coeff_from_json,
    coeff_to_json,
    merge_vars,
    render_coeff,
)


class ExactMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ShapeError("ragged rows in matrix")

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    # -- determinant -------------------------------------------------------

    def determinant(self) -> Coeff:
        """Fraction-free determinant over integer coefficients.

        The matrix is scaled by D to integer coefficients and the result is
        det / D**n: a Fraction when no entry is a MultiPoly, else a MultiPoly
        over the union of the entries' vars, and Fraction(0) when a column
        before the last has no pivot.  See _int_determinant.
        """
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        return _int_determinant(*_scaled(self.entries))

    # -- kernel ------------------------------------------------------------

    def rref(self):
        """(reduced row echelon form, pivot column list); rational entries only.

        The matrix is scaled to integers m and reduced mod a prime p; the
        pivot profile mod p is the list of its pivot columns.  Rank mod p is
        at most the rank over Q, so when every column has a pivot mod p the
        form is [I; 0] at once.  Otherwise the entries of each free column f
        in the pivot rows before f are combined over primes of the same
        profile by the Chinese remainder theorem and rationally
        reconstructed, giving v_f: 1 at f, 0 at the other free columns and
        minus those entries at the earlier pivots.  Each v_f is checked
        exactly, m v_f = 0 in ints, or another prime is taken.

        Once every check passes the result is exact.  A v_f in the kernel
        makes column f a combination of earlier columns, so f is free over Q
        too; there are no more free columns over Q than mod p, so the free
        sets, and the pivots, agree; and the reduced form with given pivots
        is the unique one whose free columns give kernel vectors of that
        shape.  A prime whose profile differs from the one being lifted is
        unlucky for one of the two; the profile over Q is the greedy one,
        so the profile that comes first in greedy order (a pivot at the
        first column where they differ) is kept and lifting restarts from
        it.  The entries are ratios of minors of m, at most its Hadamard
        bound H, so once the lucky primes multiply past 2 H^2 the
        reconstruction is exact, which caps the number of primes.
        """
        pivots, lifted = _modular_rref(self._ints(), self.cols)
        one, zero = Fraction(1), Fraction(0)
        reduced = [[zero] * self.cols for _ in range(self.rows)]
        for r, pc in enumerate(pivots):
            reduced[r][pc] = one
        for f, column in lifted.items():
            for r, q in enumerate(column):
                reduced[r][f] = q
        return ExactMatrix(reduced), pivots

    def null_space(self):
        """Basis of the right kernel, one vector per free column.

        For each free column f of the reduced form, in order, the vector
        with 1 at f, 0 at the other free columns and minus the entries of f
        at the pivots before it (see rref), so the result is deterministic
        and convenient for normalization downstream.
        """
        pivots, lifted = _modular_rref(self._ints(), self.cols)
        zero, one = Fraction(0), Fraction(1)
        basis = []
        for f, column in lifted.items():
            vec = [zero] * self.cols
            vec[f] = one
            for pc, q in zip(pivots, column):
                vec[pc] = -q
            basis.append(vec)
        return basis

    def rank(self) -> int:
        return len(_modular_rref(self._ints(), self.cols)[0])

    def _ints(self):
        """The entries as int rows, scaled by the lcm of their denominators."""
        try:
            values = [[x.constant_value() if isinstance(x, MultiPoly) else x for x in row]
                      for row in self.entries]
        except SymbolError:
            raise DomainError("kernel computation needs rational entries") from None
        return _int_rows(values)[0]

    # -- io ----------------------------------------------------------------

    def render(self) -> str:
        widths = [
            max(len(render_coeff(self.entries[i][j])) for i in range(self.rows))
            for j in range(self.cols)
        ] if self.rows else []
        lines = []
        for row in self.entries:
            cells = [render_coeff(x).rjust(w) for x, w in zip(row, widths)]
            lines.append("[ " + "  ".join(cells) + " ]")
        return "\n".join(lines)

    __repr__ = render

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[coeff_to_json(x) for x in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExactMatrix":
        try:
            entries = [[coeff_from_json(x) for x in row] for row in obj["entries"]]
            m = cls(entries)
            if m.rows != obj["rows"] or m.cols != obj["cols"]:
                raise ParseError("matrix shape fields disagree with entries")
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed matrix object: {exc}") from exc
        return m


# -- integer elimination ----------------------------------------------------


def exact_int_div(a: int, b: int) -> int:
    """Integer quotient a / b; raises DomainError unless b divides a."""
    q, r = divmod(a, b)
    if r:
        raise DomainError("inexact division")
    return q


def _int_rows(values):
    """(rows, D): the rational values times D, the lcm of their denominators."""
    scale = lcm(*(x.denominator for row in values for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in values], scale


def _scaled(entries):
    """(rows, D, vars): the entries times D, the lcm of all coefficient
    denominators, and vars, the union of the entries' vars (None when no
    entry is a MultiPoly).  The rows hold ints when vars is empty, else
    {exps: int} term dicts over vars."""
    polys = [x for row in entries for x in row if isinstance(x, MultiPoly)]
    vars = reduce(merge_vars, (p.vars for p in polys), ()) if polys else None
    if not vars:
        m, scale = _int_rows([[x.constant_value() if isinstance(x, MultiPoly) else x for x in row]
                              for row in entries])
        return m, scale, vars
    rows = [
        [x._aligned(vars) if isinstance(x, MultiPoly) else {(0,) * len(vars): x} if x else {}
         for x in row]
        for row in entries
    ]
    scale = lcm(*(c.denominator for row in rows for terms in row for c in terms.values()))
    m = [
        [{e: c.numerator * (scale // c.denominator) for e, c in terms.items()} for terms in row]
        for row in rows
    ]
    return m, scale, vars


def _eliminate(m, cols):
    """Bareiss elimination, in place, of the int rows m over the columns
    before cols; returns (pivot columns, sign of the row swaps).

    A column's pivot is its first nonzero entry at or below the next pivot
    row, swapped up; a column without one is skipped.  Each row below the
    pivot becomes (piv * row - a * top) / prev, a being its entry in the
    pivot column and prev the previous pivot; the division is exact.
    """
    sign, r, prev, pivots = 1, 0, 1, []
    for col in range(cols):
        p = next((i for i in range(r, len(m)) if m[i][col]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        top = m[r]
        piv = top[col]
        for row in m[r + 1:]:
            a = row[col]
            for j in range(col + 1, len(row)):
                row[j] = exact_int_div(piv * row[j] - a * top[j], prev)
        prev = piv
        pivots.append(col)
        r += 1
    return pivots, sign


def _int_det(m):
    """Bareiss determinant of the square int rows m, eliminated in place;
    None when a column before the last has no pivot."""
    n = len(m)
    pivots, sign = _eliminate(m, n - 1)
    return sign * m[n - 1][n - 1] if len(pivots) == n - 1 else None


def _int_determinant(m, scale, vars) -> Coeff:
    """det of the n x n matrix m / scale, m holding ints when vars is None
    or (), else {exps: int} term dicts over vars: a Fraction when vars is
    None, else a MultiPoly over vars, and Fraction(0) when a column before
    the last has no pivot.

    Without vars this is one int Bareiss elimination of m, in place.  Over
    Z[vars] the determinant is evaluated at an integer grid, the last var
    packed into each entry as a power of two, and interpolated back (see
    _det_terms); the columns before the last then lack a pivot exactly
    when no grid point gives them one.
    """
    n = len(m)
    if n == 0:
        return Fraction(1)
    if not vars:
        det = _int_det(m)
        if det is None:
            return Fraction(0)
        value = Fraction(det, scale**n)
        return value if vars is None else MultiPoly((), {(): value})
    terms = _det_terms(m, len(vars))
    if terms is None:
        return Fraction(0)
    return MultiPoly(vars, {e: Fraction(c, scale**n) for e, c in terms.items()})


def _degree_bound(m, v):
    """A bound on the v-degree of det m and of each of its minors: the
    smaller of the sums of the largest v-degree over rows and over columns."""
    deg = [[max((e[v] for e in terms), default=0) for terms in row] for row in m]
    return min(sum(map(max, deg)), sum(map(max, zip(*deg))))


def _det_terms(m, width):
    """{exps: int} terms of det m, m a square matrix of {exps: int} term
    dicts over width >= 1 vars; None when no grid point gives the columns
    before the last a full set of pivots.

    With D_v the degree bound of each var, the last var is packed as 2^B
    and the others run over the grid 0..D_v.  Take as the norm of a
    polynomial the sum of its |coefficient| times D_v to the power of its
    exponent of each grid var (a var with D_v = 0 does not occur).  That
    norm is submultiplicative, so det m has norm, and every coefficient of
    det m absolute value, at most P, the product over rows of max(1, row
    sum of the entries' norms).  The int Bareiss determinants on the grid
    are the values of det m at 2^B, a polynomial in the grid vars with int
    coefficients; these are recovered var by var from their integer finite
    differences (Newton's forward formula), and with B = bitlen(P) + 1
    their balanced base-2^B digits are the coefficients of the last var.
    A nonzero minor of degree at most D_v
    in each grid var cannot vanish on the whole grid, so a point gives the
    columns before the last a full set of pivots exactly when elimination
    over Z[vars] would.
    """
    *grid, top = (_degree_bound(m, v) for v in range(width))
    bound = 1
    for row in m:
        bound *= max(1, sum(abs(c) * prod(map(pow, grid, e[:-1])) for terms in row
                            for e, c in terms.items()))
    shift = bound.bit_length() + 1
    half, mask = 1 << (shift - 1), (1 << shift) - 1
    packed = []
    for row in m:
        out = []
        for terms in row:
            # one packed int per monomial in the grid vars
            by_grid = {}
            for e, c in terms.items():
                by_grid[e[:-1]] = by_grid.get(e[:-1], 0) + (c << shift * e[-1])
            out.append(list(by_grid.items()))
        packed.append(out)
    monomials = {g for row in packed for entry in row for g, _ in entry}
    table, pivoted = {}, False
    for point in product(*(range(d + 1) for d in grid)):
        at = {g: prod(map(pow, point, g)) for g in monomials}
        det = _int_det([[sum(c * at[g] for g, c in entry) for entry in row] for row in packed])
        pivoted = pivoted or det is not None
        table[point] = det or 0
    if not pivoted:
        return None
    for axis, d in enumerate(grid):
        for key in [key for key in table if key[axis] == 0]:
            fiber = [key[:axis] + (x,) + key[axis + 1:] for x in range(d + 1)]
            for at, coeff in zip(fiber, _monomial_coeffs([table[k] for k in fiber])):
                table[at] = coeff
    terms = {}
    for g, value in table.items():
        for k in range(top + 1):
            digit = value & mask
            if digit >= half:
                digit -= mask + 1
            if digit:
                terms[g + (k,)] = digit
            value = (value - digit) >> shift
    return terms


def _monomial_coeffs(values):
    """Coefficients, by power, of the integer polynomial f of degree below
    len(values) with f(x) = values[x] for x = 0, 1, ...

    Newton's forward formula f = sum_k b_k x (x - 1) ... (x - k + 1) has
    b_k = Delta^k f(0) / k!, an exact division for integer f; the falling
    factorials are expanded by Horner's rule from the innermost term.
    """
    diffs, newton, fact = list(values), [], 1
    for k in range(len(values)):
        fact *= k or 1
        newton.append(exact_int_div(diffs[0], fact))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    coeffs = [newton.pop()]
    for k in range(len(newton) - 1, -1, -1):
        # coeffs * (x - k) + b_k
        coeffs = [newton[k] - k * coeffs[0]] + [
            a - k * b for a, b in zip(coeffs, coeffs[1:])] + [coeffs[-1]]
    return coeffs


# -- modular kernel ----------------------------------------------------------

# Primes just below 2^62, largest first.  The first is fixed; later ones are
# found when a call first needs them, and kept.
_PRIMES = [2**62 - 57]
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve primes as bases: exact for odd
    n < 3.3 * 10^24."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(k: int) -> int:
    """The (k + 1)-th largest prime below 2^62."""
    while len(_PRIMES) <= k:
        n = _PRIMES[-1] - 2
        while not _is_prime(n):
            n -= 2
        _PRIMES.append(n)
    return _PRIMES[k]


def _echelon_mod(m, cols, p, jordan=1):
    """(pivot columns, pivot rows) of a row echelon form mod the prime p of
    the block upper-triangular Toeplitz matrix M with block row 0 the int
    rows m, each pivot row scaled to pivot 1 and kept after its pivot
    column: done[r][j - pivots[r] - 1] is its entry in column j < cols.

    M has jordan block rows and blocks of n = cols // jordan columns, and
    block row i is block row 0 moved i blocks right and cut to width; at
    jordan 1, M is m.  Block row 0 is reduced once on its first n columns,
    at full width.  Every block row is spanned by the moved copies of its
    pivot rows, which are in echelon form, and of its defect rows, the rows
    it left zero on those columns (in the last block row they are zero).
    So the elimination goes on over the defect rows alone: a column that
    is a pivot of block 0 in its own block takes that copy's row, and any
    other column the first defect row nonzero there.  At jordan 1 this is
    a plain forward elimination.

    The pivot rows are reduced mod p; the rows still to be reduced are not
    between steps, as each step adds at most p^2 to an entry.
    """
    n = cols // jordan
    rows = [[x % p for x in row] for row in m]
    pivots, done, lead = [], [], {}
    for col in range(cols):
        if col == n:
            rows = [[0] * (i * n + n) + row[n:cols - i * n]
                    for i in range(jordan - 1) for row in rows]
        tail = lead.get(col % n) if col >= n else None
        if tail is None:
            i = next((i for i, row in enumerate(rows) if row[col] % p), None)
            if i is None:
                continue
            top = rows.pop(i)
            inv = pow(top[col], -1, p)
            tail = [x * inv % p for x in top[col + 1:]]
            if col < n:
                lead[col] = tail
        for row in rows:
            a = row[col] % p
            if a:
                row[col + 1:] = [x - a * y for x, y in zip(row[col + 1:], tail)]
        pivots.append(col)
        done.append(tail)
    return pivots, done


def _rref_mod(m, cols, p, jordan=1):
    """(pivot columns, {free column f: its entries in the pivot rows before
    f}) of the reduced row echelon form mod the prime p of M, the matrix
    with block row 0 the int rows m (see _echelon_mod); the dict is empty
    at full column rank.

    The reduced form mod p is unique, so its pivots and entries do not
    depend on the order of the rows, and only the free columns are
    back-substituted: from the last pivot row before f up, each entry is
    minus the row's dot product with the entries found so far and -1 at f.
    """
    pivots, done = _echelon_mod(m, cols, p, jordan)
    found = {}
    for f in sorted(set(range(cols)).difference(pivots)):
        # -1 at f and the entries of f in the later pivot rows at their pivots
        u = [0] * (f + 1)
        u[f] = p - 1
        k = bisect(pivots, f)
        for pc, tail in zip(reversed(pivots[:k]), reversed(done[:k])):
            u[pc] = -sum(map(mul, tail, islice(u, pc + 1, None))) % p
        found[f] = [u[pc] for pc in pivots[:k]]
    return pivots, found


def _reconstruct(u: int, modulus: int):
    """The Fraction a/b with a = u b mod modulus, b prime to modulus and
    |a|, b <= N = isqrt((modulus - 1) // 2), or None.  As 2 N^2 < modulus
    there is at most one; Wang's half extended Euclid finds it at the first
    remainder at most N."""
    bound = isqrt((modulus - 1) // 2)
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _lift(m, pivots, residues, modulus, jordan=1):
    """{free column f: its entries in the pivot rows before f}, rationally
    reconstructed from residues mod modulus, when every entry reconstructs
    and every kernel vector v_f passes the exact check M v_f = 0, M the
    matrix with block row 0 the int rows m (see _echelon_mod); else None.
    Block row i of M times v is block row 0 times v from column i n on."""
    n = len(m[0]) // jordan
    lifted = {}
    for f, column in residues.items():
        values = []
        for u in column:
            q = _reconstruct(u, modulus)
            if q is None:
                return None
            values.append(q)
        den = lcm(*(q.denominator for q in values))
        # den * v_f
        vec = [0] * len(m[0])
        for pc, q in zip(pivots, values):
            vec[pc] = -q.numerator * (den // q.denominator)
        vec[f] = den
        if any(sum(map(mul, row, vec[i * n:])) for i in range(jordan) for row in m):
            return None
        lifted[f] = values
    return lifted


def _modular_rref(m, cols, jordan=1):
    """(pivot columns, {free column f: Fraction entries of f in the pivot
    rows before f}) of the reduced row echelon form of M, the matrix with
    block row 0 the int rows m (see _echelon_mod); the entries in later
    pivot rows are 0.  See ExactMatrix.rref."""
    best, tried = None, 1
    for k in count():
        if k == 1:
            # h2 >= H^2 is the product of the columns' squared norms; M's
            # column j holds block row 0's columns j, j - n, .. down to j % n.
            # Unlucky primes divide one nonzero minor, so they multiply to
            # at most H, and the lucky ones to at most 2 h2 before the last
            n = cols // jordan
            norms = [sum(x * x for x in col) for col in zip(*m)]
            h2 = prod(max(1, sum(norms[j % n:j + 1:n])) for j in range(cols))
            cap = h2 * h2 << 63
        if k and tried > cap:
            raise ArithmeticError("modular rref passed its prime bound")
        p = _prime(k)
        tried *= p
        pivots, found = _rref_mod(m, cols, p, jordan)
        if not found:
            return pivots, {}
        # lists compare in greedy order: the first with a pivot where they
        # differ comes first, cols standing for "no more pivots"
        profile = pivots + [cols]
        if best is None or profile < best:
            # lift from this prime alone
            best, modulus, residues = profile, p, found
        elif profile == best:
            inv = pow(modulus, -1, p)
            for f, column in residues.items():
                column[:] = [x + modulus * ((y - x) * inv % p) for x, y in zip(column, found[f])]
            modulus *= p
        else:
            continue
        lifted = _lift(m, pivots, residues, modulus, jordan)
        if lifted is not None:
            return pivots, lifted


def _full_column_rank(m, cols) -> bool:
    """Whether the int rows m have a pivot in each of their cols columns
    mod the first prime.  True proves full column rank over Q, as rank mod
    p is at most the rank over Q; False proves nothing."""
    return len(_echelon_mod(m, cols, _prime(0))[0]) == cols

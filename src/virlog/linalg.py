"""Exact dense matrices: one fraction-free integer elimination for
determinants, ranks and kernels.

Entries are Coeff = Fraction | MultiPoly.  The matrix is scaled to integer
coefficients and eliminated without fractions: Bareiss (1968) for the
determinant, its Gauss-Jordan form (Nakos, Turner and Williams 1997,
"Fraction-free algorithms for linear and polynomial equations") for the
reduced row echelon form behind rank and kernel, which need rational
entries.  Every intermediate is a minor of the scaled matrix, so each
division is exact in Z and no Fraction is built until the end.

Elimination only ever sees ints.  A determinant over Z[vars] is evaluated
at an integer grid in all vars but the last, which is packed into each
entry as a power of two (Kronecker substitution), and recovered from the
integer determinants by unpacking digits and interpolating over the grid.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product
from math import lcm, prod

from .errors import DomainError, ParseError, ShapeError
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
        before the last has no pivot.  Without variables that is one int
        Bareiss elimination.  Over Z[vars] the determinant is evaluated at
        an integer grid, the last var packed into each entry as a power of
        two, and interpolated back (see _det_terms); the columns before the
        last then lack a pivot exactly when no grid point gives them one.
        """
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return Fraction(1)
        m, scale, vars = _scaled(self.entries)
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

    # -- kernel ------------------------------------------------------------

    def rref(self):
        """(reduced row echelon form, pivot column list); rational entries only.

        Fraction-free Gauss-Jordan on the matrix scaled to integers leaves
        every pivot equal to the last one, d, so the reduced form is the
        scaled matrix over d.
        """
        polys = [x for row in self.entries for x in row if isinstance(x, MultiPoly)]
        if not all(p.is_constant() for p in polys):
            raise DomainError("kernel computation needs rational entries")
        m, _, _ = _scaled([
            [x.constant_value() if isinstance(x, MultiPoly) else x for x in row]
            for row in self.entries
        ])
        pivots, _ = _eliminate(m, self.cols, True)
        d = m[len(pivots) - 1][pivots[-1]] if pivots else 1
        return ExactMatrix([[Fraction(x, d) for x in row] for row in m]), pivots

    def null_space(self):
        """Basis of the right kernel, one vector per free column.

        Each basis vector carries a 1 in its free column, so the result is
        deterministic and convenient for normalization downstream.
        """
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for f in free:
            vec = [Fraction(0)] * self.cols
            vec[f] = Fraction(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -reduced.entries[r][f]
            basis.append(vec)
        return basis

    def rank(self) -> int:
        _, pivots = self.rref()
        return len(pivots)

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


# -- fraction-free elimination ----------------------------------------------


def exact_int_div(a: int, b: int) -> int:
    """Integer quotient a / b; raises DomainError unless b divides a."""
    q, r = divmod(a, b)
    if r:
        raise DomainError("inexact division")
    return q


def _scaled(entries):
    """(rows, D, vars): the entries times D, the lcm of all coefficient
    denominators, and vars, the union of the entries' vars (None when no
    entry is a MultiPoly).  The rows hold ints when vars is empty, else
    {exps: int} term dicts over vars."""
    polys = [x for row in entries for x in row if isinstance(x, MultiPoly)]
    vars = reduce(merge_vars, (p.vars for p in polys), ()) if polys else None
    if not vars:
        values = [[x.constant_value() if isinstance(x, MultiPoly) else x for x in row]
                  for row in entries]
        scale = lcm(*(x.denominator for row in values for x in row))
        m = [[x.numerator * (scale // x.denominator) for x in row] for row in values]
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


def _eliminate(m, cols, reduced):
    """Fraction-free elimination, in place, of the int rows m over the
    columns before cols; returns (pivot columns, sign of the row swaps).

    A column's pivot is its first nonzero entry at or below the next pivot
    row, swapped up; a column without one is skipped.  Each row below the
    pivot, or with reduced each other row, becomes (piv * row - a * top) /
    prev, a being its entry in the pivot column and prev the previous pivot;
    the division is exact.  Reduced rows are updated whole, free columns
    left of the pivot included, so all pivots end equal to the last one.
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
        for row in m if reduced else m[r + 1:]:
            if row is not top:
                a = row[col]
                for j in range(0 if reduced else col + 1, len(row)):
                    row[j] = exact_int_div(piv * row[j] - a * top[j], prev)
        prev = piv
        pivots.append(col)
        r += 1
    return pivots, sign


def _int_det(m):
    """Bareiss determinant of the square int rows m, eliminated in place;
    None when a column before the last has no pivot."""
    n = len(m)
    pivots, sign = _eliminate(m, n - 1, False)
    return sign * m[n - 1][n - 1] if len(pivots) == n - 1 else None


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
    and the others run over the grid 0..D_v.  At a grid point every entry
    is an integer polynomial in the last var whose coefficients, and those
    of every minor, are at most P in absolute value, P being the product
    over rows of max(1, row sum of the entries' coefficient norms) at the
    grid's far corner.  With B = bitlen(P) + 1 the balanced base-2^B digits of the
    int Bareiss determinant are the coefficients.  Each coefficient of the
    last var, known on the grid, is recovered var by var from its integer
    finite differences (Newton's forward formula) and converted to
    monomials.  A nonzero minor of degree at most D_v in each grid var
    cannot vanish on the whole grid, so a point gives the columns before
    the last a full set of pivots exactly when elimination over Z[vars]
    would.
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
    table, pivoted = {}, False
    for point in product(*(range(d + 1) for d in grid)):
        powers = [[x**k for k in range(d + 1)] for x, d in zip(point, grid)]
        det = _int_det([
            [sum(prod(map(list.__getitem__, powers, g), start=c) for g, c in entry)
             for entry in row]
            for row in packed
        ])
        pivoted = pivoted or det is not None
        det = det or 0
        for k in range(top + 1):
            digit = det & mask
            if digit >= half:
                digit -= mask + 1
            table[point + (k,)] = digit
            det = (det - digit) >> shift
    if not pivoted:
        return None
    for axis, d in enumerate(grid):
        for key in [key for key in table if key[axis] == 0]:
            fiber = [key[:axis] + (x,) + key[axis + 1:] for x in range(d + 1)]
            for at, coeff in zip(fiber, _monomial_coeffs([table[k] for k in fiber])):
                table[at] = coeff
    return {e: c for e, c in table.items() if c}


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

"""Exact dense matrices: one fraction-free elimination for determinants,
ranks and kernels.

Entries are Coeff = Fraction | MultiPoly.  The matrix is scaled to integer
coefficients and eliminated without fractions: Bareiss (1968) for the
determinant, its Gauss-Jordan form (Nakos, Turner and Williams 1997,
"Fraction-free algorithms for linear and polynomial equations") for the
reduced row echelon form behind rank and kernel, which need rational
entries.  Every intermediate is a minor of the scaled matrix, so each
division is exact in Z or Z[vars] and no Fraction is built until the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm

from .errors import DomainError, ParseError, ShapeError
from .polynomial import (
    Coeff,
    MultiPoly,
    accumulate,
    coeff_from_json,
    coeff_to_json,
    divexact_terms,
    exact_int_div,
    merge_vars,
    mul_terms,
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

    def matvec(self, vec):
        if len(vec) != self.cols:
            raise ShapeError("vector length does not match column count")
        return [
            sum((self.entries[i][j] * vec[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        ]

    # -- determinant -------------------------------------------------------

    def determinant(self) -> Coeff:
        """Bareiss fraction-free determinant over integer coefficients.

        The result is sign * det / D**n, from the last diagonal entry of the
        scaled matrix after elimination: a Fraction when no entry is a
        MultiPoly, else a MultiPoly over the union of the entries' vars, and
        Fraction(0) when a column before the last has no pivot.
        """
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return Fraction(1)
        m, scale, vars = _scaled(self.entries)
        pivots, sign = _eliminate(m, n - 1, False, vars)
        if len(pivots) < n - 1:
            return Fraction(0)
        last, denom = m[n - 1][n - 1], scale**n
        if vars is None:
            return Fraction(sign * last, denom)
        return MultiPoly(vars, {e: Fraction(sign * c, denom) for e, c in last.items()})

    def determinant_cofactor(self) -> Coeff:
        """Laplace expansion; exponential, kept as an independent cross-check."""
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return Fraction(1)
        if n == 1:
            return self.entries[0][0]
        total: Coeff = Fraction(0)
        for j in range(n):
            a = self.entries[0][j]
            if not a:
                continue
            minor = ExactMatrix(
                [
                    [self.entries[i][jj] for jj in range(n) if jj != j]
                    for i in range(1, n)
                ]
            )
            term = a * minor.determinant_cofactor()
            total = total + (-term if j % 2 else term)
        return total

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
        m, _, vars = _scaled([
            [x.constant_value() if isinstance(x, MultiPoly) else x for x in row]
            for row in self.entries
        ])
        pivots, _ = _eliminate(m, self.cols, True, vars)
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


def _scaled(entries):
    """(rows, D, vars): the entries times D, the lcm of all coefficient
    denominators; ints with vars None when no entry is a MultiPoly, else
    {exps: int} term dicts over vars, the union of the entries' vars."""
    polys = [x for row in entries for x in row if isinstance(x, MultiPoly)]
    if not polys:
        scale = lcm(*(x.denominator for row in entries for x in row))
        m = [[x.numerator * (scale // x.denominator) for x in row] for row in entries]
        return m, scale, None
    vars = reduce(merge_vars, (p.vars for p in polys), ())
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


def _int_step(piv, a, row, top, prev, start):
    for j in range(start, len(row)):
        row[j] = exact_int_div(piv * row[j] - a * top[j], prev)


def _terms_step(piv, a, row, top, prev, start):
    neg_a = {e: -c for e, c in a.items()}
    for j in range(start, len(row)):
        num = mul_terms(piv, row[j])
        if neg_a and top[j]:
            num = accumulate(mul_terms(neg_a, top[j]).items(), num)
        row[j] = divexact_terms(num, prev, exact_int_div)


def _eliminate(m, cols, reduced, vars):
    """Fraction-free elimination, in place, of the scaled rows m over the
    columns before cols; returns (pivot columns, sign of the row swaps).

    A column's pivot is its first nonzero entry at or below the next pivot
    row, swapped up; a column without one is skipped.  Each row below the
    pivot, or with reduced each other row, becomes (piv * row - a * top) /
    prev, a being its entry in the pivot column and prev the previous pivot;
    the division is exact.  Reduced rows are updated whole, free columns
    left of the pivot included, so all pivots end equal to the last one.
    """
    if vars is None:
        step, prev = _int_step, 1
    else:
        step, prev = _terms_step, {(0,) * len(vars): 1}
    sign, r, pivots = 1, 0, []
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
                step(piv, row[col], row, top, prev, 0 if reduced else col + 1)
        prev = piv
        pivots.append(col)
        r += 1
    return pivots, sign

"""Exact dense matrices: fraction-free determinants and rational kernels.

Entries are Coeff = Fraction | MultiPoly.  The determinant uses Bareiss
one-step fraction-free elimination (Bareiss 1968, "Sylvester's identity and
multistep integer-preserving Gaussian elimination") on the matrix scaled to
integer coefficients: every intermediate is a minor of the scaled matrix, so
each interior division is exact in Z[vars] and no Fraction is built until
the end.  Kernel computation is plain reduced row echelon over the rationals
and therefore requires Fraction entries.
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

        Every entry is aligned to the union of the entries' vars and scaled
        by D, the lcm of all coefficient denominators, into an {exps: int}
        term dict; elimination then runs on those dicts and divides exactly
        in Z[vars].  The result is sign * det / D**n: a Fraction when no
        entry is a MultiPoly, else a MultiPoly over that union of vars, and
        Fraction(0) when a pivot column is zero.
        """
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return Fraction(1)
        polys = [x for row in self.entries for x in row if isinstance(x, MultiPoly)]
        vars = reduce(merge_vars, (p.vars for p in polys), ())
        rows = [
            [x._aligned(vars) if isinstance(x, MultiPoly) else {(0,) * len(vars): x} if x else {}
             for x in row]
            for row in self.entries
        ]
        scale = lcm(*(c.denominator for row in rows for terms in row for c in terms.values()))
        m = [
            [{e: c.numerator * (scale // c.denominator) for e, c in terms.items()} for terms in row]
            for row in rows
        ]
        sign = 1
        prev = {(0,) * len(vars): 1}
        for k in range(n - 1):
            if not m[k][k]:
                pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
                if pivot is None:
                    return Fraction(0)
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            top = m[k]
            pivot_terms = top[k]
            for row in m[k + 1:]:
                neg_below = {e: -c for e, c in row[k].items()}
                for j in range(k + 1, n):
                    num = mul_terms(pivot_terms, row[j])
                    if neg_below and top[j]:
                        num = accumulate(mul_terms(neg_below, top[j]).items(), num)
                    row[j] = divexact_terms(num, prev, exact_int_div)
            prev = pivot_terms
        denom = scale**n
        det = {e: Fraction(sign * c, denom) for e, c in m[n - 1][n - 1].items()}
        if polys:
            return MultiPoly(vars, det)
        return det.get((), Fraction(0))

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

    def _require_rational(self):
        for row in self.entries:
            for x in row:
                if isinstance(x, MultiPoly) and not x.is_constant():
                    raise DomainError("kernel computation needs rational entries")

    def rref(self):
        """(reduced matrix, pivot column list); rational entries only."""
        self._require_rational()
        m = [
            [Fraction(x.constant_value()) if isinstance(x, MultiPoly) else Fraction(x) for x in row]
            for row in self.entries
        ]
        pivots = []
        r = 0
        for col in range(self.cols):
            pivot_row = next((i for i in range(r, self.rows) if m[i][col] != 0), None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = Fraction(1) / m[r][col]
            m[r] = [x * inv for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][col] != 0:
                    factor = m[i][col]
                    m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
            pivots.append(col)
            r += 1
            if r == self.rows:
                break
        return ExactMatrix(m), pivots

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

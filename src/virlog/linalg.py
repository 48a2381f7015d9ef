"""Exact dense matrices: fraction-free determinants and rational kernels.

Entries are Coeff = Fraction | MultiPoly.  The determinant uses Bareiss
one-step fraction-free elimination, whose interior divisions are exact over
the polynomial ring; that keeps symbolic Gram determinants factored-size
instead of blowing up through the field of fractions.  Kernel computation is
plain reduced row echelon over the rationals and therefore requires Fraction
entries.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, ParseError, ShapeError
from .polynomial import (
    Coeff,
    MultiPoly,
    coeff_from_json,
    coeff_to_json,
    is_zero_coeff,
    render_coeff,
)


def _div_exact(a: Coeff, b: Coeff) -> Coeff:
    if isinstance(b, MultiPoly):
        if b.is_constant():
            b = b.constant_value()
        else:
            if isinstance(a, MultiPoly):
                return a.divexact(b)
            if a == 0:
                return Fraction(0)
            raise DomainError("inexact division of a scalar by a polynomial")
    if b == 0:
        raise ZeroDivisionError("exact division by zero")
    inv = Fraction(1) / Fraction(b)
    return a * inv


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

    def __setitem__(self, key, value):
        i, j = key
        self.entries[i][j] = value

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

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    @classmethod
    def stack_rows(cls, *mats: "ExactMatrix") -> "ExactMatrix":
        cols = {m.cols for m in mats}
        if len(cols) != 1:
            raise ShapeError(f"column counts differ: {sorted(cols)}")
        out = []
        for m in mats:
            out.extend(m.entries)
        return cls(out)

    def matvec(self, vec):
        if len(vec) != self.cols:
            raise ShapeError("vector length does not match column count")
        return [
            sum((self.entries[i][j] * vec[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        ]

    # -- determinant -------------------------------------------------------

    def determinant(self) -> Coeff:
        """Bareiss fraction-free determinant (exact interior divisions)."""
        if self.rows != self.cols:
            raise ShapeError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return Fraction(1)
        m = [row[:] for row in self.entries]
        sign = 1
        prev: Coeff = Fraction(1)
        for k in range(n - 1):
            if is_zero_coeff(m[k][k]):
                pivot = next(
                    (i for i in range(k + 1, n) if not is_zero_coeff(m[i][k])), None
                )
                if pivot is None:
                    return Fraction(0)
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = _div_exact(
                        m[k][k] * m[i][j] - m[i][k] * m[k][j], prev
                    )
                m[i][k] = Fraction(0)
            prev = m[k][k]
        det = m[n - 1][n - 1]
        return -det if sign < 0 else det

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
            if is_zero_coeff(a):
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

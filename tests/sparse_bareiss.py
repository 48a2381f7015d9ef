"""Sparse Bareiss elimination over Q[vars]: the reference the tests check
ExactMatrix.determinant against.

It eliminates {exps: Fraction} term dicts directly, with no evaluation or
interpolation, so it shares nothing with the packed route but the term
dict helpers of virlog.polynomial.  It follows the same result rules: a
Fraction when no entry is a MultiPoly, else a MultiPoly over the union of
the entries' vars, and Fraction(0) when a column before the last has no
pivot.
"""

from fractions import Fraction
from functools import reduce

from virlog.polynomial import MultiPoly, accumulate, divexact_terms, merge_vars, mul_terms


def sparse_bareiss(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    polys = [x for row in rows for x in row if isinstance(x, MultiPoly)]
    vars = reduce(merge_vars, (p.vars for p in polys), ())
    m = [[(x if isinstance(x, MultiPoly) else MultiPoly.const(x))._aligned(vars) for x in row]
         for row in rows]
    sign, prev = 1, {(0,) * len(vars): Fraction(1)}
    for col in range(n - 1):
        p = next((i for i in range(col, n) if m[i][col]), None)
        if p is None:
            return Fraction(0)
        if p != col:
            m[col], m[p] = m[p], m[col]
            sign = -sign
        top = m[col]
        piv = top[col]
        for row in m[col + 1:]:
            neg_a = {e: -c for e, c in row[col].items()}
            for j in range(col + 1, n):
                num = accumulate(mul_terms(neg_a, top[j]).items(), mul_terms(piv, row[j]))
                row[j] = divexact_terms(num, prev)
        prev = piv
    det = {e: sign * c for e, c in m[n - 1][n - 1].items()}
    if not polys:
        return det.get((), Fraction(0))
    return MultiPoly(vars, det)

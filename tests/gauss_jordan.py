"""Fraction-free Gauss-Jordan elimination in Z: the reference the tests
check the modular ExactMatrix.rref against.

The rational rows are scaled to integers and eliminated without fractions
(Nakos, Turner and Williams 1997, "Fraction-free algorithms for linear and
polynomial equations"): each row other than the pivot row becomes
(piv * row - a * top) / prev, an exact division, so every pivot ends equal
to the last one, d, and the reduced form is the scaled matrix over d.  It
shares no prime, reconstruction or check with the modular kernel.
"""

from fractions import Fraction
from math import lcm


def int_gauss_jordan(rows):
    """(reduced row echelon form as rows of Fraction, pivot columns) of the
    rows of Fraction or int entries."""
    scale = lcm(*(x.denominator for row in rows for x in row))
    m = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    r, prev, pivots = 0, 1, []
    for col in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][col]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        top = m[r]
        piv = top[col]
        for row in m:
            if row is not top:
                a = row[col]
                for j in range(len(row)):
                    q, rem = divmod(piv * row[j] - a * top[j], prev)
                    assert not rem, "inexact division"
                    row[j] = q
        prev = piv
        pivots.append(col)
        r += 1
    d = m[r - 1][pivots[-1]] if pivots else 1
    return [[Fraction(x, d) for x in row] for row in m], pivots

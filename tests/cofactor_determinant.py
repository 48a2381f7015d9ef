"""Laplace expansion along the first row: the exponential cross-check the
tests hold ExactMatrix.determinant and sparse Bareiss to.

It takes a square list of rows of Fraction and MultiPoly entries and uses
nothing of virlog but their ring operations, so it is kept to small
matrices.
"""

from fractions import Fraction


def determinant_cofactor(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, a in enumerate(rows[0]):
        if not a:
            continue
        term = a * determinant_cofactor([row[:j] + row[j + 1:] for row in rows[1:]])
        total = total + (-term if j % 2 else term)
    return total

"""The product route to the Virasoro bracket and the per-generator route to
the logarithmic Witt bracket: the references the tests check the memoized
commutator tables of virlog.virasoro and virlog.wlog against.

product_bracket is a * b - b * a in the enveloping algebra: two products,
each straightened term by term, and a subtraction, with no commutator
table.  generator_bracket is the printed formula

    [t^(i)(m), t^(j)(n)] = (m-n) t^(i+j)(m+n) + (j-i) t^(i+j-1)(m+n) + w(a, b) b

with the cocycle function w called afresh on every pair, and
bilinear_bracket sums it over the terms of two elements.  Neither reads a
bracket or cocycle memo; they share with the package only the element
classes, straightening and the cocycle functions themselves.
"""

from fractions import Fraction

from virlog.wlog import _COCYCLES, CENTRAL, WLogElement


def product_bracket(a, b):
    """[a, b] of two UEAElements as a * b - b * a."""
    return a * b - b * a


def generator_bracket(a, b, cocycle: str) -> WLogElement:
    """[a, b] of two generators (i, m) or CENTRAL, by the printed formula."""
    if a == CENTRAL or b == CENTRAL:
        return WLogElement()
    (i, m), (j, n) = a, b
    return WLogElement(
        {(i + j, m + n): Fraction(m - n), (i + j - 1, m + n): Fraction(j - i)},
        _COCYCLES[cocycle](a, b),
    )


def bilinear_bracket(x: WLogElement, y: WLogElement, cocycle: str) -> WLogElement:
    """[x, y] of two elements, summed pair by pair over their terms."""
    total = WLogElement()
    for g1, c1 in x.terms.items():
        for g2, c2 in y.terms.items():
            total = total + generator_bracket(g1, g2, cocycle).scale(c1 * c2)
    return total

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

Two more references replace integer cores of virlog.wlog.
closed_form_by_fractions is the printed closed-form cocycle summed term by
term in Fractions, each term over its own denominator; cocycle_closed_form
sums the same terms in ints over one common denominator.
jacobi_by_elements is the Jacobi scan that builds each cyclic sum from
wlog_bracket on elements; check_jacobi sums the same triples straight from
the structure constants.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

from virlog.errors import DomainError
from virlog.wlog import _COCYCLES, CENTRAL, WLogElement, _check_generator, wlog_bracket


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


def closed_form_by_fractions(a, b) -> Fraction:
    """The printed closed-form cocycle, one Fraction per term."""
    a, b = _check_generator(a), _check_generator(b)
    if a == CENTRAL or b == CENTRAL:
        return Fraction(0)
    (a1, p1), (a2, p2) = a, b
    i, m = 1 - a1, -p1
    j, n = 1 - a2, -p2
    if i < 0 or j < 0:
        raise DomainError("log index above 1: use residue cocycle")
    total = Fraction(0)
    for r in range(i + j + 1):
        kernel = (i - r) ** 3 - (i - r)
        if kernel == 0:
            continue
        total += Fraction(m**r * n ** (i + j - r) * kernel) / (
            12 * math.factorial(i + j - r) * math.factorial(r)
        )
    return total


def jacobi_by_elements(bound: int, cocycle: str) -> dict:
    """The report of check_jacobi, each cyclic sum built as an element."""
    gens = [(i, m) for i in range(-bound, bound + 1) for m in range(-bound, bound + 1)]
    checked = skipped = 0
    violations = []
    for x, y, z in combinations_with_replacement(gens, 3):
        try:
            total = (
                wlog_bracket(wlog_bracket(x, y, cocycle), z, cocycle)
                + wlog_bracket(wlog_bracket(y, z, cocycle), x, cocycle)
                + wlog_bracket(wlog_bracket(z, x, cocycle), y, cocycle)
            )
        except DomainError:
            skipped += 1
            continue
        checked += 1
        if not total.is_zero():
            violations.append([list(x), list(y), list(z)])
    return {
        "bound": bound,
        "cocycle": cocycle,
        "checked": checked,
        "skipped": skipped,
        "violations": violations,
    }

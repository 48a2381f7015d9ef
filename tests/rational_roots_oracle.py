"""Rational roots by divisor enumeration: the reference the tests check
polynomial.rational_roots against.

Every rational root a/b of an integer polynomial has a | trailing and
b | leading coefficient, so it tries each such candidate in Fraction
arithmetic and divides each root out as often as it goes, by its own
synthetic division.  It shares nothing with the real-root isolation of the
package but UniPoly, and it takes time of the order of the square root of
the two coefficients, so the tests keep its inputs small.
"""

from fractions import Fraction
from math import gcd, lcm

from virlog.polynomial import UniPoly


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _divide_linear(p: UniPoly, r: Fraction):
    """(q, p(r)) with p = (x - r) q + p(r), by synthetic division."""
    acc, coeffs = Fraction(0), []
    for c in reversed(p.coeffs):
        acc = acc * r + c
        coeffs.append(acc)
    rem = coeffs.pop()
    return UniPoly(p.var, coeffs[::-1]), rem


def rational_roots_by_divisors(p: UniPoly):
    """(roots, residual) as rational_roots returns them."""
    roots = []
    work = p.monic()

    # split off the power of x first
    k = 0
    while work.degree() >= 1 and work.coeff(0) == 0:
        work, _ = _divide_linear(work, Fraction(0))
        k += 1
    if k:
        roots.append((Fraction(0), k))

    if work.degree() >= 1:
        den = lcm(*[c.denominator for c in work.coeffs])
        ints = [int(c * den) for c in work.coeffs]
        g = gcd(*ints)
        ints = [v // g for v in ints]
        trailing, leading = ints[0], ints[-1]
        seen = set()
        for a in _divisors(trailing):
            for b in _divisors(leading):
                for cand in (Fraction(a, b), Fraction(-a, b)):
                    if cand in seen:
                        continue
                    seen.add(cand)
                    mult = 0
                    q, rem = _divide_linear(work, cand)
                    while not rem:
                        work, mult = q, mult + 1
                        q, rem = _divide_linear(work, cand)
                    if mult:
                        roots.append((cand, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, work.monic()

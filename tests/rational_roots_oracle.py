"""Rational roots by divisor enumeration: the reference the tests check
polynomial.rational_roots against.

Every rational root a/b of an integer polynomial has a | trailing and
b | leading coefficient, so it tries each such candidate in Fraction
arithmetic and divides each root out as often as it goes.  It shares
nothing with the real-root isolation of the package but UniPoly, and it
takes time of the order of the square root of the two coefficients, so
the tests keep its inputs small.
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


def rational_roots_by_divisors(p: UniPoly):
    """(roots, residual) as rational_roots returns them."""
    var = p.var
    roots = []
    work = p.monic()

    # split off the power of x first
    k = 0
    while work.degree() >= 1 and work.coeff(0) == 0:
        work = work.divexact(UniPoly.x(var))
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
                    if work.evaluate(cand) == 0:
                        mult = 0
                        factor = UniPoly(var, (-cand, 1))
                        while True:
                            q, r = work.divmod(factor)
                            if not r.is_zero():
                                break
                            work = q
                            mult += 1
                        roots.append((cand, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, work.monic()

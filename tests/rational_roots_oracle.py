"""Rational roots by divisor enumeration: the reference the tests check
polynomial.rational_roots against.

Every rational root a/b in lowest terms of an integer polynomial has
a | trailing and b | leading coefficient.  The caller names the primes
that can divide those coefficients; the divisors are built from them, and
the oracle fails unless they factor both coefficients up to sign.  It
tries the candidates a/b in Fraction arithmetic, smallest a first, and
divides the first root it finds out as often as it goes, by its own
synthetic division; then it starts again on the deflated polynomial,
whose coefficients have fewer divisors.  It shares nothing with the
real-root isolation of the package but UniPoly.
"""

from fractions import Fraction
from math import gcd, lcm

from virlog.polynomial import UniPoly


def _divisors(n: int, primes):
    """The positive divisors of n != 0, built from the primes, which must
    factor n up to sign."""
    divisors = [1]
    for q in primes:
        e = 0
        while n % q == 0:
            n, e = n // q, e + 1
        divisors = [d * q**k for d in divisors for k in range(e + 1)]
    assert abs(n) == 1, f"the primes leave the cofactor {n}"
    return sorted(divisors)


def _divide_linear(p: UniPoly, r: Fraction):
    """(q, p(r)) with p = (x - r) q + p(r), by synthetic division."""
    acc, coeffs = Fraction(0), []
    for c in reversed(p.coeffs):
        acc = acc * r + c
        coeffs.append(acc)
    rem = coeffs.pop()
    return UniPoly(p.var, coeffs[::-1]), rem


def _first_root(p: UniPoly, primes):
    """The first candidate a/b that is a root of p (degree >= 1, p(0) != 0),
    or None."""
    den = lcm(*[c.denominator for c in p.coeffs])
    ints = [int(c * den) for c in p.coeffs]
    for a in _divisors(ints[0], primes):
        for b in _divisors(ints[-1], primes):
            if gcd(a, b) == 1:
                for cand in (Fraction(a, b), Fraction(-a, b)):
                    if not _divide_linear(p, cand)[1]:
                        return cand
    return None


def rational_roots_by_divisors(p: UniPoly, primes):
    """(roots, residual) as rational_roots returns them; primes must
    include every prime that divides p's leading or trailing coefficient
    once p is scaled to a primitive integer polynomial."""
    roots = []
    work = p.monic()

    # split off the power of x first
    k = 0
    while work.degree() >= 1 and work.coeff(0) == 0:
        work, _ = _divide_linear(work, Fraction(0))
        k += 1
    if k:
        roots.append((Fraction(0), k))

    while work.degree() >= 1:
        root = _first_root(work, primes)
        if root is None:
            break
        mult = 0
        q, rem = _divide_linear(work, root)
        while not rem:
            work, mult = q, mult + 1
            q, rem = _divide_linear(work, root)
        roots.append((root, mult))
    roots.sort(key=lambda rm: rm[0])
    return roots, work.monic()

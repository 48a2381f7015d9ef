"""Dense integer polynomials and exact isolation of their real roots.

A polynomial here is a list of ints, lowest degree first, with a nonzero
last entry.  polynomial.rational_roots works on these: it clears the
denominators of a UniPoly, isolates the real roots of its squarefree part
by Sturm sequences and refines each isolating interval until the root is
shown rational or not.  polynomial.is_squarefree, behind the logarithmic
flag of a fusion polynomial, reads the gcd(f, f') that ends the same
remainder sequence.  Every step is exact integer arithmetic; dyadic points
num / 2^e are evaluated homogeneously, as 2^(e deg) f(num / 2^e).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def content_free(f: list) -> list:
    """f divided by the gcd of its coefficients, signs kept."""
    g = gcd(*f)
    return f if g == 1 else [c // g for c in f]


def _prem(a: list, b: list) -> list:
    """A positive multiple of the remainder of a by b, in ints; b[-1] > 0."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) > db:
        lr = r.pop()
        shift = len(r) - db
        r = [lb * c for c in r]
        for i in range(db):
            r[shift + i] -= lr * b[i]
        while r and not r[-1]:
            r.pop()
    return r


def divexact_int(f: list, d: list):
    """f / d in ints, or None when d does not divide f.

    d must be primitive, so that d | f over Q means d | f over Z.
    """
    r = list(f)
    dd, ld = len(d) - 1, d[-1]
    q = [0] * (len(f) - dd)
    for pos in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[pos + dd], ld)
        if rem:
            return None
        q[pos] = c
        for i in range(dd):
            r[pos + i] -= c * d[i]
    return None if any(r[:dd]) else q


def _remainder_sequence(f: list) -> list:
    """The primitive remainder sequence of f and f' (Collins 1967).

    Each member after the first two is the negated remainder of the two
    before it, made primitive; the last one is gcd(f, f') up to sign, or
    the empty list when f is constant.
    """
    chain = [f, content_free([i * c for i, c in enumerate(f)][1:])]
    while len(chain[-1]) > 1:
        b = chain[-1]
        r = _prem(chain[-2], b if b[-1] > 0 else [-c for c in b])
        if not r:
            break
        chain.append(content_free([-c for c in r]))
    return chain


def is_squarefree_int(f: list) -> bool:
    """Whether f has no repeated complex root, that is gcd(f, f') is constant."""
    return len(_remainder_sequence(f)[-1]) <= 1


def sturm_chain(f: list) -> list:
    """Sturm sequence of the squarefree part g of f, g first.

    Each member of the remainder sequence of f and f', divided by its last
    member gcd(f, f'), is a positive or negative multiple, the same sign for
    all members at any point, of the Sturm sequence of g.
    """
    chain = _remainder_sequence(f)
    d = chain[-1]
    if len(d) > 1:
        chain = [divexact_int(s, d) for s in chain]
    return chain


def _hom_value(f: list, num: int, den: int) -> int:
    """den^deg(f) * f(num / den), by Horner in ints."""
    acc, pw = f[-1], 1
    for c in f[-2::-1]:
        pw *= den
        acc = acc * num + c * pw
    return acc


def _variations(chain: list, num: int, den: int) -> int:
    """Sign changes along the chain at num / den (den > 0), zeros skipped."""
    count, last = 0, 0
    for s in chain:
        v = _hom_value(s, num, den)
        if v:
            if last and (v < 0) != (last < 0):
                count += 1
            last = v
    return count


def _refine(g: list, lo: int, hi: int, den: int):
    """The root of g in (lo/den, hi/den] if it is rational, else None.

    The interval holds exactly one root, a simple one.  A rational root of
    g has a denominator dividing L = |lc(g)|, so it is one of the k / L in
    the interval: shrink the interval until at most one is left, and test
    that one.

    The shrinking is Abbott's quadratic interval refinement.  The secant
    through the ends picks one of n = 2^t equal cells of the interval.  If
    the signs of g at the cell's ends show the root in it, the cell is the
    new interval and t doubles; if not, they show which side of the cell
    the root is on, and t halves.  Near the root a success doubles the bits
    known, so the steps grow with log log L rather than log L.
    """
    L, deg = abs(g[-1]), len(g) - 1
    at_lo, at_hi = _hom_value(g, lo, den), _hom_value(g, hi, den)
    if not at_hi:
        return Fraction(hi, den)
    neg = at_hi < 0  # the sign of g on (root, hi]; on (lo, root) it is the other
    t = 1
    while True:
        k_lo, k_hi = lo * L // den, hi * L // den
        if k_hi - k_lo <= 1:
            if k_hi > k_lo and not _hom_value(g, k_hi, L):
                return Fraction(k_hi, L)
            return None
        # at_lo may be 0 (a root left of the interval), never at_hi
        n, width = 1 << t, hi - lo
        cell = n * at_lo // (at_lo - at_hi)
        a, den = lo * n + cell * width, den * n
        b = a + width
        at_lo, at_hi = at_lo << t * deg, at_hi << t * deg
        at_a = at_lo if cell == 0 else _hom_value(g, a, den)
        at_b = at_hi if cell == n - 1 else _hom_value(g, b, den)
        if cell and not at_a:
            return Fraction(a, den)
        if not at_b:
            return Fraction(b, den)
        if (at_b < 0) != neg:
            lo, hi, at_lo, t = b, hi * n, at_b, max(1, t // 2)
        elif cell and (at_a < 0) == neg:
            lo, hi, at_hi, t = lo * n, a, at_a, max(1, t // 2)
        else:
            lo, hi, at_lo, at_hi, t = a, b, at_a, at_b, 2 * t


def _root_bound_exponent(g: list) -> int:
    """E >= 0 with every complex root of g below 2^E in absolute value.

    Fujiwara's bound 2 max_i |c_(n-i) / c_n|^(1/i), rounded up to a power
    of two from bit lengths: |c_(n-i) / c_n| < 2^(len(c_(n-i)) - len(c_n) + 1).
    """
    top = abs(g[-1]).bit_length()
    return max(0, 1 + max(
        -((top - abs(c).bit_length() - 1) // i) for i, c in enumerate(g[-2::-1], 1) if c
    ))


def squarefree_rational_roots(chain: list) -> list:
    """The rational roots, ascending, of g = chain[0], squarefree.

    Sturm's theorem counts the distinct real roots in (lo, hi] as the drop
    in sign changes of the chain from lo to hi.  Bisect (-2^E, 2^E] at
    dyadic points until each interval holds one root, then refine that
    interval.  Each rational root found is divided out of g, so later
    refinements run on a smaller g with a smaller leading coefficient;
    the chain stays that of the original g, and an interval holding one
    root of that g not yet found holds exactly that root of the quotient.
    """
    g = chain[0]
    bound = 1 << _root_bound_exponent(g)
    found = []
    stack = [(-bound, bound, 1, _variations(chain, -bound, 1), _variations(chain, bound, 1))]
    while stack:
        lo, hi, den, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            root = _refine(g, lo, hi, den)
            if root is not None:
                found.append(root)
                g = content_free(divexact_int(g, [-root.numerator, root.denominator]))
        elif v_lo > v_hi:
            mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
            v_mid = _variations(chain, mid, den)
            stack.append((mid, hi, den, v_mid, v_hi))
            stack.append((lo, mid, den, v_lo, v_mid))
    return found

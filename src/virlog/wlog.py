"""The logarithmic Witt algebra, its central extensions, and vacuum
expectation values.

Generators t^(i)(m) carry a log index i and a mode m, with bracket

    [t^(i)(m), t^(j)(n)] = (m-n) t^(i+j)(m+n) + (j-i) t^(i+j-1)(m+n)

plus an optional central term: either the printed closed-form cocycle
(valid only for log indices <= 1) or the Gelfand-Fuchs residue cocycle
(1/12) Res(f''' g), which is defined everywhere and serves as ground truth.
cocycle_residue computes the residue cocycle from its four-term Leibniz
closed form in exact integers.  Its independent check is the vector-field
realization t^(i)(m) -> t^i exp(-mt) d/dt: LaurentField takes the three
derivatives, the product and the residue term by term, and the tests hold
the two routes equal.  The printed closed form and the residue cocycle
differ by a global sign on every nonzero pair we can compare;
wlog_deviations collects those pairs.

The central element b is one more basis vector: a WLogElement is a
Combination over the keys (i, m) and CENTRAL, and wlog_bracket extends the
generator bracket bilinearly over elements, with b bracketing to zero.
The generator bracket, the element bracket, check_jacobi and
vacuum_expectation take their terms from one kernel, _bracket_terms, the
one place that knows where the terms of a bracket go: it gives each
generator key of the bracket with its coefficient, m - n or j - i as an
int, and the cocycle value from _COCYCLE_MEMO, a table keyed by the
generator pair and the cocycle function.  A cocycle that raises stores
nothing there.

Coefficients run as ints where they are integral and come back as
Fractions: both cocycles are summed in ints over one common denominator,
and check_jacobi sums each cyclic triple straight from the kernel without
building elements, its generator part in ints.  The bracket itself
multiplies the coefficients of its arguments as they come and turns each
int structure constant into a Fraction, so every coefficient of its
result is a Fraction or a MultiPoly.

The vacuum vector v_b is annihilated by every generator with mode m >= 0,
generators with m < 0 create, and the central element acts by the symbol
b.  This is the convention under which the printed pairing value 2b/3
comes out on the nose; see the vacuum_expectation docstring.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import DomainError, ParseError
from .polynomial import (
    Coeff,
    Combination,
    accumulate,
    coeff_from_json,
    coeff_to_json,
    render_terms,
    sym,
)
from .rational import render_rational

CENTRAL = "b"


def _check_generator(gen):
    if gen == CENTRAL:
        return gen
    try:
        i, m = gen
    except (TypeError, ValueError) as exc:
        raise DomainError(f"not a generator: {gen!r}") from exc
    if not (isinstance(i, int) and isinstance(m, int)):
        raise DomainError(f"generator indices must be integers, got {gen!r}")
    return (i, m)


class WLogElement(Combination):
    """Finite combination of generators t^(i)(m) and the central element;
    the central coefficient is stored under the key CENTRAL."""

    __slots__ = ()

    def __init__(self, terms=None, central=Fraction(0)):
        clean: dict = {}
        for gen, coeff in (terms or {}).items():
            if gen == CENTRAL:
                raise DomainError("central coefficient goes in the central argument")
            i, m = _check_generator(gen)
            if coeff:
                clean[(i, m)] = coeff
        if central:
            clean[CENTRAL] = central
        self.terms = clean

    @classmethod
    def generator(cls, i: int, m: int, coeff=Fraction(1)) -> "WLogElement":
        return cls({(i, m): coeff})

    @property
    def central(self):
        return self.terms.get(CENTRAL, Fraction(0))

    def _ordered(self):
        """The generator terms in key order, without the central one."""
        return sorted(
            (kv for kv in self.terms.items() if kv[0] != CENTRAL), key=lambda kv: kv[0]
        )

    def render(self) -> str:
        terms = [(coeff, f"t^({i})({m})") for (i, m), coeff in self._ordered()]
        return render_terms(terms + [(self.central, CENTRAL)])

    __repr__ = render

    def to_json(self) -> dict:
        return {
            "terms": [
                {"i": i, "m": m, "coeff": coeff_to_json(c)}
                for (i, m), c in self._ordered()
            ],
            "central": coeff_to_json(self.central),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "WLogElement":
        try:
            return cls(
                {(t["i"], t["m"]): coeff_from_json(t["coeff"]) for t in obj["terms"]},
                coeff_from_json(obj["central"]),
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed element object: {exc}") from exc


# -- cocycles ---------------------------------------------------------------


def cocycle_closed_form(a, b) -> Fraction:
    """The printed closed-form cocycle.

    The formula parametrizes generators as t^(1-i)(-m) with i, j >= 0, so
    it only covers log indices <= 1; outside that it has no unambiguous
    meaning and we refuse (use the residue cocycle there).

    In the parameters i, j >= 0 it is the sum over r = 0..i+j of
    m^r n^(i+j-r) ((i-r)^3 - (i-r)) / (12 (i+j-r)! r!).  The terms are
    summed in ints over the common denominator 12 (i+j)!, term r carrying
    the binomial C(i+j, r), and one Fraction is built at the end.
    """
    a, b = _check_generator(a), _check_generator(b)
    if a == CENTRAL or b == CENTRAL:
        return Fraction(0)
    (a1, p1), (a2, p2) = a, b
    i, m = 1 - a1, -p1
    j, n = 1 - a2, -p2
    if i < 0 or j < 0:
        raise DomainError("log index above 1: use residue cocycle")
    top = i + j
    num = 0
    for r in range(top + 1):
        kernel = (i - r) ** 3 - (i - r)
        if kernel:
            num += math.comb(top, r) * m**r * n ** (top - r) * kernel
    return Fraction(num, 12 * math.factorial(top))


class LaurentField(Combination):
    """Finite combination of t^k exp(s t); supports exactly the operations
    the vector-field route to the residue cocycle needs, the independent
    check of cocycle_residue."""

    __slots__ = ()

    def __init__(self, terms=None):
        clean: dict = {}
        for (k, s), coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[(int(k), Fraction(s))] = coeff
        self.terms = clean

    @classmethod
    def from_generator(cls, gen) -> "LaurentField":
        i, m = _check_generator(gen)
        # an int exponent equals and hashes like Fraction(-m) as a key
        return cls._of({(i, -m): Fraction(1)})

    def __mul__(self, other: "LaurentField") -> "LaurentField":
        return self._of(accumulate(
            ((k1 + k2, s1 + s2), c1 * c2)
            for (k1, s1), c1 in self.terms.items()
            for (k2, s2), c2 in other.terms.items()
        ))

    def derivative(self) -> "LaurentField":
        return self._of(accumulate(
            (key, q)
            for (k, s), c in self.terms.items()
            for key, q in (((k - 1, s), k * c), ((k, s), s * c))
            if q
        ))

    def residue(self) -> Fraction:
        """Exact coefficient of t^(-1) after expanding every exponential."""
        total = Fraction(0)
        for (k, s), c in self.terms.items():
            if s == 0:
                if k == -1:
                    total += c
            elif k <= -1:
                # t^k exp(st): the t^(-1) coefficient is s^(-1-k)/(-1-k)!
                order = -1 - k
                total += c * s**order / math.factorial(order)
        return total

    def bracket(self, other: "LaurentField") -> "LaurentField":
        """Vector-field bracket [f d/dt, g d/dt] = (f g' - g f') d/dt."""
        return self * other.derivative() - other * self.derivative()


def cocycle_residue(a, b) -> Fraction:
    """The residue cocycle (1/12) Res(f''' g), for f = t^i exp(-mt) and
    g = t^j exp(-nt), computed in closed form.

    Leibniz gives f''' g = sum_k C(3,k) i(i-1)..(i-k+1) (-m)^(3-k)
    t^(i+j-k) exp(st) over k = 0..3, with s = -(m+n).  Res(t^p exp(st)) is
    s^q/q! with q = -1-p >= 0 when s != 0, and [p == -1] when s = 0.  The
    terms are summed in ints over the common denominator 12 top!, where
    top = 2-i-j is the largest q, and one Fraction is built at the end.
    The same sum covers s = 0, because there s^q is 0**0 == 1 at q = 0.

    LaurentField gives the same value through the vector-field realization,
    as (f.derivative().derivative().derivative() * g).residue() / 12 on
    LaurentField.from_generator; that is the independent check.
    """
    a, b = _check_generator(a), _check_generator(b)
    if a == CENTRAL or b == CENTRAL:
        return Fraction(0)
    (i, m), (j, n) = a, b
    top = 2 - i - j
    if top < 0:  # every term has q < 0
        return Fraction(0)
    u, s = -m, -(m + n)
    # the term with k derivatives on t^i sits at r = 3 - k and has q = top - r
    coeffs = (i * (i - 1) * (i - 2), 3 * i * (i - 1) * u, 3 * i * u * u, u * u * u)
    num, falling = 0, 1  # falling = top!/q!
    for r in range(min(3, top) + 1):
        num += coeffs[r] * falling * s ** (top - r)
        falling *= top - r
    return Fraction(num, 12 * math.factorial(top))


_COCYCLES = {
    "none": lambda a, b: Fraction(0),
    "closed": cocycle_closed_form,
    "residue": cocycle_residue,
}


def _cocycle_fn(mode: str):
    try:
        return _COCYCLES[mode]
    except KeyError:
        raise DomainError(f"unknown cocycle mode {mode!r}") from None


_COCYCLE_MEMO: dict = {}
_ZERO = Fraction(0)


def _bracket_terms(a, b, fn) -> tuple:
    """[t^(i)(m), t^(j)(n)] for generators a = (i, m) and b = (j, n), as
    ((i+j, m+n), m - n, (i+j-1, m+n), j - i, fn(a, b)): each generator key
    of the bracket with its int coefficient, then the coefficient of b.
    The one place that knows where the terms of a bracket go."""
    (i, m), (j, n) = a, b
    # a flat key holds no reference to the callers' generator tuples
    key = (i, m, j, n, fn)
    central = _COCYCLE_MEMO.get(key)
    if central is None:
        # most values are zero; they share one object
        central = _COCYCLE_MEMO[key] = fn(a, b) or _ZERO
    return (i + j, m + n), m - n, (i + j - 1, m + n), j - i, central


def wlog_bracket(a, b, cocycle: str = "none") -> WLogElement:
    """Bracket of two generators (or elements, extended bilinearly)."""
    fn = _cocycle_fn(cocycle)
    if isinstance(a, WLogElement) or isinstance(b, WLogElement):
        a, b = _element_of(a), _element_of(b)
        pairs = []
        for g1, c1 in a.terms.items():
            if g1 == CENTRAL:
                continue
            for g2, c2 in b.terms.items():
                if g2 == CENTRAL:
                    continue
                top_key, top, low_key, low, central = _bracket_terms(g1, g2, fn)
                c = c1 * c2
                if top:
                    pairs.append((top_key, c * top))
                if low:
                    pairs.append((low_key, c * low))
                if central:
                    pairs.append((CENTRAL, c * central))
        return WLogElement._of(accumulate(pairs))
    a, b = _check_generator(a), _check_generator(b)
    if a == CENTRAL or b == CENTRAL:
        return WLogElement()
    top_key, top, low_key, low, central = _bracket_terms(a, b, fn)
    terms = {}
    if top:
        terms[top_key] = Fraction(top)
    if low:
        terms[low_key] = Fraction(low)
    if central:
        terms[CENTRAL] = central
    return WLogElement._of(terms)


def _element_of(x) -> WLogElement:
    """x itself if it is an element, else the generator x as one."""
    if isinstance(x, WLogElement):
        return x
    return WLogElement._of({_check_generator(x): Fraction(1)})


def antiinvolution(e) -> WLogElement:
    """t^(i)(m) -> (-1)^i t^(i)(-m), linearly; fixes the central element."""
    e = _element_of(e)
    # (i, m) -> (i, -m) is one to one, so no two terms land on the same key
    out = {(i, -m): -coeff if i % 2 else coeff for (i, m), coeff in e._ordered()}
    return WLogElement(out, e.central)


def antiinvolution_word(word) -> tuple:
    """Reverse a word of generators and map each through the involution;
    returns (sign, mapped word) since each generator maps to a signed
    generator."""
    sign = Fraction(1)
    out = []
    for gen in reversed([_check_generator(g) for g in word]):
        if gen == CENTRAL:
            out.append(gen)
            continue
        i, m = gen
        if i % 2:
            sign = -sign
        out.append((i, -m))
    return sign, tuple(out)


# -- jacobi and deviation scans ---------------------------------------------


def check_jacobi(bound: int, cocycle: str = "none") -> dict:
    """Scan [[x,y],z] + [[y,z],x] + [[z,x],y] = 0 over all generator triples
    with |i|, |m| <= bound.  With a cocycle the central component of the sum
    is exactly the 2-cocycle identity, so one scan verifies both.

    Triples whose brackets raise DomainError, outside the closed form's
    domain or under an unknown cocycle name, are skipped and counted."""
    if bound < 1:
        raise DomainError("jacobi scan needs bound >= 1")
    gens = [
        (i, m)
        for i in range(-bound, bound + 1)
        for m in range(-bound, bound + 1)
    ]
    checked = skipped = 0
    violations = []
    for x, y, z in combinations_with_replacement(gens, 3):
        try:
            nonzero = _jacobi_sum_nonzero(x, y, z, _cocycle_fn(cocycle))
        except DomainError:
            skipped += 1
            continue
        checked += 1
        if nonzero:
            violations.append([list(x), list(y), list(z)])
    return {
        "bound": bound,
        "cocycle": cocycle,
        "checked": checked,
        "skipped": skipped,
        "violations": violations,
    }


def _jacobi_sum_nonzero(x, y, z, fn) -> bool:
    """Whether [[x,y],z] + [[y,z],x] + [[z,x],y] is nonzero, for generators
    x, y, z, summed from _bracket_terms without building elements.

    The outer bracket takes each generator term of the inner one whose int
    coefficient k is nonzero, and skips the central term, which brackets
    to zero: the kernel calls wlog_bracket makes on the same triple.  The
    generator part sums in ints.  The central part, a sum of k times
    cocycle values, sums as one int numerator over the product of their
    denominators, since only its zero test is used."""
    gens: dict = {}
    get = gens.get
    num, den = 0, 1
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        top_key, top, low_key, low, _ = _bracket_terms(a, b, fn)
        for g, k in ((top_key, top), (low_key, low)):
            if not k:
                continue
            top_key2, top2, low_key2, low2, central = _bracket_terms(g, c, fn)
            if top2:
                gens[top_key2] = get(top_key2, 0) + k * top2
            if low2:
                gens[low_key2] = get(low_key2, 0) + k * low2
            if central:
                num = num * central.denominator + k * central.numerator * den
                den *= central.denominator
    return num != 0 or any(gens.values())


def wlog_deviations(bound: int = 3) -> list:
    """Pairs within the closed form's domain where it disagrees with the
    residue cocycle, over |i|, |m| <= bound."""
    out = []
    gens = [
        (i, m)
        for i in range(-bound, bound + 1)
        for m in range(-bound, bound + 1)
    ]
    for a in gens:
        for b in gens:
            try:
                closed = cocycle_closed_form(a, b)
            except DomainError:
                continue
            residue = cocycle_residue(a, b)
            if closed != residue:
                out.append(
                    {
                        "pair": [list(a), list(b)],
                        "closed": render_rational(closed),
                        "residue": render_rational(residue),
                    }
                )
    return out


# -- vacuum expectation -----------------------------------------------------


def vacuum_expectation(word, cocycle: str = "residue") -> Coeff:
    """Scalar coefficient of the vacuum after applying a word of generators.

    The vacuum v_b is killed by every t^(i)(m) with m >= 0 and the central
    element acts by the symbol b; generators with m < 0 create.  The word
    acts rightmost factor first, annihilators commute rightward through
    creation strings via the bracket (with the chosen cocycle), and any
    state still carrying creation factors pairs to zero.
    """
    fn = _cocycle_fn(cocycle)

    state = {(): Fraction(1)}
    for gen in reversed([_check_generator(g) for g in word]):
        state = accumulate(
            (tup2, coeff * c2)
            for tup, coeff in state.items()
            for tup2, c2 in _gen_on_tuple(gen, tup, fn).items()
        )
    return state.get((), Fraction(0))


def _gen_on_tuple(gen, tup: tuple, fn) -> dict:
    """One generator applied to a creation string; {creation tuple: Coeff}."""
    if gen == CENTRAL:
        return {tup: sym("b")}
    if gen[1] < 0:
        return {(gen,) + tup: Fraction(1)}
    if not tup:
        return {}
    head, rest = tup[0], tup[1:]
    pairs = []
    # commutator part: [gen, head] acting on the rest
    top_key, top, low_key, low, central = _bracket_terms(gen, head, fn)
    for key, coeff in ((top_key, top), (low_key, low)):
        if coeff:
            pairs.extend(
                (tup2, coeff * c2) for tup2, c2 in _gen_on_tuple(key, rest, fn).items()
            )
    if central:
        pairs.append((rest, central * sym("b")))
    # straight-through part: head (a creator) times gen acting deeper
    pairs.extend(((head,) + tup2, c2) for tup2, c2 in _gen_on_tuple(gen, rest, fn).items())
    return accumulate(pairs)


def wlog_pairing(left_word, right_word, cocycle: str = "residue") -> Coeff:
    """Shapovalov-style pairing <(left word) v_b, (right word) v_b> through
    the anti-involution."""
    sign, mapped = antiinvolution_word(left_word)
    value = vacuum_expectation(list(mapped) + list(right_word), cocycle)
    return value * sign
